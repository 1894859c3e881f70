package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/skyline"
	"repro/internal/store"
)

// span is one timed interval of a traced request. Spans of a request
// share req; parent is the id of the span that caused it (0 for the
// request's root). onPath marks a re-issued call the handler makes on
// the request's blocking path; the others (uncached analysis, mission
// evaluation outside its cache) are comparison probes.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	OnPath bool   `json:"on_path"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer replays requests in-process. For each request it records a
// span around Server.ServeHTTP and then re-issues, with the same
// inputs, the public calls the handler makes, each in its own span.
// The re-issued calls run against twins of the server's state — an
// analysis cache and a result store that have seen exactly the calls
// the server's have — so each call finds the state the handler found.
// The store twin is keyed by request URL, because the server's
// canonical key is internal to the skyline package; the artifacts it
// reads and writes are the same bytes.
type tracer struct {
	cat     *catalog.Catalog
	cache   *core.Cache  // twin of the server's analysis cache
	store   *store.Store // twin of the server's result store (nil = off)
	workers int
	epoch   time.Time
	spans   []span
	req     int // current request id
	root    int // its root span's id
	nextID  int
	counts  map[string]float64
}

func newTracer(cat *catalog.Catalog, st *store.Store) *tracer {
	return &tracer{cat: cat, cache: core.NewCache(), store: st, workers: runtime.GOMAXPROCS(0),
		epoch: time.Now(), counts: map[string]float64{}}
}

// do runs fn inside a span when recording, or bare when only keeping
// the twins in step (warm-up).
func (t *tracer) do(record bool, name string, onPath bool, fn func()) {
	if !record {
		fn()
		return
	}
	t.nextID++
	s := span{Req: t.req, ID: t.nextID, Parent: t.root, Name: name, OnPath: onPath}
	s.Start = int64(time.Since(t.epoch))
	fn()
	s.End = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
}

// reissue repeats the handler's public calls for one served request.
// outcome is the response's X-Explore-Store header.
func (t *tracer) reissue(record bool, r request, rec *recorder) error {
	ctx := context.Background()
	u, err := url.Parse(r.URL)
	if err != nil {
		return err
	}
	q := u.Query()
	outcome := rec.header.Get("X-Explore-Store")
	var callErr error
	keep := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	storeProbe := func() {
		if t.store == nil {
			return
		}
		t.do(record, "store.get", true, func() { t.store.Get(r.URL) })
		if outcome == "filtered" {
			t.do(record, "store.get", true, func() { t.store.Get(r.Superset) })
		}
	}
	storeSpill := func() {
		if t.store != nil && outcome == "" && rec.code == http.StatusOK && rec.body.Len() > 0 {
			t.do(record, "store.put", true, func() { t.store.Put(r.URL, rec.body.Bytes()) })
		}
	}
	switch r.path() {
	case "/explore":
		var req skyline.ExploreRequest
		t.do(record, "skyline.parse", true, func() { req, err = skyline.ParseExplore(t.cat, q) })
		keep(err)
		storeProbe()
		if outcome != "" || err != nil {
			break
		}
		e := dse.Explorer{Catalog: t.cat, Space: req.Space, Constraints: req.Constraints,
			Workers: t.workers, Cache: t.cache, Objective: req.Objective}
		var cands []dse.Candidate
		t.do(record, "dse.explore", true, func() { cands, err = e.ExploreContext(ctx) })
		keep(err)
		t.counts["dse.candidates"] += float64(len(cands))
		if req.TopK > 0 || len(req.Pareto) > 0 {
			t.do(record, "dse.select", true, func() {
				if req.TopK > 0 {
					dse.TopK(cands, req.Rank, req.TopK)
				} else {
					_, err = dse.ParetoFront(cands, req.Pareto...)
				}
			})
			keep(err)
		}
		if req.Objective != nil && record {
			out := make([]float64, len(req.Objective.Columns()))
			t.do(record, "mission.evaluate", false, func() {
				for i := range cands {
					c := cands[i]
					keep(req.Objective.Evaluate(ctx, &c, req.Objective.Seed()^int64(i), out))
				}
			})
			t.counts["mission.candidates"] += float64(len(cands))
		}
		storeSpill()
	case "/grid.svg":
		var req skyline.GridRequest
		t.do(record, "skyline.parse", true, func() { req, err = skyline.ParseGrid(t.cat, q) })
		keep(err)
		storeProbe()
		if outcome != "" || err != nil {
			break
		}
		req.Workers = t.workers
		cfg, err := req.Params.Config(t.cat)
		keep(err)
		t.do(record, "dse.sweep", true, func() {
			_, err = dse.GridSweepContext(ctx, cfg, req.X, req.XLo, req.XHi, req.NX, req.Y, req.YLo, req.YHi, req.NY, t.workers)
		})
		keep(err)
		hm, err := req.Run(ctx, t.cat)
		keep(err)
		if hm != nil {
			t.do(record, "plot.svg", true, func() { keep(hm.SVG(&bytes.Buffer{})) })
		}
		storeSpill()
	case "/sweep.svg":
		var req skyline.SweepRequest
		t.do(record, "skyline.parse", true, func() { req, err = skyline.ParseSweep(q) })
		keep(err)
		req.Workers = t.workers
		cfg, err := req.Params.Config(t.cat)
		keep(err)
		t.do(record, "dse.sweep", true, func() {
			_, err = dse.SweepContext(ctx, cfg, req.Knob, req.Lo, req.Hi, req.N, req.Log, t.workers)
		})
		keep(err)
		ch, err := req.Run(ctx, t.cat)
		keep(err)
		if ch != nil {
			t.do(record, "plot.svg", true, func() { keep(ch.SVG(&bytes.Buffer{})) })
		}
	case "/api/analyze", "/plot.svg", "/":
		var p skyline.Params
		t.do(record, "skyline.parse", true, func() { p, err = skyline.ParseParams(q) })
		keep(err)
		cfg, err := p.Config(t.cat)
		keep(err)
		var an core.Analysis
		t.do(record, "core.cached_analyze", true, func() { an, err = t.cache.AnalyzeContext(ctx, cfg) })
		keep(err)
		switch r.path() {
		case "/api/analyze":
			t.do(record, "core.analyze", false, func() { _, err = core.Analyze(cfg) })
			keep(err)
		case "/plot.svg":
			ch := skyline.Chart(an)
			t.do(record, "plot.svg", true, func() { keep(ch.SVG(&bytes.Buffer{})) })
		}
	case "/api/compare":
		t.do(record, "skyline.compare", true, func() { _, err = skyline.ParseComparison(t.cat, q) })
		keep(err)
	default:
		return fmt.Errorf("traced replay has no re-issue plan for %s", r.path())
	}
	return callErr
}

// replayStats is what one replay observed of the server itself.
type replayStats struct {
	serve    []time.Duration
	outcome  []string
	flushes  int
	bytes    int
	cacheHit float64
	fills    float64
	store    store.Stats
}

// replay serves reqs in-process one at a time. With tr nil only
// ServeHTTP is timed; with a tracer every request gets a root span,
// a serve span and the re-issued layer spans.
func (b *bench) replay(s *served, reqs []request, tr *tracer) (replayStats, error) {
	var rs replayStats
	c0, s0 := s.cache.Stats(), s.store.Stats()
	for i, r := range reqs {
		var root int
		if tr != nil {
			tr.req = i + 1
			tr.nextID++
			tr.root = tr.nextID
			root = len(tr.spans)
			tr.spans = append(tr.spans, span{Req: tr.req, ID: tr.root, Name: "bench.request",
				Start: int64(time.Since(tr.epoch))})
		}
		hr := httptest.NewRequest(http.MethodGet, r.URL, nil)
		rec := newRecorder()
		t0 := time.Now()
		s.srv.ServeHTTP(rec, hr)
		d := time.Since(t0)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		rs.serve = append(rs.serve, d)
		rs.outcome = append(rs.outcome, rec.header.Get("X-Explore-Store"))
		rs.flushes += rec.flushes
		rs.bytes += rec.body.Len()
		if err := b.check(r, rec); err != nil {
			b.logf("replay: %v", err)
		}
		if tr != nil {
			tr.nextID++
			start := int64(t0.Sub(tr.epoch))
			tr.spans = append(tr.spans, span{Req: tr.req, ID: tr.nextID, Parent: tr.root, Name: "skyline.serve",
				Start: start, End: start + int64(d)})
			if err := tr.reissue(true, r, rec); err != nil {
				return rs, fmt.Errorf("re-issuing %s: %w", r.URL, err)
			}
			tr.spans[root].End = int64(time.Since(tr.epoch))
		}
	}
	c1, s1 := s.cache.Stats(), s.store.Stats()
	if look := float64(c1.Hits + c1.Misses - c0.Hits - c0.Misses); look > 0 {
		rs.cacheHit = float64(c1.Hits-c0.Hits) / look
	}
	rs.fills = float64(c1.Fills - c0.Fills)
	rs.store = store.Stats{Hits: s1.Hits - s0.Hits, Misses: s1.Misses - s0.Misses}
	return rs, nil
}

// traced is the per-layer run: set-up layers, a served nominal phase
// scraped through /metrics, and in-process replays of the same requests
// from the same starting state — timing ServeHTTP alone before and after
// one that adds the layer spans — whose difference is the tracing
// overhead.
func (b *bench) traced(outRoot string) (result, error) {
	m := map[string]metric{}
	// Set-up layers, each the median over the configured repeats.
	var builds, prints, opens []time.Duration
	for range b.cfg.SetupRepeats {
		t0 := time.Now()
		cat := b.w.newCatalog()
		builds = append(builds, time.Since(t0))
		t1 := time.Now()
		cat.Fingerprint()
		prints = append(prints, time.Since(t1))
	}
	s, times, err := b.generation("served", b.cfg.SetupRepeats, nil)
	if err != nil {
		return result{}, err
	}
	for _, t := range times {
		opens = append(opens, t.open)
	}
	m["catalog.build_us"] = metric{us(medianDuration(builds)), "us"}
	m["catalog.fingerprint_us"] = metric{us(medianDuration(prints)), "us"}
	m["store.open_s"] = metric{medianDuration(opens).Seconds(), "s"}

	// Served phase at the nominal rate, then the server's own view.
	if err := b.warm(s); err != nil {
		s.stop()
		return result{}, err
	}
	reqs, dues, err := b.nominal()
	if err != nil {
		s.stop()
		return result{}, err
	}
	limit := time.Duration(b.w.spec.LatencyLimitMS * float64(time.Millisecond))
	runtime.GC()
	nom := b.load.run(s.base, reqs, dues, limit, -1)
	b.tally(nom)
	var late []float64
	for _, smp := range nom.samples {
		late = append(late, ms(smp.late))
	}
	scrape := serveInProcess(s.srv, "/metrics")
	s.stop()
	qw, sp99, sheds := parseMetrics(scrape.body.String())
	m["skyline.queue_wait_p99_ms"] = metric{qw * 1e3, "ms"}
	m["skyline.server_p99_ms"] = metric{sp99 * 1e3, "ms"}
	m["skyline.sheds"] = metric{sheds, "count"}
	m["bench.late_p99_ms"] = metric{quantile(late, 0.99), "ms"}

	// Replays over the first trace_requests of the nominal list, each
	// from a fresh generation warmed like the served one.
	n := min(len(reqs), b.w.spec.TraceRequests)
	replayReqs := reqs[:n]
	warmReqs := b.warmReqs
	// The untraced replay runs once before and once after the traced
	// one, so process warm-up does not pass for tracing cost.
	plainReplay := func(tag string) (replayStats, error) {
		plain, _, err := b.generation(tag, 1, nil)
		if err != nil {
			return replayStats{}, err
		}
		defer plain.stop()
		for _, r := range warmReqs {
			_ = serveInProcess(plain.srv, r.URL)
		}
		runtime.GC()
		return b.replay(plain, replayReqs, nil)
	}
	before, err := plainReplay("replay-plain-before")
	if err != nil {
		return result{}, err
	}

	var twinStore *store.Store
	if b.w.store {
		if twinStore, err = store.Open(filepath.Join(b.dir, "twin"), b.cfg.StoreLimitBytes); err != nil {
			return result{}, err
		}
	}
	tr := newTracer(b.w.newCatalog(), twinStore)
	spanned, _, err := b.generation("replay-traced", 1, func(r request, rec *recorder) {
		if twinStore != nil && rec.header.Get("X-Explore-Store") == "" && rec.code == http.StatusOK {
			twinStore.Put(r.URL, rec.body.Bytes())
		}
	})
	if err != nil {
		return result{}, err
	}
	for _, r := range warmReqs {
		rec := serveInProcess(spanned.srv, r.URL)
		if err := tr.reissue(false, r, rec); err != nil {
			spanned.stop()
			return result{}, err
		}
	}
	runtime.GC()
	traced, err := b.replay(spanned, replayReqs, tr)
	spanned.stop()
	if err != nil {
		return result{}, err
	}
	after, err := plainReplay("replay-plain-after")
	if err != nil {
		return result{}, err
	}
	untraced := replayStats{serve: append(before.serve, after.serve...)}

	b.ledger(m, tr, untraced, traced, n)
	if err := b.writeTrace(outRoot, tr); err != nil {
		return result{}, err
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// ledger turns the replays' spans and counters into per-layer metrics.
func (b *bench) ledger(m map[string]metric, tr *tracer, untraced, traced replayStats, n int) {
	perSpan := map[string][]time.Duration{}
	onPath := map[int]time.Duration{}
	serveOf := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			continue
		}
		perSpan[s.Name] = append(perSpan[s.Name], s.dur())
		if s.Name == "skyline.serve" {
			serveOf[s.Req] = s.dur()
		} else if s.OnPath {
			onPath[s.Req] += s.dur()
		}
	}
	mean := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return us(t) / float64(len(ds))
	}
	sum := func(ds []time.Duration) float64 { return mean(ds) * float64(len(ds)) }
	byOutcome := map[string][]time.Duration{}
	for i, d := range traced.serve {
		o := traced.outcome[i]
		if o == "" {
			o = "engine"
		}
		byOutcome[o] = append(byOutcome[o], d)
	}
	var encode []time.Duration
	for req, d := range serveOf {
		encode = append(encode, max(0, d-onPath[req]))
	}
	fn := float64(n)
	m["skyline.serve_us"] = metric{mean(traced.serve), "us"}
	m["skyline.serve_engine_us"] = metric{mean(byOutcome["engine"]), "us"}
	m["skyline.serve_hit_us"] = metric{mean(byOutcome["hit"]), "us"}
	m["skyline.serve_filtered_us"] = metric{mean(byOutcome["filtered"]), "us"}
	m["skyline.parse_us"] = metric{mean(perSpan["skyline.parse"]), "us"}
	m["skyline.encode_write_us"] = metric{mean(encode), "us"}
	m["skyline.flushes_per_req"] = metric{float64(traced.flushes) / fn, "count"}
	m["skyline.bytes_per_req"] = metric{float64(traced.bytes) / fn, "B"}
	m["skyline.trace_overhead_us"] = metric{mean(traced.serve) - mean(untraced.serve), "us"}
	m["skyline.store_hit_share"] = metric{float64(len(byOutcome["hit"])) / fn, "ratio"}
	m["skyline.filtered_share"] = metric{float64(len(byOutcome["filtered"])) / fn, "ratio"}
	m["store.get_us"] = metric{mean(perSpan["store.get"]), "us"}
	m["store.put_us"] = metric{mean(perSpan["store.put"]), "us"}
	hitRatio := 0.0
	if look := traced.store.Hits + traced.store.Misses; look > 0 {
		hitRatio = float64(traced.store.Hits) / float64(look)
	}
	m["store.hit_ratio"] = metric{hitRatio, "ratio"}
	m["dse.explore_us"] = metric{mean(perSpan["dse.explore"]), "us"}
	perCand := 0.0
	if c := tr.counts["dse.candidates"]; c > 0 {
		perCand = sum(perSpan["dse.explore"]) / c
	}
	m["dse.us_per_candidate"] = metric{perCand, "us"}
	candsPerReq := 0.0
	if k := len(perSpan["dse.explore"]); k > 0 {
		candsPerReq = tr.counts["dse.candidates"] / float64(k)
	}
	m["dse.candidates_per_req"] = metric{candsPerReq, "count"}
	m["dse.select_us"] = metric{mean(perSpan["dse.select"]), "us"}
	m["dse.sweep_us"] = metric{mean(perSpan["dse.sweep"]), "us"}
	evalPer := 0.0
	if c := tr.counts["mission.candidates"]; c > 0 {
		evalPer = sum(perSpan["mission.evaluate"]) / c
	}
	m["mission.evaluate_us_per_candidate"] = metric{evalPer, "us"}
	m["core.cache_hit_ratio"] = metric{traced.cacheHit, "ratio"}
	m["core.cache_fills_per_req"] = metric{traced.fills / fn, "count"}
	m["core.analyze_us"] = metric{mean(perSpan["core.analyze"]), "us"}
	m["core.cached_analyze_us"] = metric{mean(perSpan["core.cached_analyze"]), "us"}
	m["plot.svg_us"] = metric{mean(perSpan["plot.svg"]), "us"}

	b.logf("tracing overhead: skyline.serve_us %.2f traced vs %.2f untraced (%+.2f us per request over %d requests)",
		mean(traced.serve), mean(untraced.serve), mean(traced.serve)-mean(untraced.serve), n)
	b.logf("realised mix: %s", describeShares(traced.outcome))
}

func describeShares(outcomes []string) string {
	c := map[string]int{}
	for _, o := range outcomes {
		if o == "" {
			o = "engine"
		}
		c[o]++
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.3f", k, float64(c[k])/float64(len(outcomes)))
	}
	return "store outcomes " + strings.Join(parts, " ")
}

// writeTrace writes the spans (JSON lines) and the per-layer self-time
// table next to the run's scratch directory, and prints the table.
func (b *bench) writeTrace(outRoot string, tr *tracer) error {
	base := filepath.Join(outRoot, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := selfTimeTable(tr.spans)
	if err := os.WriteFile(base+".layers.txt", []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Fprint(b.log, table)
	b.logf("trace artifacts: %s.spans.jsonl %s.layers.txt", base, base)
	return nil
}

// selfTimeTable sums, per span name, the spans' durations and their
// self time: duration minus the part of it that child spans cover. The
// re-issued layer calls are children of the request's root span, so the
// root's self time is the replay's own bookkeeping. The derived row
// is ServeHTTP minus the on-path re-issued calls of the same request:
// the handler's encode, write and flush, which no public call exposes.
func selfTimeTable(spans []span) string {
	type agg struct {
		n           int
		total, self time.Duration
	}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*agg{}
	serve := map[int]time.Duration{}
	onPath := map[int]time.Duration{}
	for _, s := range spans {
		a := rows[s.Name]
		if a == nil {
			a = &agg{}
			rows[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += s.dur() - covered(s, children[s.ID])
		switch {
		case s.Name == "skyline.serve":
			serve[s.Req] = s.dur()
		case s.OnPath:
			onPath[s.Req] += s.dur()
		}
	}
	derived := &agg{}
	for req, d := range serve {
		derived.n++
		derived.total += max(0, d-onPath[req])
	}
	derived.self = derived.total
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	slices.Sort(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %8s %12s %12s %12s\n", "layer", "spans", "total_ms", "self_ms", "mean_us")
	row := func(name string, a *agg) {
		fmt.Fprintf(&sb, "%-36s %8d %12.3f %12.3f %12.2f\n", name, a.n, ms(a.total), ms(a.self), us(a.total)/float64(max(1, a.n)))
	}
	for _, n := range names {
		row(n, rows[n])
	}
	row("skyline.encode_write (derived)", derived)
	return sb.String()
}

// covered is the length of the union of the children's intervals
// clipped to s.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// parseMetrics reads the /metrics scrape: the p99 admission queue wait,
// the worst per-endpoint p99 latency (seconds) and the total sheds.
func parseMetrics(text string) (queueP99, serverP99, sheds float64) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		switch {
		case series == `skyline_queue_wait_seconds{quantile="0.99"}`:
			queueP99 = v
		case strings.HasPrefix(series, "skyline_request_duration_seconds{") && strings.Contains(series, `quantile="0.99"`) &&
			!strings.Contains(series, `"/metrics"`) && !strings.Contains(series, `"/healthz"`):
			serverP99 = max(serverP99, v)
		case strings.HasPrefix(series, "skyline_shed_total"):
			sheds += v
		}
	}
	return queueP99, serverP99, sheds
}
