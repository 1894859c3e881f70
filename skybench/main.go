// Command skybench is the served-response benchmark of the Skyline
// server: it starts the server in-process behind a loopback listener,
// drives it from one process with seeded open-loop traffic over at
// most NumCPU connections, checks every response against a reference
// server, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer ledger) with their units. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go -C skybench build -o ../.bench_build/skybench . &&
//	  .bench_build/skybench --workload explore-stream --seed 1 --seconds 10 --trace 0
//
// Workloads, their mixes, rates and latency limits live in
// workloads.json; run.sh builds and runs the command from a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// Exit codes besides 0.
const (
	exitError     = 1 // the run could not be made; no result printed
	exitIncorrect = 2 // a response differed from the reference; result printed
	exitInvalid   = 3 // host or generator made the figures meaningless; no result
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gatedMetrics are the end-to-end metrics BENCHMARK.json bounds: the
// ones whose spread between back-to-back runs stays within a bound.
var gatedMetrics = []string{"setup_s", "cpu_ms_per_req", "peak_rss_mb"}

// errInvalid marks a run whose numbers must not be reported.
var errInvalid = errors.New("invalid run")

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("skybench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see workloads.json)")
	seed := fs.Int64("seed", 1, "seed of the generated requests")
	seconds := fs.Int("seconds", 10, "length of the nominal-rate phase")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer ledger instead of end-to-end metrics")
	calibrate := fs.Bool("calibrate", false, "measure closed-loop capacity over NumCPU connections and exit")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for stores and trace artifacts")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stdout, "error:", err)
		return exitError
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stdout, "error: -seconds must be ≥ 1 and -trace 0 or 1")
		return exitError
	}
	w, err := newWorkload(cfg, *name, *seed)
	if err != nil {
		fmt.Fprintln(stdout, "error:", err)
		return exitError
	}
	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), w.name, *seed, *seconds, *trace)
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stdout, "INVALID: GOMAXPROCS %d exceeds NumCPU %d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return exitInvalid
	}
	dir, err := filepath.Abs(filepath.Join(*out, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err != nil {
		fmt.Fprintln(stdout, "error:", err)
		return exitError
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stdout, "error:", err)
		return exitError
	}
	b := &bench{
		cfg: cfg, w: w, seed: *seed, seconds: *seconds, dir: dir,
		conns: runtime.NumCPU(), log: stdout,
	}
	b.client = newClient(b.conns)
	b.oracle = newOracle(w)
	b.load = &loader{client: b.client, conns: b.conns, oracle: b.oracle}
	defer b.client.CloseIdleConnections()

	var res result
	switch {
	case *calibrate:
		err = b.calibrate()
	case *trace == 1:
		res, err = b.traced(*out)
	default:
		res, err = b.measure()
	}
	// Stores are scratch; trace artifacts were written beside dir.
	if rerr := os.RemoveAll(dir); rerr != nil {
		fmt.Fprintln(stdout, "warning: removing", dir, rerr)
	}
	switch {
	case errors.Is(err, errInvalid):
		fmt.Fprintln(stdout, "INVALID:", err)
		return exitInvalid
	case err != nil:
		fmt.Fprintln(stdout, "error:", err)
		return exitError
	case *calibrate:
		return 0
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if *trace == 0 {
		// The result line carries the gated metrics; latency and max
		// rate are printed above but, on a shared 2-vCPU host, swing
		// more between runs than any bound a regression gate could use.
		gated := map[string]metric{}
		for _, n := range gatedMetrics {
			gated[n] = res.Metrics[n]
		}
		res.Metrics = gated
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stdout, "error:", err)
		return exitError
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return exitIncorrect
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// saw one ("none" in a plain source checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// bench is one run of one workload.
type bench struct {
	cfg     *config
	w       *workload
	seed    int64
	seconds int
	dir     string
	conns   int
	log     io.Writer
	client  *http.Client
	oracle  *oracle
	load    *loader

	warmReqs []request
	last     time.Time

	attempted, failed, mismatches int
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, format+"\n", args...) }

// mark logs how long the run spent since the previous mark.
func (b *bench) mark(what string) {
	now := time.Now()
	if !b.last.IsZero() {
		b.logf("phase %s %.2fs", what, now.Sub(b.last).Seconds())
	}
	b.last = now
}

// storeDir returns a fresh, empty store directory named tag.
func (b *bench) storeDir(tag string) (string, error) {
	d := filepath.Join(b.dir, tag)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// generation starts a server the way the timed phases see it: for
// select-warm, a first generation fills a fresh store and the returned
// one is a restart over it. repeats set-ups are made in a row (the last
// one is kept) and their times returned.
func (b *bench) generation(tag string, repeats int, onFill func(request, *recorder)) (*served, []setupTimes, error) {
	dir := ""
	if b.w.store {
		var err error
		if dir, err = b.storeDir(tag); err != nil {
			return nil, nil, err
		}
	}
	if len(b.w.fill) > 0 {
		if err := b.oracle.ensure(b.w.fill); err != nil {
			return nil, nil, err
		}
		first, _, err := start(b.w, dir, b.cfg.StoreLimitBytes, b.client)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range b.w.fill {
			rec := serveInProcess(first.srv, r.URL)
			if err := b.check(r, rec); err != nil {
				first.stop()
				return nil, nil, fmt.Errorf("fill: %w", err)
			}
			if onFill != nil {
				onFill(r, rec)
			}
		}
		first.stop()
	}
	var times []setupTimes
	for k := range repeats {
		runtime.GC()
		s, t, err := start(b.w, dir, b.cfg.StoreLimitBytes, b.client)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if k == repeats-1 {
			return s, times, nil
		}
		s.stop()
		b.client.CloseIdleConnections()
	}
	return nil, nil, errors.New("no set-up repeats configured")
}

// check verifies one in-process response against the reference.
func (b *bench) check(r request, rec *recorder) error {
	b.attempted++
	d := digestOf(rec.body.Bytes())
	if rec.code == http.StatusOK && b.oracle.matches(r.URL, d) {
		return nil
	}
	b.failed++
	if rec.code == http.StatusOK {
		b.mismatches++
		return fmt.Errorf("%s: body differs from the reference", r.URL)
	}
	return fmt.Errorf("%s: status %d: %.200s", r.URL, rec.code, rec.body.String())
}

// tally folds a timed phase into the run's attempt counters, logging
// the first few failures.
func (b *bench) tally(p phase) {
	for _, s := range p.samples {
		b.attempted++
		if s.failed {
			if b.failed++; b.failed <= 5 {
				b.logf("failed: %s", s.detail)
			}
		}
		if s.mismatch {
			b.mismatches++
		}
	}
}

// warm sends the workload's warm-up requests back to back; any failure
// aborts the run.
// The first call takes the warm-up list from the stream; later calls
// (the traced run's replay generations) repeat it.
func (b *bench) warm(s *served) error {
	if b.warmReqs == nil {
		b.warmReqs = b.w.stream.take(b.w.spec.WarmupRequests)
	}
	if err := b.oracle.ensure(b.warmReqs); err != nil {
		return err
	}
	p := b.load.closedLoop(s.base, b.warmReqs)
	for i, smp := range p.samples {
		if smp.failed {
			return fmt.Errorf("warm-up request %s failed: %s", b.warmReqs[i].URL, smp.detail)
		}
	}
	return nil
}

// nominal draws the nominal phase: at least min_nominal_requests and
// rate × seconds, on a Poisson schedule at the frozen nominal rate.
func (b *bench) nominal() ([]request, []time.Duration, error) {
	rate := b.w.spec.NominalRPS
	n := max(b.cfg.MinNominal, int(rate*float64(b.seconds)))
	reqs := b.w.stream.take(n)
	if err := b.oracle.ensure(reqs); err != nil {
		return nil, nil, err
	}
	return reqs, arrivals(rngFor(b.w.name, b.seed, "nominal"), rate, n), nil
}

// measure is the untraced run: set-up, warm-up, the nominal phase and
// the max-rate search.
func (b *bench) measure() (result, error) {
	b.mark("")
	if b.w.name == "interactive" {
		if err := b.oracle.checkAnchors(); err != nil {
			return result{}, err
		}
	}
	s, times, err := b.generation("store", b.cfg.SetupRepeats, nil)
	if err != nil {
		return result{}, err
	}
	defer s.stop()
	b.mark("setup")
	if err := b.warm(s); err != nil {
		return result{}, err
	}
	b.mark("warm-up")
	reqs, dues, err := b.nominal()
	if err != nil {
		return result{}, err
	}
	b.mark("reference")
	limit := time.Duration(b.w.spec.LatencyLimitMS * float64(time.Millisecond))
	if err := resetPeakRSS(); err != nil {
		return result{}, fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	nom := b.load.run(s.base, reqs, dues, limit, -1)
	rss, err := peakRSS()
	if err != nil {
		return result{}, fmt.Errorf("reading the peak RSS: %w", err)
	}
	b.tally(nom)
	b.mark("nominal")

	var lat, late []float64
	fails := 0
	for _, smp := range nom.samples {
		late = append(late, ms(smp.late))
		if smp.failed {
			fails++
			continue
		}
		lat = append(lat, ms(smp.latency))
	}
	completed := len(lat)
	latep99 := quantile(late, 0.99)
	b.logf("nominal rate=%.1f req/s requests=%d completed=%d late_p99_ms=%.4g wall_s=%.3f pooled_p50_ms=%.4g pooled_p99_ms=%.4g",
		b.w.spec.NominalRPS, len(nom.samples), completed, latep99, nom.wall.Seconds(), quantile(lat, 0.5), quantile(lat, 0.99))
	if lateLimit := ms(b.w.spec.lateLimit()); latep99 > lateLimit {
		return result{}, fmt.Errorf("%w: generator fell behind: bench.late_p99_ms %.3g > limit %.3g", errInvalid, latep99, lateLimit)
	}
	if completed < b.cfg.MinNominal && fails == 0 {
		return result{}, fmt.Errorf("nominal phase completed %d requests, fewer than %d", completed, b.cfg.MinNominal)
	}

	// The search starts near the rate at which the nominal phase's CPU
	// use would fill every core, which saves probes on an idle host.
	busy := nom.cpu.Seconds() / nom.wall.Seconds()
	start := b.w.spec.NominalRPS
	if busy > 0 {
		start = max(start, 0.8*start*float64(b.conns)/busy)
	}
	maxRate, err := b.maxRate(s, limit, start)
	if err != nil {
		return result{}, err
	}
	b.mark("max-rate")
	setups := make([]time.Duration, len(times))
	for i, t := range times {
		setups[i] = t.total
	}
	latency := func(s sample) time.Duration { return s.latency }
	first := func(s sample) time.Duration { return s.ttfb }
	per, most := b.cfg.MinNominal, b.cfg.MaxWindows
	m := map[string]metric{
		"setup_s":        {medianDuration(setups).Seconds(), "s"},
		"latency_p50_ms": {windowed(nom.samples, per, most, 0.5, latency), "ms"},
		"latency_p99_ms": {windowed(nom.samples, per, most, 0.99, latency), "ms"},
		"ttfb_p50_ms":    {windowed(nom.samples, per, most, 0.5, first), "ms"},
		"ttfb_p99_ms":    {windowed(nom.samples, per, most, 0.99, first), "ms"},
		"max_rate_rps":   {maxRate, "1/s"},
		"fail_ratio":     {float64(fails) / float64(max(1, len(nom.samples))), "ratio"},
		"cpu_ms_per_req": {ms(nom.cpu) / float64(max(1, completed)), "ms"},
		"peak_rss_mb":    {float64(rss) / (1 << 20), "MiB"},
	}
	// At the nominal rate a correct server answers everything, so any
	// failure there — not only a wrong body — makes the run incorrect.
	return result{Correct: b.mismatches == 0 && fails == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// maxRate searches the highest offered rate whose probe keeps p99
// latency within limit, fails nothing and does not grow a backlog. A
// rate fails only when probe_trials probes in a row fail, so a few
// seconds of contention from outside the process cannot end the search
// early. The search starts at start, steps geometrically by
// rate_step until the outcome flips, then bisects until the bracket is
// narrower than rate_resolution.
func (b *bench) maxRate(s *served, limit time.Duration, start float64) (float64, error) {
	span := time.Duration(b.cfg.ProbeSeconds * float64(time.Second))
	probes := 0
	trial := func(rate float64) (bool, error) {
		if probes >= b.cfg.MaxProbes {
			return false, fmt.Errorf("max-rate search needs more than %d probes", b.cfg.MaxProbes)
		}
		dues := arrivalsWithin(rngFor(b.w.name, b.seed, fmt.Sprintf("probe-%d", probes)), rate, span)
		probes++
		reqs := b.w.stream.take(len(dues))
		if err := b.oracle.ensure(reqs); err != nil {
			return false, err
		}
		runtime.GC()
		p := b.load.run(s.base, reqs, dues, limit, missAllowance(len(reqs)))
		misses := 0
		var lat, late []float64
		for _, smp := range p.samples {
			late = append(late, ms(smp.late))
			if smp.mismatch {
				b.mismatches++
				b.logf("mismatch: %s", smp.detail)
			}
			if smp.failed || smp.latency > limit {
				misses++
			}
			if !smp.failed {
				lat = append(lat, ms(smp.latency))
			}
		}
		q := len(p.samples) / 4
		growth := q > 0 && meanWait(p.samples[len(p.samples)-q:])-meanWait(p.samples[:q]) > limit/4
		// A generator that sends late did not offer the rate it claims.
		latep99 := quantile(late, 0.99)
		behind := latep99 > ms(b.w.spec.lateLimit())
		ok := !p.aborted && misses <= missAllowance(len(reqs)) && !growth && !behind
		b.logf("probe rate=%.1f requests=%d sent=%d misses=%d p99_ms=%.4g late_p99_ms=%.4g backlog_growth=%v pass=%v",
			rate, len(reqs), len(p.samples), misses, quantile(lat, 0.99), latep99, growth, ok)
		return ok, nil
	}
	probe := func(rate float64) (bool, error) {
		for range b.cfg.ProbeTrials {
			if ok, err := trial(rate); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	step := b.cfg.RateStep
	lo, hi := 0.0, 0.0
	rate := start
	for lo == 0 || hi == 0 {
		ok, err := probe(rate)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = rate
			rate *= step
		} else {
			hi = rate
			rate /= step
		}
	}
	for hi/lo > 1+b.cfg.RateResolution {
		mid := math.Sqrt(lo * hi)
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// calibrate measures closed-loop capacity over NumCPU connections: the
// basis of each workload's frozen nominal rate, a third of the lowest
// capacity seen.
func (b *bench) calibrate() error {
	s, _, err := b.generation("store", 1, nil)
	if err != nil {
		return err
	}
	defer s.stop()
	if err := b.warm(s); err != nil {
		return err
	}
	var wall time.Duration
	done := 0
	for wall < time.Duration(b.seconds)*time.Second {
		reqs := b.w.stream.take(500)
		if err := b.oracle.ensure(reqs); err != nil {
			return err
		}
		runtime.GC()
		p := b.load.closedLoop(s.base, reqs)
		b.tally(p)
		if b.failed > 0 {
			return fmt.Errorf("%d of %d calibration requests failed", b.failed, b.attempted)
		}
		wall += p.wall
		done += len(p.samples)
	}
	capacity := float64(done) / wall.Seconds()
	b.logf("calibrate %s conns=%d requests=%d capacity_rps=%.1f nominal_rps=%.1f",
		b.w.name, b.conns, done, capacity, capacity/3)
	return nil
}
