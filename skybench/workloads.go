package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand/v2"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
)

// spec is one workload's frozen parameters, read from workloads.json.
// The file also documents each workload (why, loads, bypasses,
// calibration, measured shares); only the fields below drive a run.
type spec struct {
	LatencyLimitMS float64            `json:"latency_limit_ms"`
	NominalRPS     float64            `json:"nominal_rps"`
	WarmupRequests int                `json:"warmup_requests"`
	TraceRequests  int                `json:"trace_requests"`
	Mix            map[string]float64 `json:"mix"`
}

// config is the whole of workloads.json.
type config struct {
	SetupRepeats    int              `json:"setup_repeats"`
	MinNominal      int              `json:"min_nominal_requests"`
	MaxWindows      int              `json:"max_windows"`
	ProbeSeconds    float64          `json:"probe_seconds"`
	ProbeTrials     int              `json:"probe_trials"`
	RateStep        float64          `json:"rate_step"`
	RateResolution  float64          `json:"rate_resolution"`
	MaxProbes       int              `json:"max_probes"`
	StoreLimitBytes int64            `json:"store_limit_bytes"`
	Workloads       map[string]*spec `json:"workloads"`
}

// lateLimit is how late the generator may send (p99, given a free
// connection) before a phase is not the load it claims to be: a quarter
// of the workload's latency limit.
func (s *spec) lateLimit() time.Duration {
	return time.Duration(s.LatencyLimitMS / 4 * float64(time.Millisecond))
}

//go:embed workloads.json
var configJSON []byte

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

// names lists the configured workloads in sorted order.
func (c *config) names() []string {
	return slices.Sorted(maps.Keys(c.Workloads))
}

// request is one generated request: the path and query the server
// receives, the mix class it was drawn from and, for a constraint
// tightened stream, the URL of the stored superset it filters.
type request struct {
	URL      string
	Class    string
	Superset string
}

func (r request) path() string {
	if i := strings.IndexByte(r.URL, '?'); i >= 0 {
		return r.URL[:i]
	}
	return r.URL
}

// workload binds a spec to its catalog, its store mode and its request
// generator.
type workload struct {
	name string
	spec *spec
	// newCatalog builds the served catalog (timed as part of set-up).
	newCatalog func() *catalog.Catalog
	// store reports whether the served server has a result store.
	store bool
	// fill lists the URLs a first server generation serves, untimed,
	// to populate the store before the timed restart (nil = no fill).
	fill []request
	// stream yields the request list: warm-up first, then the timed
	// phases in order. It is a pure function of (workload, seed).
	stream *stream
}

// stream is an endless, deterministic request sequence.
type stream struct {
	prefix []request
	next   func() request
	i      int
}

// take returns the next n requests of the sequence.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for k := range out {
		if s.i < len(s.prefix) {
			out[k] = s.prefix[s.i]
		} else {
			out[k] = s.next()
		}
		s.i++
	}
	return out
}

// rngFor derives an independent generator for (workload, seed, purpose).
func rngFor(workload string, seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// classPicker draws a mix class by weight, in a fixed class order.
type classPicker struct {
	names []string
	cum   []float64
}

func newClassPicker(mix map[string]float64) classPicker {
	var p classPicker
	for name := range mix {
		p.names = append(p.names, name)
	}
	slices.Sort(p.names)
	total := 0.0
	for _, n := range p.names {
		total += mix[n]
		p.cum = append(p.cum, total)
	}
	for i := range p.cum {
		p.cum[i] /= total
	}
	return p
}

func (p classPicker) pick(r *rand.Rand) string {
	u := r.Float64()
	i, _ := slices.BinarySearch(p.cum, u)
	return p.names[min(i, len(p.names)-1)]
}

// zipf draws an index in [0,n) with probability ∝ 1/(i+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z zipf) draw(r *rand.Rand) int {
	i, _ := slices.BinarySearch(z.cum, r.Float64())
	return min(i, len(z.cum)-1)
}

// subset picks k of names at random, kept in catalog order.
func subset(r *rand.Rand, names []string, k int) []string {
	idx := r.Perm(len(names))[:k]
	slices.Sort(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = names[j]
	}
	return out
}

func between(r *rand.Rand, lo, hi int) int { return lo + r.IntN(hi-lo+1) }

// slice is one axis subset of a design space.
type slice struct{ uavs, computes, algos []string }

func (s slice) size() int { return len(s.uavs) * len(s.computes) * len(s.algos) }

func (s slice) query() url.Values {
	q := url.Values{}
	q.Set("uav", strings.Join(s.uavs, ","))
	q.Set("compute", strings.Join(s.computes, ","))
	q.Set("algorithm", strings.Join(s.algos, ","))
	return q
}

// sizedSlice draws a random axis subset of about target candidates
// (within 10%) with between uLo and uHi UAVs. Sizes come from the
// caller's fixed ladder, so a pool's total work does not depend on the
// seed — only which catalog members each request names does.
func sizedSlice(r *rand.Rand, cat *catalog.Catalog, uLo, uHi, target int) slice {
	us, cs, as := cat.UAVNames(), cat.ComputeNames(), cat.AlgorithmNames()
	for {
		nu := between(r, uLo, uHi)
		nc := between(r, 1, len(cs))
		na := int(math.Round(float64(target) / float64(nu*nc)))
		if na < 1 || na > len(as) || math.Abs(float64(nu*nc*na-target)) > 0.1*float64(target) {
			continue
		}
		return slice{uavs: subset(r, us, nu), computes: subset(r, cs, nc), algos: subset(r, as, na)}
	}
}

// ladder is the k-th of n sizes spread evenly over [lo, hi].
func ladder(k, n, lo, hi int) int {
	if n < 2 {
		return lo
	}
	return lo + (hi-lo)*k/(n-1)
}

// geoLadder is the k-th of n sizes spread geometrically over [lo, hi]:
// as many small responses as large ones per doubling of size.
func geoLadder(k, n, lo, hi int) int {
	if n < 2 {
		return lo
	}
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), float64(k)/float64(n-1))))
}

// golden is a low-discrepancy sequence in [0,1): successive draws cover
// the interval evenly, so a run's mix of sizes and objectives does not
// drift with the seed; the seed sets the starting offset.
type golden struct{ x float64 }

func (g *golden) next() float64 {
	g.x = math.Mod(g.x+0.6180339887498949, 1)
	return g.x
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// synthetic is the 1280-candidate catalog behind three workloads.
func synthetic() *catalog.Catalog { return catalog.Synthetic(5, 16, 16) }

// newWorkload builds the named workload for one seed.
func newWorkload(cfg *config, name string, seed int64) (*workload, error) {
	sp := cfg.Workloads[name]
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(cfg.names(), ", "))
	}
	w := &workload{name: name, spec: sp}
	switch name {
	case "explore-stream":
		w.newCatalog = synthetic
		w.stream = exploreStream(sp, seed)
	case "select-warm":
		w.newCatalog = synthetic
		w.store = true
		w.fill, w.stream = selectWarm(sp, seed)
	case "mission-score":
		w.newCatalog = synthetic
		w.store = true
		w.stream = missionScore(sp, seed)
	case "interactive":
		w.newCatalog = catalog.Default
		w.stream = interactive(sp, seed)
	default:
		return nil, fmt.Errorf("workload %q has no generator", name)
	}
	return w, nil
}

// exploreStream: streaming /explore over a seeded pool of random axis
// subsets of the synthetic space, half of them tightened by a small
// min_velocity_ms. The full space is requested first so the
// warm-up fills the analysis cache with all 1280 candidates.
func exploreStream(sp *spec, seed int64) *stream {
	cat := synthetic()
	r := rngFor("explore-stream", seed, "pool")
	pool := map[string][]request{}
	for k := range 48 {
		s := sizedSlice(r, cat, 1, 5, geoLadder(k, 48, 100, 1280))
		pool["stream"] = append(pool["stream"], request{URL: "/explore?" + s.query().Encode(), Class: "stream"})
	}
	for k := range 48 {
		q := sizedSlice(r, cat, 1, 5, geoLadder(k, 48, 100, 1280)).query()
		q.Set("min_velocity_ms", fmtFloat(0.5+r.Float64()))
		pool["stream-min-velocity"] = append(pool["stream-min-velocity"], request{URL: "/explore?" + q.Encode(), Class: "stream-min-velocity"})
	}
	pick := newClassPicker(sp.Mix)
	d := rngFor("explore-stream", seed, "draws")
	return &stream{
		prefix: []request{{URL: "/explore", Class: "stream"}},
		next: func() request {
			p := pool[pick.pick(d)]
			return p[d.IntN(len(p))]
		},
	}
}

// selectWarm: a fixed pool of selection requests over the synthetic
// space, drawn Zipf-like within each class. The fill generation serves
// every pool entry except the constrained streams, so in the timed
// restart those are answered by filtering their stored superset.
func selectWarm(sp *spec, seed int64) ([]request, *stream) {
	cat := synthetic()
	r := rngFor("select-warm", seed, "pool")
	pool := map[string][]request{}
	add := func(class, path string, q url.Values, superset string) request {
		req := request{URL: path + "?" + q.Encode(), Class: class, Superset: superset}
		pool[class] = append(pool[class], req)
		return req
	}
	ranks := []string{"velocity", "power", "payload", "balance"}
	for range 8 {
		s := sizedSlice(r, cat, 1, 2, 256)
		sup := add("stream", "/explore", s.query(), "")
		for k := range 3 {
			q := s.query()
			if k%2 == 0 {
				q.Set("min_velocity_ms", fmtFloat(1+5*r.Float64()))
			} else {
				q.Set("max_power_w", fmtFloat(5+20*r.Float64()))
			}
			add("filtered", "/explore", q, sup.URL)
		}
	}
	for k := range 24 {
		q := sizedSlice(r, cat, 1, 5, 640).query()
		q.Set("top", strconv.Itoa(5+5*(k%4)))
		q.Set("rank", ranks[r.IntN(len(ranks))])
		add("topk", "/explore", q, "")
	}
	for range 16 {
		q := sizedSlice(r, cat, 1, 5, 640).query()
		pair := r.Perm(len(ranks))[:2]
		q.Set("pareto", ranks[pair[0]]+","+ranks[pair[1]])
		add("pareto", "/explore", q, "")
	}
	objectives := []string{"mission.thermal", "mission.battery", "mission.endurance", "mission.stochastic"}
	for i := range 16 {
		q := sizedSlice(r, cat, 1, 1, 64).query()
		q.Set("objective", objectives[i%len(objectives)])
		q.Set("top", "5")
		add("mission-topk", "/explore", q, "")
	}
	knobs := [][2]string{{"range", "compute"}, {"compute", "payload"}, {"sensor", "range"}, {"payload", "sensor"}}
	bounds := map[string][2]float64{"range": {1, 10}, "compute": {5, 60}, "payload": {0, 400}, "sensor": {5, 120}}
	us, cs, as := cat.UAVNames(), cat.ComputeNames(), cat.AlgorithmNames()
	for i := range 12 {
		k := knobs[i%len(knobs)]
		q := url.Values{}
		q.Set("uav", us[r.IntN(len(us))])
		q.Set("compute", cs[r.IntN(len(cs))])
		q.Set("algorithm", as[r.IntN(len(as))])
		q.Set("x", k[0])
		q.Set("xlo", fmtFloat(bounds[k[0]][0]))
		q.Set("xhi", fmtFloat(bounds[k[0]][1]*(0.8+0.4*r.Float64())))
		q.Set("y", k[1])
		q.Set("ylo", fmtFloat(bounds[k[1]][0]))
		q.Set("yhi", fmtFloat(bounds[k[1]][1]*(0.8+0.4*r.Float64())))
		q.Set("nx", "40")
		q.Set("ny", "30")
		add("grid", "/grid.svg", q, "")
	}
	var fill []request
	zipfs := map[string]zipf{}
	classes := make([]string, 0, len(pool))
	for c := range pool {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	for _, c := range classes {
		if c != "filtered" {
			fill = append(fill, pool[c]...)
		}
		zipfs[c] = newZipf(len(pool[c]), 1.1)
	}
	pick := newClassPicker(sp.Mix)
	d := rngFor("select-warm", seed, "draws")
	return fill, &stream{next: func() request {
		c := pick.pick(d)
		return pool[c][zipfs[c].draw(d)]
	}}
}

// missionScore: top-K or Pareto /explore under one of four mission
// objectives over 16–256-candidate slices. Half the requests reuse a
// (slice, objective, seed) triple of a small warm set, the rest are
// fresh; every request carries a selection not used before in the
// run, so each one misses the store and writes an artifact. The warm
// set is requested first, so the warm-up fills the scored cache.
func missionScore(sp *spec, seed int64) *stream {
	cat := synthetic()
	objectives := []string{"mission.stochastic", "mission.thermal", "mission.battery", "mission.endurance"}
	columns := map[string][]string{
		"mission.stochastic": {"eff_rate_hz", "p99_latency_ms", "mean_rate_hz"},
		"mission.thermal":    {"heatsink_g", "payload_frac", "thrust_margin"},
		"mission.battery":    {"endurance_s", "sag_frac", "draw_w"},
		"mission.endurance":  {"mission_time_s", "mission_energy_j", "battery_margin"},
	}
	type triple struct {
		q    url.Values
		obj  string
		uses int
	}
	r := rngFor("mission-score", seed, "warm-set")
	mk := func(r *rand.Rand, obj string, size int) *triple {
		q := sizedSlice(r, cat, 1, 1, size).query()
		q.Set("objective", obj)
		q.Set("seed", strconv.FormatInt(1+r.Int64N(1<<40), 10))
		return &triple{q: q, obj: obj}
	}
	warm := make([]*triple, 16)
	for i := range warm {
		warm[i] = mk(r, objectives[i%len(objectives)], ladder(i, len(warm), 16, 256))
	}
	// selection maps a triple's use count onto a distinct selection:
	// while the Pareto pairs last, even uses take the next top-K (K = 1,
	// 2, … over every rank) and odd uses the next Pareto pair; after
	// that, top-K continues.
	selection := func(t *triple) url.Values {
		q := url.Values{}
		for k, v := range t.q {
			q[k] = v
		}
		ranks := append(slices.Clone(columns[t.obj]), "velocity", "power", "payload", "balance")
		m := t.uses
		t.uses++
		nPair := len(ranks) * (len(ranks) - 1) / 2
		if m < 2*nPair && m%2 == 1 {
			m /= 2
			for i := range ranks {
				for j := i + 1; j < len(ranks); j++ {
					if m == 0 {
						q.Set("pareto", ranks[i]+","+ranks[j])
					}
					m--
				}
			}
			return q
		}
		k := m - nPair
		if m < 2*nPair {
			k = m / 2
		}
		q.Set("top", strconv.Itoa(1+k/len(ranks)))
		q.Set("rank", ranks[k%len(ranks)])
		return q
	}
	prefix := make([]request, len(warm))
	for i, t := range warm {
		prefix[i] = request{URL: "/explore?" + selection(t).Encode(), Class: "warm-triple"}
	}
	pick := newClassPicker(sp.Mix)
	d := rngFor("mission-score", seed, "draws")
	sizes := golden{x: d.Float64()}
	fresh := 0
	return &stream{prefix: prefix, next: func() request {
		c := pick.pick(d)
		t := warm[d.IntN(len(warm))]
		if c == "fresh-triple" {
			// Fresh triples take the objectives in turn, top-K and
			// Pareto in turn within each objective, and sizes spread
			// evenly over 16–256 candidates.
			t = mk(d, objectives[fresh%len(objectives)], 16+int(240*sizes.next()))
			t.uses = fresh / len(objectives) % 2
			fresh++
		}
		return request{URL: "/explore?" + selection(t).Encode(), Class: c}
	}}
}

// interactive: the Skyline tool's own traffic over the paper's
// catalog: analyses of a Zipf hot set of presets and of fresh custom
// designs, F-1 plots, comparisons, n=200 sweeps and the page itself.
func interactive(sp *spec, seed int64) *stream {
	cat := catalog.Default()
	var presets []catalog.Selection
	for _, u := range cat.UAVNames() {
		for _, c := range cat.ComputeNames() {
			for _, a := range cat.AlgorithmNames() {
				sel := catalog.Selection{UAV: u, Compute: c, Algorithm: a}
				if _, err := cat.BuildConfig(sel); err == nil {
					presets = append(presets, sel)
				}
			}
		}
	}
	r := rngFor("interactive", seed, "hot-set")
	r.Shuffle(len(presets), func(i, j int) { presets[i], presets[j] = presets[j], presets[i] })
	hot := newZipf(len(presets), 1.0)
	pick := newClassPicker(sp.Mix)
	d := rngFor("interactive", seed, "draws")
	preset := func() url.Values {
		s := presets[hot.draw(d)]
		q := url.Values{}
		q.Set("uav", s.UAV)
		q.Set("compute", s.Compute)
		q.Set("algorithm", s.Algorithm)
		return q
	}
	knobs := []struct {
		name   string
		lo, hi float64
		log    bool
	}{{"compute", 1, 200, true}, {"sensor", 5, 240, true}, {"range", 0.5, 12, false}, {"payload", 0, 600, false}}
	return &stream{next: func() request {
		c := pick.pick(d)
		switch c {
		case "analyze-hot":
			return request{URL: "/api/analyze?" + preset().Encode(), Class: c}
		case "analyze-custom":
			q := url.Values{}
			q.Set("mode", "custom")
			q.Set("drone_weight_g", fmtFloat(300+1700*d.Float64()))
			q.Set("rotor_pull_gf", fmtFloat(300+900*d.Float64()))
			q.Set("payload_g", fmtFloat(200*d.Float64()))
			q.Set("sensor_hz", fmtFloat(10+110*d.Float64()))
			q.Set("sensor_range_m", fmtFloat(1+9*d.Float64()))
			q.Set("compute_runtime_s", strconv.FormatFloat(0.002+0.2*d.Float64(), 'f', 4, 64))
			return request{URL: "/api/analyze?" + q.Encode(), Class: c}
		case "plot":
			return request{URL: "/plot.svg?" + preset().Encode(), Class: c}
		case "compare":
			q := url.Values{}
			for range between(d, 2, 4) {
				s := presets[hot.draw(d)]
				q.Add("config", s.UAV+"|"+s.Compute+"|"+s.Algorithm)
			}
			return request{URL: "/api/compare?" + q.Encode(), Class: c}
		case "sweep":
			k := knobs[d.IntN(len(knobs))]
			q := preset()
			q.Set("knob", k.name)
			q.Set("lo", fmtFloat(k.lo))
			q.Set("hi", fmtFloat(k.hi))
			q.Set("n", "200")
			if k.log {
				q.Set("log", "true")
			}
			return request{URL: "/sweep.svg?" + q.Encode(), Class: c}
		default: // "page"
			return request{URL: "/?" + preset().Encode(), Class: "page"}
		}
	}}
}
