package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func jitterPipeline(j float64) []JitterStage {
	return []JitterStage{
		{Stage: StageHz("sensor", units.Hertz(60)), Jitter: j},
		{Stage: StageHz("compute", units.Hertz(178)), Jitter: j},
		{Stage: StageHz("control", units.Hertz(1000)), Jitter: 0},
	}
}

func TestSimulateJitterZeroMatchesDeterministic(t *testing.T) {
	res, err := SimulateJitter(jitterPipeline(0), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Without jitter the mean rate equals the Eq. 3 rate (60 Hz).
	if math.Abs(res.MeanThroughput.Hertz()-60) > 0.6 {
		t.Errorf("jitterless throughput = %v, want 60", res.MeanThroughput)
	}
	// And the latency distribution is a point mass: p50 == p99.
	if math.Abs(res.P50Latency.Seconds()-res.P99Latency.Seconds()) > 1e-9 {
		t.Errorf("jitterless p50 %v != p99 %v", res.P50Latency, res.P99Latency)
	}
}

func TestSimulateJitterDegradesWorstCase(t *testing.T) {
	res, err := SimulateJitter(jitterPipeline(0.3), 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The mean rate stays near 60 Hz but the worst interval is longer
	// than the mean period — the conservative action rate drops.
	if res.MeanThroughput.Hertz() < 50 || res.MeanThroughput.Hertz() > 70 {
		t.Errorf("mean throughput = %v, want ≈60", res.MeanThroughput)
	}
	eff := res.EffectiveActionRate().Hertz()
	if eff >= res.MeanThroughput.Hertz() {
		t.Errorf("effective rate %v not below mean %v under jitter", eff, res.MeanThroughput)
	}
	// ±30 % jitter on a 16.7 ms stage: worst interval below 1.3× mean
	// period... must be within the jitter bound (≤ 1.3/0.7 of mean).
	if eff < 60*0.7/1.3 {
		t.Errorf("effective rate %v implausibly low", eff)
	}
	// Tail latency exceeds the median.
	if res.P99Latency <= res.P50Latency {
		t.Errorf("p99 %v not above p50 %v", res.P99Latency, res.P50Latency)
	}
}

func TestSimulateJitterDeterministicBySeed(t *testing.T) {
	a, err := SimulateJitter(jitterPipeline(0.2), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateJitter(jitterPipeline(0.2), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed differs: %+v vs %+v", a, b)
	}
	c, err := SimulateJitter(jitterPipeline(0.2), 1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

func TestSimulateJitterValidation(t *testing.T) {
	if _, err := SimulateJitter(nil, 100, 1); err == nil {
		t.Error("empty stages accepted")
	}
	if _, err := SimulateJitter(jitterPipeline(0.2), 5, 1); err == nil {
		t.Error("tiny n accepted")
	}
	bad := jitterPipeline(0.2)
	bad[0].Jitter = 1.5
	if _, err := SimulateJitter(bad, 100, 1); err == nil {
		t.Error("jitter ≥ 1 accepted")
	}
	dead := jitterPipeline(0.2)
	dead[1].Stage = StageHz("compute", 0)
	if _, err := SimulateJitter(dead, 100, 1); err == nil {
		t.Error("infinite-latency stage accepted")
	}
	zero := jitterPipeline(0.2)
	zero[1].Stage = Stage{Name: "compute", Latency: 0}
	if _, err := SimulateJitter(zero, 100, 1); err == nil {
		t.Error("zero-latency stage accepted")
	}
}

// More jitter never improves the worst interval (monotone degradation).
func TestJitterMonotoneWorstCaseProperty(t *testing.T) {
	prop := func(j1, j2 float64) bool {
		a := math.Mod(math.Abs(j1), 0.5)
		b := math.Mod(math.Abs(j2), 0.5)
		if a > b {
			a, b = b, a
		}
		ra, err := SimulateJitter(jitterPipeline(a), 2000, 11)
		if err != nil {
			return false
		}
		rb, err := SimulateJitter(jitterPipeline(b), 2000, 11)
		if err != nil {
			return false
		}
		// Allow a hair of slack: different jitter scales resample the
		// same RNG stream.
		return rb.WorstInterval >= ra.WorstInterval-units.Seconds(1e-4)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(vals, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(vals, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if p := percentile(vals, 0.01); p != 1 {
		t.Errorf("p1 = %v, want 1", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
	// Selection on any order picks what the sorted oracle picks.
	shuffled := []float64{7, 3, 10, 1, 9, 2, 8, 5, 4, 6}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		if got, want := selectNth(shuffled, nearestRank(len(shuffled), p)), percentile(vals, p); got != want {
			t.Errorf("selectNth at p=%v = %v, want %v", p, got, want)
		}
	}
}

// TestSelectNthMatchesSort checks selection against sort.Float64s on
// random slices with heavy ties, NaNs and infinities, at every rank.
func TestSelectNthMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 2, -1}
	for trial := 0; trial < 300; trial++ {
		a := make([]float64, 1+r.Intn(60))
		for i := range a {
			if r.Intn(2) == 0 {
				a[i] = pool[r.Intn(len(pool))]
			} else {
				a[i] = r.NormFloat64()
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for k := range a {
			work := append([]float64(nil), a...)
			if got := selectNth(work, k); math.Float64bits(got) != math.Float64bits(sorted[k]) {
				t.Fatalf("trial %d: selectNth(%v, %d) = %v, want %v", trial, a, k, got, sorted[k])
			}
		}
	}
}

// simulateJitterOracle is the sort-and-append formulation of
// SimulateJitterContext that the pooled, selecting one replaced, kept
// verbatim as the differential oracle.
func simulateJitterOracle(ctx context.Context, stages []JitterStage, n int, seed int64) (StochasticResult, error) {
	if len(stages) == 0 {
		return StochasticResult{}, fmt.Errorf("pipeline: no stages")
	}
	if n < 20 {
		return StochasticResult{}, fmt.Errorf("pipeline: jitter simulation needs ≥20 samples, got %d", n)
	}
	for _, s := range stages {
		if s.Latency <= 0 || math.IsInf(s.Latency.Seconds(), 1) {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q needs a positive finite latency", s.Name)
		}
		if s.Jitter < 0 || s.Jitter >= 1 {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q jitter must be in [0,1), got %v", s.Name, s.Jitter)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ns := len(stages)
	prev := make([]float64, ns+1)
	cur := make([]float64, ns+1)
	warm := n / 10
	var outs []float64
	var latencies []float64
	for k := 0; k < n; k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return StochasticResult{}, err
			}
		}
		if k > 0 {
			cur[0] = prev[1]
		} else {
			cur[0] = 0
		}
		entry := cur[0]
		for i := 0; i < ns; i++ {
			mean := stages[i].Latency.Seconds()
			lat := mean * (1 + stages[i].Jitter*(2*rng.Float64()-1))
			done := cur[i] + lat
			if i < ns-1 && prev[i+2] > done {
				done = prev[i+2] // blocked by the next stage
			}
			cur[i+1] = done
		}
		prev, cur = cur, prev
		if k >= warm {
			outs = append(outs, prev[ns])
			latencies = append(latencies, prev[ns]-entry)
		}
	}
	res := StochasticResult{}
	if len(outs) >= 2 {
		span := outs[len(outs)-1] - outs[0]
		if span > 0 {
			res.MeanThroughput = units.Hertz(float64(len(outs)-1) / span)
		}
		worst := 0.0
		for i := 1; i < len(outs); i++ {
			if gap := outs[i] - outs[i-1]; gap > worst {
				worst = gap
			}
		}
		res.WorstInterval = units.Seconds(worst)
	}
	sort.Float64s(latencies)
	res.P50Latency = units.Seconds(percentile(latencies, 0.50))
	res.P99Latency = units.Seconds(percentile(latencies, 0.99))
	return res, nil
}

// percentile returns the p-quantile of sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// jitterCase is one differential input.
type jitterCase struct {
	stages []JitterStage
	n      int
	seed   int64
}

// randomJitterCases draws count seeded inputs: 1–6 stages with means
// from microseconds to seconds (and, rarely, ~1e305 s so the clock
// overflows to Inf and latencies go NaN), jitter 0 or up to 0.99,
// n in [20, 2000], and seeds that are 0, negative, above MaxInt32 or
// anywhere in int64.
func randomJitterCases(r *rand.Rand, count int) []jitterCase {
	cases := make([]jitterCase, count)
	for c := range cases {
		stages := make([]JitterStage, 1+r.Intn(6))
		for i := range stages {
			mean := math.Pow(10, -6+6*r.Float64())
			if r.Intn(40) == 0 {
				mean = 1e305
			}
			jitter := 0.0
			if r.Intn(4) != 0 {
				jitter = 0.99 * r.Float64()
			}
			stages[i] = JitterStage{Stage: Stage{Name: fmt.Sprintf("s%d", i), Latency: units.Seconds(mean)}, Jitter: jitter}
		}
		var seed int64
		switch r.Intn(4) {
		case 0:
			seed = 0
		case 1:
			seed = -1 - r.Int63n(math.MaxInt32)
		case 2:
			seed = math.MaxInt32 + 1 + r.Int63n(math.MaxInt64-math.MaxInt32)
		default:
			seed = r.Int63() - r.Int63()
		}
		cases[c] = jitterCase{stages: stages, n: 20 + r.Intn(1981), seed: seed}
	}
	return cases
}

func sameStochastic(a, b StochasticResult) bool {
	return math.Float64bits(a.MeanThroughput.Hertz()) == math.Float64bits(b.MeanThroughput.Hertz()) &&
		math.Float64bits(a.P50Latency.Seconds()) == math.Float64bits(b.P50Latency.Seconds()) &&
		math.Float64bits(a.P99Latency.Seconds()) == math.Float64bits(b.P99Latency.Seconds()) &&
		math.Float64bits(a.WorstInterval.Seconds()) == math.Float64bits(b.WorstInterval.Seconds())
}

func checkAgainstOracle(t *testing.T, c jitterCase) {
	t.Helper()
	want, werr := simulateJitterOracle(context.Background(), c.stages, c.n, c.seed)
	got, gerr := SimulateJitterContext(context.Background(), c.stages, c.n, c.seed)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("n=%d seed=%d: error %v, oracle %v", c.n, c.seed, gerr, werr)
	}
	if !sameStochastic(got, want) {
		t.Fatalf("n=%d seed=%d stages=%+v:\n got  %+v\n want %+v", c.n, c.seed, c.stages, got, want)
	}
}

// TestSimulateJitterMatchesOracle is the differential property: the
// pooled, selecting simulator equals the sort-and-append oracle bit
// for bit on every StochasticResult field.
func TestSimulateJitterMatchesOracle(t *testing.T) {
	for _, c := range randomJitterCases(rand.New(rand.NewSource(16)), 400) {
		checkAgainstOracle(t, c)
	}
	// The dse evaluator's exact shape, and the n=20 floor.
	for _, c := range []jitterCase{{jitterPipeline(0.3), 400, 7}, {jitterPipeline(0), 20, 1}, {jitterPipeline(0.2), 20, math.MinInt64}} {
		checkAgainstOracle(t, c)
	}
}

// cancelAfter is a context whose Err reports cancellation from the
// given probe on, so a simulation is abandoned mid-run.
type cancelAfter struct {
	context.Context
	probes, at int
}

func (c *cancelAfter) Err() error {
	c.probes++
	if c.probes > c.at {
		return context.Canceled
	}
	return nil
}

// TestSimulateJitterCancelledScratchIsReusable abandons simulations at
// the first and at a later cancellation probe, leaving the pooled
// scratch half written, and checks the next call still equals the
// oracle.
func TestSimulateJitterCancelledScratchIsReusable(t *testing.T) {
	stages := jitterPipeline(0.3)
	want, err := simulateJitterOracle(context.Background(), stages, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, 3, 15} {
		ctx := &cancelAfter{Context: context.Background(), at: at}
		if _, err := SimulateJitterContext(ctx, stages, 1000, 99); err != context.Canceled {
			t.Fatalf("cancel at probe %d: err = %v, want context.Canceled", at, err)
		}
		got, err := SimulateJitterContext(context.Background(), stages, 1000, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameStochastic(got, want) {
			t.Fatalf("after a cancel at probe %d: got %+v, want %+v", at, got, want)
		}
	}
}

// TestSimulateJitterConcurrentMatchesOracle runs differential cases
// from several goroutines at once (run under -race), so pooled
// scratches are shared across goroutines and sizes interleave.
func TestSimulateJitterConcurrentMatchesOracle(t *testing.T) {
	cases := randomJitterCases(rand.New(rand.NewSource(61)), 48)
	want := make([]StochasticResult, len(cases))
	for i, c := range cases {
		var err error
		if want[i], err = simulateJitterOracle(context.Background(), c.stages, c.n, c.seed); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := g; i < len(cases)+g; i++ {
					c := cases[i%len(cases)]
					got, err := SimulateJitterContext(context.Background(), c.stages, c.n, c.seed)
					if err != nil || !sameStochastic(got, want[i%len(cases)]) {
						errs <- fmt.Errorf("goroutine %d case %d: got %+v (%v), want %+v", g, i%len(cases), got, err, want[i%len(cases)])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSimulateJitterAllocationFree gates the per-candidate cost of the
// Monte-Carlo evaluator: after warm-up, a simulation at the evaluator's
// shape (three stages, 400 samples) allocates nothing.
func TestSimulateJitterAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	stages := jitterPipeline(0.3)
	ctx := context.Background()
	if _, err := SimulateJitterContext(ctx, stages, 400, 1); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		if _, err := SimulateJitterContext(ctx, stages, 400, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SimulateJitterContext allocates %v times per call, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool
