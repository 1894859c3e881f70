package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/units"
)

// JitterStage is a pipeline stage whose per-sample latency varies: a
// mean with a uniform ± jitter band (autonomy workloads are input
// dependent — e.g. a planner's time varies with scene clutter). The
// analytic Eq. 3 uses only means; the stochastic simulator shows how
// jitter erodes the achievable action rate and fattens the latency
// tail, which matters when the knee sits close to the mean rate.
type JitterStage struct {
	// Stage carries the name and mean latency.
	Stage
	// Jitter is the half-width of the uniform latency band as a
	// fraction of the mean (0.2 = ±20 %). Must be in [0,1).
	Jitter float64
}

// StochasticResult summarizes a jittered simulation.
type StochasticResult struct {
	// MeanThroughput is the long-run output rate.
	MeanThroughput units.Frequency
	// P50Latency and P99Latency are end-to-end latency percentiles.
	P50Latency units.Latency
	P99Latency units.Latency
	// WorstInterval is the largest observed gap between consecutive
	// outputs — the worst-case decision staleness the controller sees.
	WorstInterval units.Latency
}

// SimulateJitter pushes n samples through an overlapped (blocking
// flow-shop, as in Simulate) pipeline whose stage latencies are drawn
// per sample from each stage's jitter band, using a deterministic
// seeded source. The first 10 % of samples are discarded as warm-up.
func SimulateJitter(stages []JitterStage, n int, seed int64) (StochasticResult, error) {
	return SimulateJitterContext(context.Background(), stages, n, seed)
}

// SimulateJitterContext is SimulateJitter with cancellation checked
// every sample batch, so an abandoned request stops a Monte-Carlo
// simulation mid-candidate instead of draining it. The RNG stream is
// identical to SimulateJitter for the same seed — the cancellation
// probe draws nothing — so results stay byte-deterministic.
func SimulateJitterContext(ctx context.Context, stages []JitterStage, n int, seed int64) (StochasticResult, error) {
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
	sc := jitterScratchPool.Get().(*jitterScratch)
	sc.reserve(len(stages)+1, n-n/10)
	res, err := sc.simulate(ctx, stages, n, seed)
	jitterScratchPool.Put(sc)
	return res, err
}

// jitterScratch is the working set of one simulation, pooled so a
// Monte-Carlo evaluator scoring thousands of candidates allocates
// nothing per call. Every field is overwritten before it is read, so a
// scratch abandoned mid-run (cancellation) is safe to reuse.
type jitterScratch struct {
	// rng is re-seeded per call: (*rand.Rand).Seed on a plain source
	// yields exactly the stream of rand.New(rand.NewSource(seed)).
	rng       *rand.Rand
	prev, cur []float64 // flow-shop completion rows, one slot per stage boundary
	latencies []float64 // end-to-end latency of each post-warm-up sample
}

var jitterScratchPool = sync.Pool{New: func() any {
	return &jitterScratch{rng: rand.New(rand.NewSource(1))}
}}

// reserve sizes the rows to width slots and the latency buffer to m
// samples, reusing the pooled backing arrays when they are big enough.
func (sc *jitterScratch) reserve(width, m int) {
	if cap(sc.prev) < width {
		sc.prev = make([]float64, width)
		sc.cur = make([]float64, width)
	}
	sc.prev, sc.cur = sc.prev[:width], sc.cur[:width]
	if cap(sc.latencies) < m {
		sc.latencies = make([]float64, m)
	}
	sc.latencies = sc.latencies[:m]
}

// simulate is the per-sample loop over validated stages and n ≥ 20.
// It folds the first output, the last output and the largest gap as
// outputs arrive, and selects the two latency percentiles instead of
// sorting. The float operations and their order are those of the
// sort-and-append formulation kept as the tests' oracle, so results
// are bit-identical to it.
//
//reprolint:hotpath
func (sc *jitterScratch) simulate(ctx context.Context, stages []JitterStage, n int, seed int64) (StochasticResult, error) {
	sc.rng.Seed(seed)
	ns := len(stages)
	prev, cur := sc.prev, sc.cur
	clear(prev)
	warm := n / 10
	var first, last, worst float64
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
			lat := mean * (1 + stages[i].Jitter*(2*sc.rng.Float64()-1))
			done := cur[i] + lat
			if i < ns-1 && prev[i+2] > done {
				done = prev[i+2] // blocked by the next stage
			}
			cur[i+1] = done
		}
		prev, cur = cur, prev
		if k >= warm {
			out := prev[ns]
			if k == warm {
				first = out
			} else if gap := out - last; gap > worst {
				worst = gap
			}
			last = out
			sc.latencies[k-warm] = out - entry
		}
	}
	res := StochasticResult{WorstInterval: units.Seconds(worst)}
	m := n - warm
	if span := last - first; span > 0 {
		res.MeanThroughput = units.Hertz(float64(m-1) / span)
	}
	// Selecting p99 leaves every value ranked below it in the prefix,
	// so p50 is selected within that prefix.
	i99 := nearestRank(m, 0.99)
	res.P99Latency = units.Seconds(selectNth(sc.latencies, i99))
	res.P50Latency = units.Seconds(selectNth(sc.latencies[:i99+1], nearestRank(m, 0.50)))
	return res, nil
}

// nearestRank is the 0-based index of the nearest-rank p-quantile
// among n ≥ 1 ordered values.
func nearestRank(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	return min(max(idx, 0), n-1)
}

// selectNth reorders a so that a[k] holds the value sort.Float64s
// would place there (NaNs first), every value before it ordered no
// higher and every value after no lower, and returns it. It is Hoare's
// FIND with the middle element as pivot; runs of equal values split
// evenly, so a jitter-free point mass costs linear time.
func selectNth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for floatLess(a[i], pivot) {
				i++
			}
			for floatLess(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

// floatLess is sort.Float64s's order: NaNs before every number.
func floatLess(x, y float64) bool {
	return x < y || (math.IsNaN(x) && !math.IsNaN(y))
}

// EffectiveActionRate is the conservative decision rate a safety
// analysis should assume under jitter: the reciprocal of the worst
// observed output interval. Feeding this (rather than the mean rate)
// into Eq. 4 keeps the safety guarantee under input-dependent latency.
func (r StochasticResult) EffectiveActionRate() units.Frequency {
	return r.WorstInterval.Frequency()
}
