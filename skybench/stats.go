package main

import (
	"math"
	"slices"
	"time"
)

// quantile is the nearest-rank q-quantile of vs (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDuration is the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowed splits ss (in schedule order) into as many windows of at
// least minPer requests as fit, up to maxWindows, and returns the
// median over the windows of each window's q-quantile of f over its
// successful requests. Every window's p99 thus has at least minPer/100
// samples beyond it, and a few seconds of outside contention move one
// window rather than the result.
func windowed(ss []sample, minPer, maxWindows int, q float64, f func(sample) time.Duration) float64 {
	n := max(1, min(maxWindows, len(ss)/minPer))
	var per []float64
	for w := range n {
		var vs []float64
		for _, s := range ss[w*len(ss)/n : (w+1)*len(ss)/n] {
			if !s.failed {
				vs = append(vs, ms(f(s)))
			}
		}
		if len(vs) > 0 {
			per = append(per, quantile(vs, q))
		}
	}
	slices.Sort(per)
	if len(per) == 0 {
		return 0
	}
	if len(per)%2 == 0 {
		return (per[len(per)/2-1] + per[len(per)/2]) / 2
	}
	return per[len(per)/2]
}

// missAllowance is how many of n requests may miss the latency limit
// with the nearest-rank p99 still within it.
func missAllowance(n int) int { return n - int(math.Ceil(0.99*float64(n))) }

// meanWait is the mean generator backlog wait over samples.
func meanWait(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	var t time.Duration
	for _, s := range ss {
		t += s.wait
	}
	return t / time.Duration(len(ss))
}
