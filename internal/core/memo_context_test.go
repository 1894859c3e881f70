package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheAnalyzeContextCancelledFollower is the stalled-leader /
// cancelled-follower regression: a follower coalesced onto a leader's
// in-flight analysis must abandon the wait with its own ctx.Err() when
// its request dies first — while the leader, unaffected, completes and
// fills the cache for everyone after.
func TestCacheAnalyzeContextCancelledFollower(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var analyses atomic.Int64
	orig := analyzeFn
	analyzeFn = func(cfg Config) (Analysis, error) {
		analyses.Add(1)
		entered <- struct{}{}
		<-release // stall the leader mid-flight
		return orig(cfg)
	}
	defer func() { analyzeFn = orig }()

	c := NewCache()
	cfg := memoTestConfig("ctx-follower", 300)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeContext(context.Background(), cfg) // uncancellable leader
		leaderDone <- err
	}()
	<-entered // the leader is in flight and registered

	// A follower with a cancellable context joins the flight, then its
	// request is cancelled while the leader is still stalled.
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeContext(ctx, cfg)
		followerDone <- err
	}()
	// Wait until the follower has actually coalesced before cancelling,
	// so the test exercises the in-wait select, not the lock-step path.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced onto the leader's flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled follower still waiting on the stalled leader")
	}

	// The leader was unaffected: release it, it completes and fills.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	if !c.contains(cfg) {
		t.Fatal("leader did not fill the cache after follower abandonment")
	}
	// The next caller hits; no second analysis ever ran.
	if _, err := c.AnalyzeContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if n := analyses.Load(); n != 1 {
		t.Fatalf("analysis ran %d times, want exactly 1", n)
	}
}

// TestCacheAnalyzeContextUncancelledMatchesAnalyze: with a background
// context the context-aware path is behaviorally identical to Analyze.
func TestCacheAnalyzeContextUncancelledMatchesAnalyze(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("ctx-plain", 310)
	got, err := c.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("AnalyzeContext diverges from direct Analyze")
	}
	if c.Stats().Hits != 0 || c.Stats().Misses != 1 {
		t.Fatalf("unexpected stats after first lookup: %+v", c.Stats())
	}
}

// scoredTestFill returns a scored miss fill over cfg — the partial
// combine the exploration engine uses, plus one metric column — and the
// counter of its runs.
func scoredTestFill(cfg Config) (func() (Analysis, []float64, error), *atomic.Int64) {
	var fills atomic.Int64
	return func() (Analysis, []float64, error) {
		fills.Add(1)
		p := PrecomputeModel(cfg)
		an, err := AnalyzeWithPartial(&p, cfg.Name,
			PrecomputeStage(cfg.SensorRate), PrecomputeStage(cfg.ComputeRate), PrecomputeStage(cfg.ControlRate))
		return an, []float64{float64(an.SafeVelocity) / 2}, err
	}, &fills
}

// TestCacheAnalyzeScoredContextFunc pins the caller-supplied-fill
// contract: the fill runs once per key and is shared by later calls,
// errors are never cached, and nil/CacheOff caches pass through to the
// fill without retaining anything.
func TestCacheAnalyzeScoredContextFunc(t *testing.T) {
	ctx := context.Background()
	t.Run("fill_runs_once", func(t *testing.T) {
		c := NewCache()
		cfg := memoTestConfig("scored-fill", 320)
		key := ScoreKey{Cfg: cfg, Objective: "half-velocity", Seed: 7}
		fill, fills := scoredTestFill(cfg)
		first, metrics, err := c.AnalyzeScoredContextFunc(ctx, key, fill)
		if err != nil {
			t.Fatal(err)
		}
		if fills.Load() != 1 {
			t.Fatalf("fill ran %d times on the first miss, want 1", fills.Load())
		}
		want, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatal("fill result diverges from direct Analyze")
		}
		// Hit path: the fill does not run again and the metrics are the
		// cached ones.
		second, again, err := c.AnalyzeScoredContextFunc(ctx, key, fill)
		if err != nil {
			t.Fatal(err)
		}
		if fills.Load() != 1 {
			t.Fatalf("fill re-ran on a hit (%d runs)", fills.Load())
		}
		if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(metrics, again) {
			t.Fatal("hit diverges from the filled entry")
		}
		// Another seed is another entry; the zero objective is the entry
		// plain AnalyzeContext shares.
		if _, _, err := c.AnalyzeScoredContextFunc(ctx, ScoreKey{Cfg: cfg, Objective: key.Objective, Seed: 8}, fill); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.AnalyzeScoredContextFunc(ctx, ScoreKey{Cfg: cfg}, fill); err != nil {
			t.Fatal(err)
		}
		if fills.Load() != 3 {
			t.Fatalf("fill ran %d times over three keys, want 3", fills.Load())
		}
		if _, err := c.AnalyzeContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Fills != 3 || st.Hits != 2 {
			t.Fatalf("plain AnalyzeContext did not hit the zero-objective entry: %+v", st)
		}
	})
	t.Run("errors_not_cached", func(t *testing.T) {
		c := NewCache()
		cfg := memoTestConfig("scored-err", 330)
		key := ScoreKey{Cfg: cfg, Objective: "half-velocity"}
		boom := errors.New("fill failed")
		if _, _, err := c.AnalyzeScoredContextFunc(ctx, key, func() (Analysis, []float64, error) {
			return Analysis{}, nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("got %v, want the fill's error", err)
		}
		if c.Len() != 0 {
			t.Fatal("failed fill was cached")
		}
		// A later successful fill works.
		fill, _ := scoredTestFill(cfg)
		if _, _, err := c.AnalyzeScoredContextFunc(ctx, key, fill); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.LookupScored(key); !ok {
			t.Fatal("successful retry was not cached")
		}
	})
	t.Run("pass_through", func(t *testing.T) {
		cfg := memoTestConfig("scored-off", 340)
		key := ScoreKey{Cfg: cfg, Objective: "half-velocity"}
		for _, c := range []*Cache{nil, CacheOff()} {
			fill, fills := scoredTestFill(cfg)
			an, metrics, err := c.AnalyzeScoredContextFunc(ctx, key, fill)
			if err != nil {
				t.Fatal(err)
			}
			if fills.Load() != 1 {
				t.Fatalf("pass-through ran fill %d times, want 1", fills.Load())
			}
			want, wantMetrics, _ := fill()
			if !reflect.DeepEqual(an, want) || !reflect.DeepEqual(metrics, wantMetrics) {
				t.Fatal("pass-through fill result diverges")
			}
			if c.Len() != 0 {
				t.Fatal("pass-through cache retained an entry")
			}
		}
	})
}

// TestCacheLookup: LookupScored hits return the entry with its metrics
// and count as hits; absences — including the same Config under another
// objective — return false without counting a miss (the follow-up fill
// records it).
func TestCacheLookup(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("lookup", 350)
	key := ScoreKey{Cfg: cfg, Objective: "half-velocity"}
	if _, _, ok := c.LookupScored(key); ok {
		t.Fatal("LookupScored hit an empty cache")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("LookupScored absence perturbed counters: %+v", st)
	}
	fill, _ := scoredTestFill(cfg)
	want, wantMetrics, err := c.AnalyzeScoredContextFunc(context.Background(), key, fill)
	if err != nil {
		t.Fatal(err)
	}
	got, metrics, ok := c.LookupScored(key)
	if !ok {
		t.Fatal("LookupScored missed a cached entry")
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(metrics, wantMetrics) {
		t.Fatal("LookupScored result diverges from the cached entry")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("unexpected counters after hit: %+v", st)
	}
	if _, _, ok := c.LookupScored(ScoreKey{Cfg: cfg, Objective: "other"}); ok {
		t.Fatal("LookupScored hit under another objective")
	}
	// Nil and pass-through caches never hit.
	if _, _, ok := (*Cache)(nil).LookupScored(key); ok {
		t.Fatal("nil cache LookupScored hit")
	}
	if _, _, ok := CacheOff().LookupScored(key); ok {
		t.Fatal("CacheOff LookupScored hit")
	}
}

// TestCacheMemoizes pins the Memoizes predicate across the cache kinds.
func TestCacheMemoizes(t *testing.T) {
	if (*Cache)(nil).Memoizes() {
		t.Fatal("nil cache claims to memoize")
	}
	if CacheOff().Memoizes() {
		t.Fatal("CacheOff claims to memoize")
	}
	if (&Cache{}).Memoizes() {
		t.Fatal("zero cache claims to memoize")
	}
	if !NewCache().Memoizes() {
		t.Fatal("NewCache does not claim to memoize")
	}
}
