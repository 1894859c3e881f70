package core

import (
	"context"
	"sync"
	"testing"
)

// singleLockCache is the pre-sharding implementation — one RWMutex over
// one map with generation clearing — kept here as the benchmark
// baseline for the sharded cache's hit path, so the price of the
// shards against one lock is reproducible in a single run:
//
//	go test -run NONE -bench CacheAnalyze -benchmem -cpu 1,4 ./internal/core
type singleLockCache struct {
	mu    sync.RWMutex
	m     map[Config]Analysis
	limit int
}

func (c *singleLockCache) AnalyzeContext(_ context.Context, cfg Config) (Analysis, error) {
	if !memoizable(cfg) {
		return Analyze(cfg)
	}
	c.mu.RLock()
	an, ok := c.m[cfg]
	c.mu.RUnlock()
	if ok {
		return an, nil
	}
	an, err := Analyze(cfg)
	if err != nil {
		return an, err
	}
	c.mu.Lock()
	if len(c.m) >= c.limit {
		clear(c.m)
	}
	c.m[cfg] = an
	c.mu.Unlock()
	return an, nil
}

// benchConfigs builds a working set of n distinct memoizable configs.
func benchConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = memoTestConfig("bench", float64(100+i))
	}
	return cfgs
}

type analyzer interface {
	AnalyzeContext(context.Context, Config) (Analysis, error)
}

// benchCacheHits drives an all-hits workload — the steady state of a
// server replaying popular configurations — through cache. With
// -cpu 1,4 it contrasts the uncontended cost against lock contention.
func benchCacheHits(b *testing.B, cache analyzer, cfgs []Config) {
	b.Helper()
	ctx := context.Background()
	for _, cfg := range cfgs { // pre-warm: the measured loop only hits
		if _, err := cache.AnalyzeContext(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := cache.AnalyzeContext(ctx, cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkCacheAnalyzeHitSharded measures the sharded cache's hit
// path. Compare against ...HitSingleLock at the same -cpu: that fixture
// is the floor for one lock, since it bounds memory only by wholesale
// clearing; a single lock that evicts entry by entry is slower still
// once readers contend.
func BenchmarkCacheAnalyzeHitSharded(b *testing.B) {
	benchCacheHits(b, NewCacheLimit(1024), benchConfigs(256))
}

// BenchmarkCacheAnalyzeHitSingleLock is the pre-sharding baseline on
// the identical workload.
func BenchmarkCacheAnalyzeHitSingleLock(b *testing.B) {
	benchCacheHits(b, &singleLockCache{m: make(map[Config]Analysis), limit: 1024}, benchConfigs(256))
}

// BenchmarkCacheEvictionChurn measures the miss+insert+evict path: the
// working set is 4× the capacity, so (nearly) every lookup analyzes,
// inserts and evicts. The old cache amortized this with a wholesale
// clear; the sharded cache deletes one arbitrary entry per insert into
// a full shard instead of periodically dropping the whole working set.
func BenchmarkCacheEvictionChurn(b *testing.B) {
	cfgs := benchConfigs(512)
	c := NewCacheLimit(128)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.AnalyzeContext(ctx, cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	if c.Len() > 128 {
		b.Fatalf("cache exceeded its limit: %d", c.Len())
	}
}
