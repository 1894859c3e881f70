package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Cache memoizes Analyze results keyed on a ScoreKey — the full Config
// value plus the objective (and seed) it was scored under — so repeated
// analyses of the same resolved configuration — a Skyline server
// replaying popular requests, or an Explorer re-scoring a design space
// under one objective — pay the model cost once. The plain
// AnalyzeContext entry point keys on the zero objective; the *Scored
// variants carry an objective's metric columns through the same entry,
// so a configuration scored under two different objectives (or two
// Monte-Carlo seeds) occupies two independent entries and results stay
// byte-deterministic.
//
// The cache is sharded: the Config hashes to one of a power-of-two
// number of independently locked maps, so concurrent exploration
// sweeps spread their lookups instead of contending on a single lock.
// Each shard is bounded: inserting into a full shard evicts one
// arbitrary resident entry. There is no recency order to maintain
// because no served workload fills the cache to its bound; the bound
// only caps memory, and an evicted entry is recomputed to the same
// bytes on its next miss. Misses fill with singleflight: concurrent
// misses of one configuration coalesce onto a single in-flight
// analysis (a per-shard wait registry), so a thundering herd of
// identical requests computes once and shares the result; with
// AnalyzeContext the coalesced wait is context-aware — a follower
// whose own request dies abandons the wait while the leader completes
// and fills. AnalyzeScoredContextFunc accepts a caller-supplied miss
// fill (the exploration engine's scored path fills via its
// precomputed-partial combine plus the objective), and LookupScored
// probes the hit path without committing to a fill. Hits, misses,
// coalesced waits and evictions are counted; Stats returns a snapshot.
//
// Cached Analysis values are shared between callers: treat them as
// read-only (in particular, do not mutate the Ceilings slice of a
// cached result).
//
// A Config is memoizable when its AccelModel's dynamic type is
// comparable (all models in internal/physics are — structs of scalars
// or pointers). Configs carrying a non-comparable model fall through to
// a direct Analyze call rather than panicking on the map insert.
//
// The zero Cache is a valid pass-through that never memoizes (CacheOff
// returns a canonical one); construct with NewCache for a real cache.
// A nil *Cache is likewise legal and simply disables memoization, so
// callers can thread an optional cache without branching.
type Cache struct {
	mask   uint64
	shards []shard
}

// ScoreKey identifies one cached scored analysis: the configuration
// plus the objective that scored it. A Config analyzed under a
// different objective — or a Monte-Carlo objective re-run under a
// different seed — is a different cache entry, so cached metric columns
// can never leak between objectives. The zero Objective/Seed is the
// plain (unscored) F-1 analysis, which every Config-keyed entry point
// uses.
type ScoreKey struct {
	Cfg Config
	// Objective names the evaluator ("" = plain analysis, no metrics).
	Objective string
	// Seed is the evaluator's Monte-Carlo seed (0 for deterministic
	// objectives).
	Seed int64
}

// shard is one independently locked cache segment: a bounded map of
// memoized analyses, and a singleflight registry of analyses currently
// in flight so concurrent misses of one configuration coalesce.
type shard struct {
	mu       sync.Mutex
	entries  map[ScoreKey]entry
	inflight map[ScoreKey]*flight
	// capacity bounds len(entries).
	capacity  int
	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
	fills     uint64
}

// flight is one in-progress analysis. The first miss of a ScoreKey (the
// leader) creates it, computes, then publishes the result and closes
// done; concurrent misses of the same key (followers) wait on done
// and share the leader's result instead of re-analyzing. Errors are
// shared with the waiting followers too — a fill is deterministic in
// its key, so every follower would have hit the same error — but,
// as ever, never cached.
type flight struct {
	done    chan struct{}
	an      Analysis
	metrics []float64
	err     error
}

// entry is one memoized analysis. metrics is the objective's column
// values (nil for the plain analysis); like the Analysis it is shared
// between callers and must be treated as read-only.
type entry struct {
	an      Analysis
	metrics []float64
}

// shardFor routes a key to its segment. The route mixes only the cheap
// scalar knobs (not the airframe or the accel-model interface, which
// would cost a full runtime hash) plus the objective identity:
// correctness never depends on it — every shard map is keyed by the
// complete ScoreKey — only the load spread does, and real design spaces
// vary exactly these knobs. The shard index must be a pure function of
// the key so concurrent lookups of one configuration meet at the same
// lock.
func (c *Cache) shardFor(k ScoreKey) *shard {
	const mix = 0x9E3779B97F4A7C15 // Fibonacci hashing multiplier
	cfg := &k.Cfg
	h := math.Float64bits(float64(cfg.Payload)) ^ uint64(len(cfg.Name))
	h = (h + math.Float64bits(float64(cfg.ComputeRate))) * mix
	h = (h + math.Float64bits(float64(cfg.SensorRate))) * mix
	h += math.Float64bits(float64(cfg.SensorRange))
	h = (h + uint64(len(k.Objective)) + uint64(k.Seed)) * mix
	return &c.shards[(h>>32)&c.mask]
}

// DefaultCacheLimit bounds a NewCache-constructed cache's entry count.
const DefaultCacheLimit = 1 << 16

// maxShards caps the shard count; beyond ~128 segments the lock
// striping gains nothing while the fixed footprint keeps growing.
const maxShards = 128

// NewCache returns an empty cache bounded to DefaultCacheLimit entries.
func NewCache() *Cache { return NewCacheLimit(DefaultCacheLimit) }

// NewCacheLimit returns an empty cache bounded to limit entries
// (limit <= 0 selects DefaultCacheLimit). The limit is distributed
// across the shards, so an individual shard evicts slightly before the
// whole cache is full.
func NewCacheLimit(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	// Enough shards to spread GOMAXPROCS concurrent lookups, but never
	// so many that a shard drops below ~8 entries of churn room.
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	for n > 1 && limit/n < 8 {
		n >>= 1
	}
	c := &Cache{
		mask:   uint64(n - 1),
		shards: make([]shard, n),
	}
	base, rem := limit/n, limit%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < rem {
			sh.capacity++
		}
		sh.entries = make(map[ScoreKey]entry)
		sh.inflight = make(map[ScoreKey]*flight)
	}
	return c
}

// CacheOff returns the canonical pass-through cache: every lookup
// recomputes and nothing is retained. Use it where a *Cache is
// expected but memoization must be off (e.g. a benchmark isolating the
// computation, or a dse.Explorer that must not touch SharedCache).
func CacheOff() *Cache { return &cacheOff }

var cacheOff Cache

// sharedCache is the process-wide cache, created on first use.
var sharedCache atomic.Pointer[Cache]

// SharedCache returns the process-wide analysis cache shared by every
// component that does not bring its own — the Skyline server, the
// experiments runner and default-constructed dse.Explorers — so popular
// configurations are analyzed once per process, not once per subsystem.
func SharedCache() *Cache {
	if c := sharedCache.Load(); c != nil {
		return c
	}
	c := NewCache()
	if sharedCache.CompareAndSwap(nil, c) {
		return c
	}
	return sharedCache.Load()
}

// SetSharedCacheLimit replaces the process-wide cache with a fresh one
// bounded to limit entries (limit <= 0 selects DefaultCacheLimit) and
// returns it. Existing entries and counters are discarded; call it at
// startup (e.g. from a -cache-entries flag), not mid-traffic.
func SetSharedCacheLimit(limit int) *Cache {
	c := NewCacheLimit(limit)
	sharedCache.Store(c)
	return c
}

// analyzeFn computes an analysis on a cache miss. It is a package
// variable only so tests can count or stall the underlying computation;
// production code never reassigns it.
var analyzeFn = Analyze

// AnalyzeContext returns the memoized analysis for cfg, computing and
// caching it on a miss. Concurrent misses of the same configuration
// coalesce: the first caller analyzes while the rest wait for its
// result (singleflight), so a thundering herd of identical requests
// pays the model cost exactly once — the coalesced waits are counted in
// Stats. Errors are never cached (they are cheap to recompute and
// usually indicate a caller bug). Safe for concurrent use.
//
// ctx governs only the singleflight wait: a follower coalesced onto
// another caller's in-flight analysis of the same configuration selects
// on its own ctx and abandons the wait with ctx.Err() when cancelled
// first. The leader is unaffected — it completes its analysis and fills
// the cache for future callers.
// (The leader's own computation is not interrupted by its ctx: analyses
// are pure CPU with no cancellation points, and an abandoned fill would
// strand the coalesced followers.)
func (c *Cache) AnalyzeContext(ctx context.Context, cfg Config) (Analysis, error) {
	an, _, err := c.analyze(ctx, ScoreKey{Cfg: cfg}, nil)
	return an, err
}

// AnalyzeScoredContextFunc is AnalyzeContext over a full ScoreKey with
// a caller-supplied miss fill: on a miss of (Config, objective, seed)
// the fill computes the analysis together with the objective's metric
// columns, and both are cached and shared — like the Analysis, the
// returned metrics slice is read-only. Misses still coalesce: one fill
// runs, followers share it.
// fill must be deterministic in the key, since its result is memoized
// under it and served to every future caller.
func (c *Cache) AnalyzeScoredContextFunc(ctx context.Context, key ScoreKey, fill func() (Analysis, []float64, error)) (Analysis, []float64, error) {
	return c.analyze(ctx, key, fill)
}

// LookupScored peeks for a memoized scored analysis: on a hit it counts
// the hit and returns the analysis together with the objective's cached
// metric columns (nil for the zero objective; the slice is shared —
// read-only). On an absence it returns false without counting a miss —
// the expected follow-up,
// AnalyzeScoredContextFunc, records the miss when it fills. It exists so
// hot loops can keep their miss-fill closure off the hit path.
func (c *Cache) LookupScored(key ScoreKey) (Analysis, []float64, bool) {
	if c == nil || len(c.shards) == 0 || !memoizable(key.Cfg) {
		return Analysis{}, nil, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.hits++
	}
	sh.mu.Unlock()
	return e.an, e.metrics, ok
}

// analyze is the shared implementation behind the Analyze* variants.
// A nil fill means the package-level analyzeFn (i.e. the full Analyze,
// reassignable only by tests), which never produces metrics.
func (c *Cache) analyze(ctx context.Context, key ScoreKey, fill func() (Analysis, []float64, error)) (Analysis, []float64, error) {
	if c == nil || len(c.shards) == 0 || !memoizable(key.Cfg) {
		if fill != nil {
			return fill()
		}
		an, err := Analyze(key.Cfg)
		return an, nil, err
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.hits++
		sh.mu.Unlock()
		return e.an, e.metrics, nil
	}
	sh.misses++
	if f, ok := sh.inflight[key]; ok {
		// A leader is already analyzing this exact key: wait for its
		// result instead of burning a second analysis — but no longer
		// than the follower's own request lives. ctx.Done() is nil for
		// context.Background(), so the uncancellable wait stays a
		// two-way select that can only take the done arm.
		sh.coalesced++
		sh.mu.Unlock()
		select {
		case <-f.done:
			return f.an, f.metrics, f.err
		case <-ctx.Done():
			return Analysis{}, nil, ctx.Err()
		}
	}
	// errFlightAbandoned is what followers see if the leader never
	// publishes — i.e. analyzeFn panicked. It is pre-set and overwritten
	// on every normal path, so it can only escape through a panic.
	f := &flight{done: make(chan struct{}), err: errFlightAbandoned}
	sh.inflight[key] = f
	sh.mu.Unlock()

	// The cleanup is deferred so that a panicking analyzeFn (bad model
	// data) cannot strand the flight: the registry entry would otherwise
	// outlive the leader and every future miss of this key would
	// coalesce onto a flight that never completes.
	executed := false
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, key)
		if executed {
			// Fills counts the misses this leader actually computed —
			// the engine-evaluation counter behind the persistent result
			// store's "warm restart never re-runs the engine" proof.
			sh.fills++
		}
		if f.err == nil {
			sh.insert(key, entry{an: f.an, metrics: f.metrics})
		}
		sh.mu.Unlock()
		// Publish to followers only after f.an/f.err are set. The flight
		// leader owns done even though this deferred closure is not the
		// scope that made the channel.
		close(f.done) //reprolint:allow chandiscipline — the leader's deferred cleanup is the unique closer; followers only receive
	}()
	// The fault seam fires as the leader, inside the singleflight: an
	// armed error is shared with every coalesced follower, and an armed
	// panic unwinds through the deferred cleanup above — exactly the
	// paths the robustness tests need to reach on demand. A nil Fire
	// result must not touch f.err: the abandoned-flight sentinel has to
	// survive until a normal path overwrites it, or a panicking fill
	// would publish success to its followers.
	if ferr := faultinject.Fire(faultinject.SiteCacheFill); ferr != nil {
		f.err = ferr
	} else if fill != nil {
		executed = true
		f.an, f.metrics, f.err = fill()
	} else {
		executed = true
		f.an, f.err = analyzeFn(key.Cfg)
	}
	return f.an, f.metrics, f.err
}

// errFlightAbandoned surfaces to singleflight followers whose leader
// died (panicked) before publishing a result; the next caller simply
// becomes a fresh leader.
var errFlightAbandoned = errors.New("f1: cache: in-flight analysis abandoned")

// insert memoizes e under key, first evicting one arbitrary resident
// entry when the shard is full. key is never resident here: only its
// singleflight leader inserts it, and a resident key is a hit, not a
// leader. Callers hold the shard lock.
func (sh *shard) insert(key ScoreKey, e entry) {
	if len(sh.entries) >= sh.capacity {
		for k := range sh.entries {
			delete(sh.entries, k)
			break
		}
		sh.evictions++
	}
	sh.entries[key] = e
}

// Memoizes reports whether this cache retains anything at all: false
// for a nil *Cache and for the zero/CacheOff pass-through. Hot loops
// use it to skip cache plumbing entirely when memoization is off.
func (c *Cache) Memoizes() bool { return c != nil && len(c.shards) > 0 }

// Len reports the number of memoized configurations.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time cache snapshot. Counters are cumulative
// since construction; Entries and the capacity fields describe the
// current state.
type CacheStats struct {
	Shards   int    `json:"shards"`
	Capacity int    `json:"capacity"`
	Entries  int    `json:"entries"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Coalesced counts the subset of Misses that waited on another
	// caller's in-flight analysis of the same configuration
	// (singleflight) instead of recomputing it.
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	// Fills counts the misses whose singleflight leader actually ran
	// the analysis (or its caller-supplied fill) — i.e. real engine
	// evaluations. It excludes coalesced waits and injected fill
	// faults, so a server answering entirely from caches and the
	// persistent result store shows Fills = 0.
	Fills uint64 `json:"fills"`
}

// HitRate is Hits over all lookups, 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats aggregates the per-shard counters. The snapshot is
// shard-by-shard consistent, not globally atomic: under concurrent
// traffic the totals may mix moments, but every counter is monotone.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Capacity += sh.capacity
		st.Entries += len(sh.entries)
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Coalesced += sh.coalesced
		st.Evictions += sh.evictions
		st.Fills += sh.fills
		sh.mu.Unlock()
	}
	return st
}

// contains reports whether cfg is currently memoized, without touching
// the counters (a test / diagnostics probe).
func (c *Cache) contains(cfg Config) bool {
	if c == nil || len(c.shards) == 0 || !memoizable(cfg) {
		return false
	}
	key := ScoreKey{Cfg: cfg}
	sh := c.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.entries[key]
	sh.mu.Unlock()
	return ok
}

// comparableTypes memoizes the per-dynamic-type comparability check so
// the reflect call happens once per AccelModel implementation.
var comparableTypes sync.Map // reflect.Type → bool

func memoizable(cfg Config) bool {
	if cfg.AccelModel == nil {
		return true // Analyze will reject it; nothing reaches the map
	}
	t := reflect.TypeOf(cfg.AccelModel)
	if v, ok := comparableTypes.Load(t); ok {
		return v.(bool)
	}
	ok := t.Comparable()
	comparableTypes.Store(t, ok)
	return ok
}
