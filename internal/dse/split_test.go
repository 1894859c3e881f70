package dse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/units"
)

// escalateAt pins where the multi-worker runs of a test hand off to the
// pool: at every grain boundary lo for which at returns true, instead of
// the measured decision. The measured decision is restored on cleanup.
func escalateAt(t *testing.T, at func(lo int) bool) {
	t.Helper()
	forceEscalate = at
	t.Cleanup(func() { forceEscalate = nil })
}

// onPool routes every multi-worker run of a test through the
// work-stealing pool from index 0 — a small plain space would otherwise
// never leave the caller's goroutine — and returns a check that fails
// the test unless the pool has analyzed a grain since the previous
// check.
func onPool(t *testing.T) (poolRan func()) {
	t.Helper()
	escalateAt(t, func(lo int) bool { return lo == 0 })
	last := poolGrains.Load()
	return func() {
		t.Helper()
		now := poolGrains.Load()
		if now == last {
			t.Fatal("the run never reached the work-stealing pool")
		}
		last = now
	}
}

// splitCase is one differential fixture for the inline/pool split.
type splitCase struct {
	name string
	e    Explorer // Workers unset; the test picks them
}

// splitCases are a constrained plain space (survivor index ≠ candidate
// index), a sensor-axis space and a mission.stochastic space, each at a
// grain that leaves several boundaries.
func splitCases(t *testing.T) []splitCase {
	t.Helper()
	synth := catalog.Synthetic(3, 8, 8)
	def := catalog.Default()
	stoch := catalog.Synthetic(2, 4, 4)
	ev, err := NewObjective("mission.stochastic", stoch, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []splitCase{
		{"constrained", Explorer{
			Catalog:     synth,
			Space:       synthSpace(synth),
			Constraints: Constraints{MaxPower: units.Watts(20), MinVelocity: units.MetersPerSecond(1)},
			ChunkSize:   7,
			Cache:       core.CacheOff(),
		}},
		{"sensor-axis", Explorer{
			Catalog: def,
			Space: Space{
				UAVs:       []string{catalog.UAVAscTecPelican, catalog.UAVDJISpark},
				Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2, catalog.ComputeRasPi4},
				Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet},
				Sensors:    []string{"", catalog.SensorRGBD, catalog.SensorNanoCam},
			},
			ChunkSize: 4,
			Cache:     core.CacheOff(),
		}},
		{"stochastic", Explorer{
			Catalog:   stoch,
			Space:     synthSpace(stoch),
			ChunkSize: 5,
			Cache:     core.CacheOff(),
			Objective: ev,
		}},
	}
}

// spaceSize is the number of candidates e's run visits.
func spaceSize(t *testing.T, e Explorer) int {
	t.Helper()
	p, err := newPlan(e.Catalog, e.Space, e.Constraints, e.cache(), e.Objective)
	if err != nil {
		t.Fatal(err)
	}
	return p.total()
}

// splitBoundaries returns the first, a middle and the last grain
// boundary of an n-candidate run at grain g.
func splitBoundaries(n, g int) []int {
	last := (n - 1) / g * g
	return []int{g, max(g, last/g/2*g), last}
}

func collect(t *testing.T, e Explorer) []Candidate {
	t.Helper()
	var got []Candidate
	for cand, err := range e.Candidates(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, cand)
	}
	return got
}

// TestSplitMatchesSerial forces the handoff at the first, a middle and
// the last grain boundary and holds both Candidates and ExploreContext
// to the Workers=1 slate.
func TestSplitMatchesSerial(t *testing.T) {
	for _, tc := range splitCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			serialE := tc.e
			serialE.Workers = 1
			serial, err := serialE.ExploreContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := spaceSize(t, tc.e)
			if len(serial) == 0 {
				t.Fatal("empty slate")
			}
			for _, at := range splitBoundaries(n, tc.e.ChunkSize) {
				escalateAt(t, func(lo int) bool { return lo == at })
				e := tc.e
				e.Workers = 3
				before := poolGrains.Load()
				got, err := e.ExploreContext(context.Background())
				if err != nil {
					t.Fatalf("split at %d: %v", at, err)
				}
				requireEqualCandidates(t, serial, got)
				requireEqualCandidates(t, serial, collect(t, e))
				if poolGrains.Load() == before {
					t.Fatalf("split at %d: the pool never ran", at)
				}
			}
		})
	}
}

// failingEvaluator scores every candidate 1 except those named in fail,
// on which it returns an error naming the candidate.
type failingEvaluator struct{ fail map[string]bool }

func (failingEvaluator) Name() string { return "test.failing" }
func (failingEvaluator) Seed() int64  { return 0 }
func (failingEvaluator) Columns() []ObjectiveColumn {
	return []ObjectiveColumn{{Name: "one", Maximize: true}}
}

func (f failingEvaluator) Evaluate(_ context.Context, cand *Candidate, _ int64, out []float64) error {
	if id := cand.Name() + "|" + cand.Selection.Sensor; f.fail[id] {
		return fmt.Errorf("evaluator failed on %s", id)
	}
	out[0] = 1
	return nil
}

// runUntilError collects e's stream up to its error, and ExploreContext's
// error.
func runUntilError(e Explorer) (prefix []Candidate, streamErr, collectErr error) {
	for cand, err := range e.Candidates(context.Background()) {
		if err != nil {
			streamErr = err
			break
		}
		prefix = append(prefix, cand)
	}
	_, collectErr = e.ExploreContext(context.Background())
	return prefix, streamErr, collectErr
}

// TestSplitSurfacesFirstError places an evaluator error on the last
// survivor before a forced split and on the first one after it — plus
// one on the final survivor, which a pool worker may reach first — and
// requires the serial scan's first error and prefix from every run.
func TestSplitSurfacesFirstError(t *testing.T) {
	base := splitCases(t)[0].e // the constrained space: survivors are sparse
	n := spaceSize(t, base)
	// Survivor identities by candidate index, from the plan itself.
	p, err := newPlan(base.Catalog, base.Space, base.Constraints, core.CacheOff(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	var c Candidate
	for i := range ids {
		ok, err := p.candidateInto(context.Background(), i, &c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			ids[i] = c.Name() + "|" + c.Selection.Sensor
		}
	}
	lastSurvivor := func(below int) int {
		for i := below - 1; i >= 0; i-- {
			if ids[i] != "" {
				return i
			}
		}
		return -1
	}
	firstSurvivor := func(from int) int {
		for i := from; i < n; i++ {
			if ids[i] != "" {
				return i
			}
		}
		return -1
	}
	final := lastSurvivor(n)
	for _, at := range splitBoundaries(n, base.ChunkSize) {
		for side, idx := range map[string]int{"before": lastSurvivor(at), "after": firstSurvivor(at)} {
			if idx < 0 || idx == final {
				continue // no distinct survivor on that side of this boundary
			}
			e := base
			e.Objective = failingEvaluator{fail: map[string]bool{ids[idx]: true, ids[final]: true}}
			e.Workers = 1
			wantPrefix, wantErr, wantCollectErr := runUntilError(e)
			if wantErr == nil || wantCollectErr == nil || wantErr.Error() != wantCollectErr.Error() {
				t.Fatalf("split %d %s: serial errors %v / %v", at, side, wantErr, wantCollectErr)
			}
			escalateAt(t, func(lo int) bool { return lo == at })
			e.Workers = 4
			gotPrefix, gotErr, gotCollectErr := runUntilError(e)
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("split %d %s: stream error %v, want %v", at, side, gotErr, wantErr)
			}
			if gotCollectErr == nil || gotCollectErr.Error() != wantErr.Error() {
				t.Fatalf("split %d %s: ExploreContext error %v, want %v", at, side, gotCollectErr, wantErr)
			}
			requireEqualCandidates(t, wantPrefix, gotPrefix)
		}
	}
}

// TestSplitCancelLeavesNoGoroutines cancels — or breaks out of — a run
// after it has escalated, and requires the pool to wind down to the
// baseline goroutine count.
func TestSplitCancelLeavesNoGoroutines(t *testing.T) {
	cat := catalog.Synthetic(5, 16, 16) // 1280 candidates
	e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: 4, ChunkSize: 8, Cache: core.CacheOff()}
	baseline := runtime.NumGoroutine()
	for round := 0; round < 6; round++ {
		at := 8 * (1 + round*5) // vary the split point
		escalateAt(t, func(lo int) bool { return lo == at })
		before := poolGrains.Load()
		ctx, cancel := context.WithCancel(context.Background())
		var got int
		var sawErr error
		for _, err := range e.Candidates(ctx) {
			if err != nil {
				sawErr = err
				break
			}
			got++
			if got == at+3 { // a few candidates into the pool's part
				if round%2 == 1 {
					break
				}
				cancel()
			}
		}
		cancel()
		if poolGrains.Load() == before {
			t.Fatalf("round %d: the run never escalated", round)
		}
		if round%2 == 0 && !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("round %d: error = %v after %d candidates, want context.Canceled", round, sawErr, got)
		}
	}
	if n := goroutineCount(t, baseline, 5*time.Second); n > baseline {
		t.Fatalf("goroutines after escalated runs stopped: %d, baseline %d", n, baseline)
	}
}

// TestInlineFaultAndPanicSurface: an armed chunk fault, an armed
// chunk panic and a panicking evaluator on the inline prefix become the
// run's error — inline grains go through processChunk, which fires the
// fault site — instead of unwinding the caller's goroutine.
func TestInlineFaultAndPanicSurface(t *testing.T) {
	cat := catalog.Synthetic(2, 4, 4)
	plain := Explorer{Catalog: cat, Space: synthSpace(cat), ChunkSize: 5, Cache: core.CacheOff()}
	scored := plain
	scored.Objective = panickingEvaluator{}
	for _, tc := range []struct {
		name  string
		e     Explorer
		fault *faultinject.Fault
		want  string
	}{
		{"fault", plain, &faultinject.Fault{Err: errors.New("injected"), Times: 1}, "dse: chunk [0,5): injected"},
		{"fault-panic", plain, &faultinject.Fault{Panic: true, Times: 1}, "dse: panic analyzing candidates [0,5): "},
		{"evaluator-panic", scored, nil, "dse: panic analyzing candidates [0,5): evaluator exploded"},
	} {
		arm := func() (disarm func()) {
			if tc.fault == nil {
				return func() {}
			}
			return faultinject.Enable(faultinject.SiteDSEChunk, *tc.fault)
		}
		for _, workers := range []int{1, 4} {
			e := tc.e
			e.Workers = workers
			disarm := arm()
			var streamErr error
			for _, err := range e.Candidates(context.Background()) {
				streamErr = err
			}
			disarm()
			disarm = arm()
			_, collectErr := e.ExploreContext(context.Background())
			disarm()
			for what, err := range map[string]error{"Candidates": streamErr, "ExploreContext": collectErr} {
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("%s workers=%d: %s error = %v, want prefix %q", tc.name, workers, what, err, tc.want)
				}
			}
		}
	}
}

// panickingEvaluator panics on every candidate.
type panickingEvaluator struct{}

func (panickingEvaluator) Name() string               { return "test.panicking" }
func (panickingEvaluator) Seed() int64                { return 0 }
func (panickingEvaluator) Columns() []ObjectiveColumn { return []ObjectiveColumn{{Name: "x"}} }
func (panickingEvaluator) Evaluate(context.Context, *Candidate, int64, []float64) error {
	panic("evaluator exploded")
}
