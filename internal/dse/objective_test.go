package dse

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

func TestNewObjectiveUnknownListsRegistry(t *testing.T) {
	cat := catalog.Default()
	_, err := NewObjective("warp", cat, 1)
	if err == nil {
		t.Fatal("unknown objective accepted")
	}
	for _, name := range ObjectiveNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestObjectiveColumnsWellFormed(t *testing.T) {
	cat := catalog.Default()
	for _, name := range ObjectiveNames() {
		ev, err := NewObjective(name, cat, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ev.Name() != name {
			t.Errorf("%s: Name() = %q", name, ev.Name())
		}
		cols := ev.Columns()
		if len(cols) == 0 {
			t.Fatalf("%s: no columns", name)
		}
		seen := map[string]bool{}
		for _, c := range cols {
			if c.Name == "" || seen[c.Name] {
				t.Errorf("%s: empty or duplicate column %q", name, c.Name)
			}
			seen[c.Name] = true
		}
	}
}

// TestObjectiveParallelMatchesSerial is the determinism hammer for the
// evaluator seam: for every registered objective, a parallel scored
// exploration (with and without the memo cache, across worker counts)
// must reproduce the serial slate element for element — including the
// Metrics columns, whose Monte-Carlo streams must not depend on
// scheduling. Run under -race this also exercises the evaluators'
// concurrent-safety contract.
func TestObjectiveParallelMatchesSerial(t *testing.T) {
	cat := catalog.Synthetic(3, 4, 4)
	space := synthSpace(cat)
	for _, name := range ObjectiveNames() {
		t.Run(name, func(t *testing.T) {
			ev, err := NewObjective(name, cat, 7)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Explorer{Catalog: cat, Space: space, Workers: 1, Objective: ev}.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != 3*4*4 {
				t.Fatalf("serial explored %d candidates, want %d", len(serial), 3*4*4)
			}
			for _, c := range serial {
				if len(c.Metrics) != len(ev.Columns()) {
					t.Fatalf("%s: %d metric columns, want %d", c.Name(), len(c.Metrics), len(ev.Columns()))
				}
			}
			poolRan := onPool(t)
			for _, workers := range []int{2, 4, 8} {
				for _, cache := range []*core.Cache{core.CacheOff(), core.NewCache()} {
					par, err := Explorer{Catalog: cat, Space: space, Workers: workers, Objective: ev, Cache: cache}.Enumerate()
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					requireEqualCandidates(t, serial, par)
					poolRan()
				}
			}
		})
	}
}

// TestObjectiveCacheKeyedBySeedAndName verifies the score cache does
// not bleed across objectives or seeds: the same space explored under
// different seeds through one shared cache yields different
// Monte-Carlo metrics, and re-running with the original seed still
// reproduces the original slate.
func TestObjectiveCacheKeyedBySeedAndName(t *testing.T) {
	cat := catalog.Synthetic(2, 3, 3)
	space := synthSpace(cat)
	cache := core.NewCache()
	explore := func(seed int64) []Candidate {
		t.Helper()
		ev, err := NewObjective("mission.stochastic", cat, seed)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := Explorer{Catalog: cat, Space: space, Objective: ev, Cache: cache}.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	a := explore(7)
	b := explore(8)
	diff := false
	for i := range a {
		for j := range a[i].Metrics {
			if a[i].Metrics[j] != b[i].Metrics[j] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("seed 7 and seed 8 produced identical Monte-Carlo metrics — seed missing from cache key?")
	}
	requireEqualCandidates(t, a, explore(7))
}

// TestStochasticGolden pins the exact float64 bits of mission.stochastic
// metrics (eff_rate_hz, p99_latency_ms, mean_rate_hz) for the top three
// candidates by effective rate and by p99 latency over
// Synthetic(2,4,8) at seed 7. Stored artifacts and the objective's
// meaning rest on the math/rand stream and the nearest-rank
// percentiles, so any change to either must fail here, not pass CI
// with silently different numbers.
func TestStochasticGolden(t *testing.T) {
	cat := catalog.Synthetic(2, 4, 8)
	ev, err := NewObjective("mission.stochastic", cat, 7)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: 1, Cache: core.CacheOff(), Objective: ev}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		bits [3]uint64
	}
	golden := [2][]row{
		{ // top 3 by eff_rate_hz
			{"synth-uav-001 + synth-net-007 + synth-soc-003", [3]uint64{0x40384079434a84dd, 0x40544c924df1b23e, 0x403f9bae52c627c5}},
			{"synth-uav-001 + synth-net-007 + synth-soc-002", [3]uint64{0x40377bfdc9c14538, 0x40552bdbb4141056, 0x403e7020f7a37f9f}},
			{"synth-uav-001 + synth-net-007 + synth-soc-001", [3]uint64{0x4036bb717892fc8b, 0x405587a9b663e774, 0x403d1132ef3cc89c}},
		},
		{ // top 3 by p99_latency_ms (lowest first)
			{"synth-uav-001 + synth-net-007 + synth-soc-003", [3]uint64{0x40384079434a84dd, 0x40544c924df1b23e, 0x403f9bae52c627c5}},
			{"synth-uav-000 + synth-net-007 + synth-soc-003", [3]uint64{0x403395035d8f4066, 0x40545e3081dd27ae, 0x403c695871da002d}},
			{"synth-uav-000 + synth-net-007 + synth-soc-002", [3]uint64{0x40333ce29d816270, 0x4054dac09f3d3f96, 0x403c0030cec6af4d}},
		},
	}
	for col, want := range golden {
		got := TopK(cands, ColumnObjective(ev.Columns(), col), len(want))
		if len(got) != len(want) {
			t.Fatalf("column %d: TopK returned %d candidates, want %d", col, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name() != w.name {
				t.Errorf("column %d rank %d: %q, want %q", col, i, got[i].Name(), w.name)
				continue
			}
			for j, b := range w.bits {
				if g := math.Float64bits(got[i].Metrics[j]); g != b {
					t.Errorf("column %d rank %d %s[%d]: bits %#x (%v), want %#x (%v)",
						col, i, w.name, j, g, got[i].Metrics[j], b, math.Float64frombits(b))
				}
			}
		}
	}
}
