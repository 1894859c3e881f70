package skyline

import (
	"bytes"
	"context"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/units"
)

// forceEscalate is the dse package's unexported test seam: when
// non-nil, it decides at each grain boundary lo of a multi-worker run
// whether [lo,n) moves to the work-stealing pool. It is reached by
// linkname so a split can be pinned while the output is rendered
// through this package's appendExploreLine.
//
//go:linkname forceEscalate repro/internal/dse.forceEscalate
var forceEscalate func(lo int) bool

// renderLines encodes a slate as the /explore NDJSON body.
func renderLines(cands []dse.Candidate, ev dse.Evaluator) []byte {
	var objName string
	var cols []dse.ObjectiveColumn
	if ev != nil {
		objName, cols = ev.Name(), ev.Columns()
	}
	var body []byte
	for _, c := range cands {
		body = appendExploreLine(body, c, objName, cols)
	}
	return body
}

// TestExploreSplitBytesMatchSerial forces the inline-to-pool handoff at
// the first, a middle and the last grain boundary of a constrained
// plain space, a sensor-axis space and a mission.stochastic space, and
// requires the NDJSON of both Candidates and ExploreContext to equal
// the Workers=1 body byte for byte.
func TestExploreSplitBytesMatchSerial(t *testing.T) {
	t.Cleanup(func() { forceEscalate = nil })
	synth := catalog.Synthetic(3, 8, 8)
	stoch := catalog.Synthetic(2, 4, 4)
	ev, err := dse.NewObjective("mission.stochastic", stoch, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    dse.Explorer
	}{
		{"constrained", dse.Explorer{
			Catalog:     synth,
			Space:       dse.Space{UAVs: synth.UAVNames(), Computes: synth.ComputeNames(), Algorithms: synth.AlgorithmNames()},
			Constraints: dse.Constraints{MaxPower: units.Watts(20), MinVelocity: units.MetersPerSecond(1)},
			ChunkSize:   7,
		}},
		{"sensor-axis", dse.Explorer{
			Catalog: catalog.Default(),
			Space: dse.Space{
				UAVs:       []string{catalog.UAVAscTecPelican, catalog.UAVDJISpark},
				Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2, catalog.ComputeRasPi4},
				Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet},
				Sensors:    []string{"", catalog.SensorRGBD, catalog.SensorNanoCam},
			},
			ChunkSize: 4,
		}},
		{"stochastic", dse.Explorer{
			Catalog:   stoch,
			Space:     dse.Space{UAVs: stoch.UAVNames(), Computes: stoch.ComputeNames(), Algorithms: stoch.AlgorithmNames()},
			ChunkSize: 5,
			Objective: ev,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forceEscalate = nil
			e := tc.e
			e.Cache = core.CacheOff()
			e.Workers = 1
			serial, err := e.ExploreContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := renderLines(serial, e.Objective)
			// The run visits every candidate of the unconstrained,
			// unscored space; its size fixes the grain boundaries.
			all := dse.Explorer{Catalog: e.Catalog, Space: e.Space, Workers: 1, Cache: core.CacheOff()}
			everything, err := all.ExploreContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n, g := len(everything), e.ChunkSize
			last := (n - 1) / g * g
			for _, at := range []int{g, max(g, last/g/2*g), last} {
				escalated := false
				forceEscalate = func(lo int) bool {
					escalated = escalated || lo == at
					return lo == at
				}
				e.Workers = 3
				collected, err := e.ExploreContext(context.Background())
				if err != nil {
					t.Fatalf("split at %d: %v", at, err)
				}
				if got := renderLines(collected, e.Objective); !bytes.Equal(got, want) {
					t.Fatalf("split at %d: ExploreContext NDJSON differs from Workers=1:\n got %q\nwant %q", at, got, want)
				}
				var streamed []dse.Candidate
				for cand, err := range e.Candidates(context.Background()) {
					if err != nil {
						t.Fatalf("split at %d: %v", at, err)
					}
					streamed = append(streamed, cand)
				}
				if got := renderLines(streamed, e.Objective); !bytes.Equal(got, want) {
					t.Fatalf("split at %d: Candidates NDJSON differs from Workers=1:\n got %q\nwant %q", at, got, want)
				}
				if !escalated {
					t.Fatalf("split at %d: no run reached that boundary", at)
				}
			}
		})
	}
}
