package skyline

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/units"
)

// exploreLine is the reference wire form of a candidate: the struct
// encoding/json turns into an /explore line. appendExploreLine must
// produce exactly the bytes json.Encoder.Encode writes for it. cols
// and objName are the active objective's columns and registry name
// (nil/"" on plain explorations).
func exploreLine(c dse.Candidate, objName string, cols []dse.ObjectiveColumn) ExploreCandidateJSON {
	an := c.Analysis
	out := ExploreCandidateJSON{
		Name:      c.Name(),
		UAV:       c.Selection.UAV,
		Compute:   c.Selection.Compute,
		Algorithm: c.Selection.Algorithm,
		Sensor:    c.Selection.Sensor,
		VSafeMS:   JSONFloat(an.SafeVelocity.MetersPerSecond()),
		KneeHz:    JSONFloat(an.Knee.Throughput.Hertz()),
		PowerW:    JSONFloat(c.Power.Watts()),
		PayloadG:  JSONFloat(an.Config.Payload.Grams()),
		Bound:     an.Bound.String(),
		Class:     an.Class.String(),
	}
	// Non-finite readings stay at zero so omitempty drops them and the
	// wire format matches pre-JSONFloat output byte for byte.
	if v := an.Action.Hertz(); !math.IsInf(v, 0) && !math.IsNaN(v) {
		out.ActionHz = JSONFloat(v)
	}
	if g := an.GapFactor; !math.IsInf(g, 0) && !math.IsNaN(g) {
		out.GapFactor = JSONFloat(g)
	}
	if objName != "" && len(c.Metrics) == len(cols) {
		out.Objective = objName
		out.Metrics = make([]MetricJSON, len(cols))
		for i, col := range cols {
			out.Metrics[i] = MetricJSON{Name: col.Name, Value: JSONFloat(c.Metrics[i])}
		}
	}
	return out
}

// requireSameFloat fails unless appendJSONFloat writes v as
// encoding/json writes a float64, or as null where encoding/json
// rejects a non-finite value. The line comparison cannot show this:
// its reference encodes floats through JSONFloat.MarshalJSON, which
// delegates to appendJSONFloat.
func requireSameFloat(t *testing.T, v float64) {
	t.Helper()
	want := []byte("null")
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		var err error
		if want, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendJSONFloat(%v) = %s, want %s", v, got, want)
	}
}

// requireSameLine fails unless the appender and encoding/json agree
// byte for byte on c, and on each float c puts on the wire.
func requireSameLine(t *testing.T, c dse.Candidate, objName string, cols []dse.ObjectiveColumn) {
	t.Helper()
	an := c.Analysis
	for _, v := range append([]float64{
		an.SafeVelocity.MetersPerSecond(), an.Action.Hertz(), an.Knee.Throughput.Hertz(),
		c.Power.Watts(), an.Config.Payload.Grams(), an.GapFactor,
	}, c.Metrics...) {
		requireSameFloat(t, v)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(exploreLine(c, objName, cols)); err != nil {
		t.Fatal(err)
	}
	if got := appendExploreLine(nil, c, objName, cols); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appender and encoding/json disagree on %q:\n got %s\nwant %s", c.Name(), got, want.Bytes())
	}
}

// TestAppendExploreLineMatchesEncodingJSON compares the appender with
// encoding/json over every candidate of the paper catalog and of a
// 1280-candidate synthetic one, plain and under every registered
// mission objective.
func TestAppendExploreLineMatchesEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
	}{
		{"default", catalog.Default()},
		{"synthetic", catalog.Synthetic(5, 16, 16)},
	} {
		space := defaultSpace(tc.cat)
		for _, objName := range append([]string{""}, dse.ObjectiveNames()...) {
			e := dse.Explorer{Catalog: tc.cat, Space: space, Cache: core.CacheOff()}
			var cols []dse.ObjectiveColumn
			if objName != "" {
				ev, err := dse.NewObjective(objName, tc.cat, 1)
				if err != nil {
					t.Fatal(err)
				}
				e.Objective, cols = ev, ev.Columns()
				if objName == "mission.stochastic" && tc.name == "synthetic" {
					// The Monte-Carlo evaluator is the costly one: a
					// one-UAV prefix of the space (256 candidates).
					e.Space.UAVs = space.UAVs[:1]
				}
			}
			cands, err := e.ExploreContext(context.Background())
			if err != nil {
				t.Fatalf("%s %q: %v", tc.name, objName, err)
			}
			if len(cands) == 0 {
				t.Fatalf("%s %q: empty slate", tc.name, objName)
			}
			for _, c := range cands {
				requireSameLine(t, c, objName, cols)
			}
		}
	}
}

// edgeFloats are the values where encoding/json's float rule changes
// shape: non-finite (null), signed zero, both exponent thresholds, the
// smallest subnormal and the largest finite value.
var edgeFloats = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
	1e-7, -1e-7, 1e-6, 1e21, -1e21, 999999999999999900000, 5e-324, math.MaxFloat64,
	0.1, 9.62, 43, 1e20, 123456789.125,
}

// edgeStrings exercise every escaping rule: HTML-sensitive bytes,
// quote and backslash, short and long control escapes, DEL, the
// JavaScript line separators, multi-byte runes and invalid UTF-8.
var edgeStrings = []string{
	"", "plain", "<&>", `"quoted"`, `back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"line\u2028para\u2029end", "µ-UAV ✈ 60 FPS", "bad\xffutf8", "\xe2\x80", "trail\xc3",
}

// edgeCandidate builds a candidate whose every wire float reads v and
// whose every string reads s, with two metric columns named s.
func edgeCandidate(s string, v float64) (dse.Candidate, []dse.ObjectiveColumn) {
	c := dse.Candidate{
		Selection: catalog.Selection{UAV: s, Compute: s, Algorithm: s, Sensor: s},
		Power:     units.Watts(v),
		Metrics:   []float64{v, -v},
	}
	c.Analysis.Config.Name = s
	c.Analysis.Config.Payload = units.Mass(v)
	c.Analysis.SafeVelocity = units.MetersPerSecond(v)
	c.Analysis.Action = units.Hertz(v)
	c.Analysis.Knee.Throughput = units.Hertz(v)
	c.Analysis.GapFactor = v
	return c, []dse.ObjectiveColumn{{Name: s}, {Name: s + "_2"}}
}

func TestAppendExploreLineEdgeValues(t *testing.T) {
	for _, v := range edgeFloats {
		for _, s := range edgeStrings {
			c, cols := edgeCandidate(s, v)
			requireSameLine(t, c, "", nil)
			requireSameLine(t, c, s, cols)
			requireSameLine(t, c, "mission.thermal", cols[:1]) // columns do not line up: no metrics
		}
	}
}

// TestJSONFloatMarshalIsAppender pins JSONFloat (the float type of
// /api/analyze and /api/compare) to appendJSONFloat, which the edge
// and fuzz tests hold to encoding/json.
func TestJSONFloatMarshalIsAppender(t *testing.T) {
	for _, v := range edgeFloats {
		got, err := json.Marshal(JSONFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		if want := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("JSONFloat(%v) = %s, want %s", v, got, want)
		}
	}
}

func TestAppendExploreLineDoesNotAllocate(t *testing.T) {
	cat := catalog.Default()
	ev, err := dse.NewObjective("mission.thermal", cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := dse.Explorer{Catalog: cat, Space: defaultSpace(cat), Objective: ev, Cache: core.CacheOff()}.
		ExploreContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cols := ev.Columns()
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(10, func() {
		buf = buf[:0]
		for _, c := range cands {
			buf = appendExploreLine(buf, c, "mission.thermal", cols)
		}
	})
	if allocs != 0 {
		t.Fatalf("appendExploreLine allocates %.1f times per %d lines", allocs, len(cands))
	}
}

// FuzzExploreLine drives arbitrary floats and names through a built
// candidate and holds the appender to encoding/json's bytes.
func FuzzExploreLine(f *testing.F) {
	for i, v := range edgeFloats {
		s := edgeStrings[i%len(edgeStrings)]
		f.Add(s, s, "mission.battery", v, v, -v, v, v, v, v)
	}
	f.Fuzz(func(t *testing.T, name, sensor, objName string, vSafe, action, knee, power, payload, gap, metric float64) {
		c := dse.Candidate{
			Selection: catalog.Selection{UAV: name, Compute: sensor, Algorithm: objName, Sensor: sensor},
			Power:     units.Watts(power),
			Metrics:   []float64{metric, gap},
		}
		c.Analysis.Config.Name = name
		c.Analysis.Config.Payload = units.Mass(payload)
		c.Analysis.SafeVelocity = units.MetersPerSecond(vSafe)
		c.Analysis.Action = units.Hertz(action)
		c.Analysis.Knee.Throughput = units.Hertz(knee)
		c.Analysis.GapFactor = gap
		cols := []dse.ObjectiveColumn{{Name: name}, {Name: sensor}}
		requireSameLine(t, c, "", nil)
		requireSameLine(t, c, objName, cols)
	})
}
