package skyline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/store"
	"repro/internal/units"
)

// exploreLines GETs an /explore URL and decodes the NDJSON body.
func exploreLines(t *testing.T, u string) []ExploreCandidateJSON {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out []ExploreCandidateJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var line ExploreCandidateJSON
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameCandidates asserts the streamed lines match the engine's
// slate element for element.
func requireSameCandidates(t *testing.T, want []dse.Candidate, got []ExploreCandidateJSON) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate count: engine %d, endpoint %d", len(want), len(got))
	}
	for i := range want {
		if got[i].Name != want[i].Name() {
			t.Fatalf("line %d: name %q, want %q", i, got[i].Name, want[i].Name())
		}
		if v := want[i].Analysis.SafeVelocity.MetersPerSecond(); math.Abs(float64(got[i].VSafeMS)-v) > 1e-9 {
			t.Fatalf("line %d: v_safe %v, want %v", i, got[i].VSafeMS, v)
		}
	}
}

func defaultSpace(cat *catalog.Catalog) dse.Space {
	return dse.Space{
		UAVs:       cat.UAVNames(),
		Computes:   cat.ComputeNames(),
		Algorithms: cat.AlgorithmNames(),
	}
}

func TestExploreStreamMatchesEnumerate(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	want, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	got := exploreLines(t, srv.URL+"/explore")
	requireSameCandidates(t, want, got)

	// Byte for byte, the batched stream is the appender's lines in
	// enumeration order.
	var wantBody []byte
	for _, c := range want {
		wantBody = appendExploreLine(wantBody, c, "", nil)
	}
	if body, _ := fetch(t, srv, "/explore"); !bytes.Equal(body, wantBody) {
		t.Fatalf("streamed body (%d B) differs from the appender over dse.Enumerate (%d B)", len(body), len(wantBody))
	}
}

// flushCounter is a ResponseWriter that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestExploreStreamBatchesFlushes bounds the flushes of a streamed
// response by the flush policy: the first line, one per 32 KiB
// written, and one per 10 ms elapsed — not one per line.
func TestExploreStreamBatchesFlushes(t *testing.T) {
	s := NewServerWith(catalog.Synthetic(5, 16, 16), Options{Cache: core.NewCache()})
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	start := time.Now()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/explore", nil))
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.Bytes())
	}
	n := w.Body.Len()
	lines := bytes.Count(w.Body.Bytes(), []byte("\n"))
	if lines != 1280 {
		t.Fatalf("streamed %d lines, want 1280", lines)
	}
	limit := 1 + (n+flushBytes-1)/flushBytes + int(elapsed/flushEvery)
	if w.flushes < 1 || w.flushes > limit {
		t.Fatalf("%d flushes for %d lines (%d B in %v), want 1..%d", w.flushes, lines, n, elapsed, limit)
	}
}

// TestExploreStreamTimeoutEndsWithErrorLine: a stream cut by its
// timeout= ends with an {"error":…} line after the lines already
// produced, each of which is a whole scored candidate, and the torn
// body is never stored.
func TestExploreStreamTimeoutEndsWithErrorLine(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWith(catalog.Synthetic(5, 16, 16), Options{Cache: core.NewCache(), Store: st, MaxWorkersPerRequest: 2})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	// Slow every scored candidate (each is a miss in the fresh cache,
	// and the unconstrained space prunes none) to 1 ms, so the
	// 1280-candidate space needs over 600 ms on at most two workers,
	// while the first lines arrive well inside the timeout.
	t.Cleanup(faultinject.Enable(faultinject.SiteCacheFill, faultinject.Fault{Latency: time.Millisecond}))

	body, _ := fetch(t, srv, "/explore?objective=mission.thermal&timeout=100ms")
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 || len(lines) > 1280 {
		t.Fatalf("want some but not all 1280 candidate lines before the error line, got %d lines", len(lines))
	}
	var last map[string]string
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last["error"] == "" {
		t.Fatalf("last line %q is not an error line (%v)", lines[len(lines)-1], err)
	}
	for i, line := range lines[:len(lines)-1] {
		var c ExploreCandidateJSON
		if err := json.Unmarshal(line, &c); err != nil || c.Name == "" {
			t.Fatalf("line %d %q: not a whole candidate (%v)", i, line, err)
		}
		if c.Objective != "mission.thermal" || len(c.Metrics) != 3 {
			t.Fatalf("line %d %q: not a whole mission.thermal candidate", i, line)
		}
	}
	t.Logf("%d candidate lines before the error line", len(lines)-1)
	if stats := st.Stats(); stats.Puts != 0 || stats.Artifacts != 0 {
		t.Fatalf("timed-out stream was stored: %+v", stats)
	}
}

func TestExploreSpaceSubsets(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVDJISpark},
		Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2},
		Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet},
	}
	want, err := dse.Enumerate(cat, space, dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty subset slate")
	}
	// Repeated keys and comma-separated lists both describe the axis.
	q := "uav=" + strings.ReplaceAll(catalog.UAVDJISpark, " ", "%20") +
		"&compute=" + strings.ReplaceAll(catalog.ComputeNCS+","+catalog.ComputeTX2, " ", "%20") +
		"&algorithm=" + catalog.AlgoDroNet + "&algorithm=" + catalog.AlgoTrailNet
	got := exploreLines(t, srv.URL+"/explore?"+q)
	requireSameCandidates(t, want, got)
}

// TestParseExploreListProbe: a comma-joined axis value is first probed
// whole as a catalog name, and that probe always misses. It must not
// build and drop an unknown-name error (which lists every catalog
// name), so a list-valued request allocates at most twice what a
// single-valued one does. A name that is really unknown still gets its
// error.
func TestParseExploreListProbe(t *testing.T) {
	cat := catalog.Default()
	list := url.Values{
		"uav":       {catalog.UAVDJISpark + "," + catalog.UAVAscTecPelican},
		"compute":   {catalog.ComputeNCS + "," + catalog.ComputeTX2},
		"algorithm": {catalog.AlgoDroNet + "," + catalog.AlgoTrailNet},
	}
	single := url.Values{"uav": {catalog.UAVDJISpark}, "compute": {catalog.ComputeNCS}, "algorithm": {catalog.AlgoDroNet}}
	if _, err := ParseExplore(cat, list); err != nil {
		t.Fatal(err)
	}
	listAllocs := testing.AllocsPerRun(100, func() { _, _ = ParseExplore(cat, list) })
	singleAllocs := testing.AllocsPerRun(100, func() { _, _ = ParseExplore(cat, single) })
	if listAllocs > 2*singleAllocs {
		t.Errorf("list-valued ParseExplore allocates %v times; want at most 2 x %v (single-valued)", listAllocs, singleAllocs)
	}
	_, err := ParseExplore(cat, url.Values{"compute": {catalog.ComputeNCS + ",Abacus"}})
	if err == nil || !strings.Contains(err.Error(), `unknown compute "Abacus"`) {
		t.Errorf("unknown name in a list: err = %v; want it named", err)
	}
}

func TestExploreSensorAxis(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVAscTecPelican},
		Computes:   []string{catalog.ComputeTX2},
		Algorithms: []string{catalog.AlgoDroNet},
		Sensors:    []string{catalog.SensorRGBD},
	}
	want, err := dse.Enumerate(cat, space, dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	got := exploreLines(t, srv.URL+"/explore?uav="+strings.ReplaceAll(catalog.UAVAscTecPelican, " ", "%20")+
		"&compute="+strings.ReplaceAll(catalog.ComputeTX2, " ", "%20")+
		"&algorithm="+catalog.AlgoDroNet+"&sensor="+strings.ReplaceAll(catalog.SensorRGBD, " ", "%20"))
	requireSameCandidates(t, want, got)
	for _, line := range got {
		if line.Sensor != catalog.SensorRGBD {
			t.Errorf("sensor = %q", line.Sensor)
		}
	}
}

func TestExploreSensorDefaultKeyword(t *testing.T) {
	// sensor=default (the UAV's own sensor) combines with named sensors
	// in one request — the dse.Space "" choice, reachable via query.
	srv := newTestServer(t)
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVAscTecPelican},
		Computes:   []string{catalog.ComputeTX2},
		Algorithms: []string{catalog.AlgoDroNet},
		Sensors:    []string{"", catalog.SensorRGBD},
	}
	want, err := dse.Enumerate(cat, space, dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("slate = %d, want 2 (default + named sensor)", len(want))
	}
	got := exploreLines(t, srv.URL+"/explore?uav="+strings.ReplaceAll(catalog.UAVAscTecPelican, " ", "%20")+
		"&compute="+strings.ReplaceAll(catalog.ComputeTX2, " ", "%20")+
		"&algorithm="+catalog.AlgoDroNet+
		"&sensor=default&sensor="+strings.ReplaceAll(catalog.SensorRGBD, " ", "%20"))
	requireSameCandidates(t, want, got)
}

func TestExploreConstraints(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	cons := dse.Constraints{MaxPower: units.Watts(5), MinVelocity: units.MetersPerSecond(1)}
	want, err := dse.Enumerate(cat, defaultSpace(cat), cons)
	if err != nil {
		t.Fatal(err)
	}
	all, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("constraints should prune some but not all (kept %d of %d)", len(want), len(all))
	}
	got := exploreLines(t, srv.URL+"/explore?max_power_w=5&min_velocity_ms=1")
	requireSameCandidates(t, want, got)
	for _, line := range got {
		if line.PowerW > 5 || line.VSafeMS < 1 {
			t.Errorf("constraint violated: %s (%.1f W, %.2f m/s)", line.Name, line.PowerW, line.VSafeMS)
		}
	}
}

func TestExploreTopK(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	all, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for rank, obj := range map[string]dse.Objective{"velocity": dse.MaxVelocity, "balance": dse.Balance} {
		want := dse.TopK(all, obj, 3)
		got := exploreLines(t, srv.URL+"/explore?top=3&rank="+rank)
		requireSameCandidates(t, want, got)
	}
	// Default rank is velocity.
	got := exploreLines(t, srv.URL+"/explore?top=5")
	requireSameCandidates(t, dse.TopK(all, dse.MaxVelocity, 5), got)
}

func TestExplorePareto(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	all, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dse.ParetoFront(all, dse.MaxVelocity, dse.MinPower)
	if err != nil {
		t.Fatal(err)
	}
	got := exploreLines(t, srv.URL+"/explore?pareto=velocity,power")
	requireSameCandidates(t, want, got)

	want3, err := dse.ParetoFront(all, dse.MaxVelocity, dse.MinPower, dse.MinPayload)
	if err != nil {
		t.Fatal(err)
	}
	got3 := exploreLines(t, srv.URL+"/explore?pareto=velocity,power,payload")
	requireSameCandidates(t, want3, got3)
}

func TestExploreBadParams(t *testing.T) {
	srv := newTestServer(t)
	for _, q := range []string{
		"uav=bogus",
		"compute=bogus",
		"algorithm=bogus",
		"sensor=bogus",
		"max_power_w=-1",
		"max_payload_g=-0.5",
		"min_velocity_ms=abc",
		"top=0",
		"top=-2",
		"top=x",
		"top=3&rank=warp",
		"rank=velocity",               // rank without top
		"top=3&pareto=velocity,power", // mutually exclusive
		"pareto=velocity,warp",
	} {
		resp, err := http.Get(srv.URL + "/explore?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestExploreStreamsAndDisconnectCancels drives the acceptance
// criterion end to end against a synthetically enlarged catalog: the
// first NDJSON line must arrive while the sweep is still running, and
// closing the connection must cancel the exploration — observed
// through the server's scored-analysis cache, which only grows while
// workers are scoring candidates under the objective.
func TestExploreStreamsAndDisconnectCancels(t *testing.T) {
	cat := catalog.Synthetic(10, 40, 40) // 16000 candidates
	// A private cache isolates the growth observation from other tests
	// sharing the process-wide core.SharedCache.
	s := NewServerWith(cat, Options{Cache: core.NewCache()})
	srv := httptest.NewServer(s)
	defer srv.Close()

	baseline := runtime.NumGoroutine()
	resp, err := http.Get(srv.URL + "/explore?objective=mission.thermal")
	if err != nil {
		t.Fatal(err)
	}
	// The first line must be readable before the sweep finishes (the
	// handler flushes the first candidate at once, then batches);
	// afterwards the exploration is still far from its 16000-candidate
	// end.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	var first ExploreCandidateJSON
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("first line %q: %v", line, err)
	}
	if first.Name == "" {
		t.Fatal("first line has no name")
	}
	resp.Body.Close() // mid-stream disconnect

	// Cancellation: the analysis cache stops growing well short of the
	// full space once the request context dies.
	total := 16000
	var settled, prev int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		settled = s.cache.Len()
		time.Sleep(50 * time.Millisecond)
		if s.cache.Len() == settled && settled == prev {
			break
		}
		prev = settled
	}
	if settled == 0 {
		t.Fatal("scored cache never grew: the cancellation observation is vacuous")
	}
	if settled >= total {
		t.Fatalf("exploration ran to completion (%d analyses) despite disconnect", settled)
	}
	// And the handler + worker goroutines wind down to baseline.
	waitUntil := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+1 { // allow one lingering http keep-alive goroutine
		t.Errorf("goroutines after disconnect: %d, baseline %d", n, baseline)
	}
}

func TestExploreEmptySlateIsEmptyBody(t *testing.T) {
	srv := newTestServer(t)
	// An impossible constraint leaves nothing to stream — the response
	// is a valid, empty NDJSON document.
	got := exploreLines(t, srv.URL+"/explore?min_velocity_ms=10000")
	if len(got) != 0 {
		t.Fatalf("got %d lines, want 0", len(got))
	}
}

// BenchmarkExploreEndpoint measures a full /explore request over the
// default catalog — the serving hot path (parse, explore, encode,
// flush) end to end. Part of the CI bench smoke step.
func BenchmarkExploreEndpoint(b *testing.B) {
	srv := httptest.NewServer(NewServer(nil))
	defer srv.Close()
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(srv.URL + "/explore")
		if err != nil {
			b.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		n := 0
		for sc.Scan() {
			n++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no candidates streamed")
		}
	}
}
