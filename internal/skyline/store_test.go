package skyline

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// storedServer is one server generation over a persistent store
// directory: its own in-memory cache (so engine activity is observable
// per generation) and a freshly opened store over the shared dir.
type storedServer struct {
	srv   *httptest.Server
	s     *Server
	cache *core.Cache
	st    *store.Store
}

func openStoredServer(t *testing.T, dir string) *storedServer {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewCache()
	s := NewServerWith(catalog.Default(), Options{Cache: cache, Store: st})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return &storedServer{srv: srv, s: s, cache: cache, st: st}
}

// fetch GETs path and returns the body plus the X-Explore-Store header
// ("" when the response came from the engine).
func fetch(t *testing.T, srv *httptest.Server, path string) (body []byte, storeHeader string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Explore-Store")
}

// smallExplore is a one-UAV space: enough candidates to be a real
// response, cheap enough to recompute several times per test.
func smallExplore(extra url.Values) string {
	q := url.Values{"uav": {catalog.UAVDJISpark}}
	for k, vs := range extra {
		q[k] = vs
	}
	return "/explore?" + q.Encode()
}

// TestStoreRestartServesByteIdentical is the persistence acceptance
// test: a restarted server (fresh process state: new cache, reopened
// store) answers previously computed explorations byte-identically from
// disk without running the engine — proven by the warm server granting
// no exploration slot (every engine-driven handler admits before it
// computes; a store hit returns first) and, for the scored request, by
// the fresh cache's fill and miss counters staying at zero.
func TestStoreRestartServesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		smallExplore(nil), // streaming
		smallExplore(url.Values{"top": {"3"}}),
		smallExplore(url.Values{"pareto": {"velocity,power"}}),
		smallExplore(url.Values{"objective": {"mission.endurance"}, "top": {"2"}, "seed": {"7"}}),
	}

	gen1 := openStoredServer(t, dir)
	cold := make(map[string][]byte)
	for _, p := range paths {
		body, hdr := fetch(t, gen1.srv, p)
		if hdr != "" {
			t.Fatalf("cold GET %s served from store (%q)", p, hdr)
		}
		if len(body) == 0 {
			t.Fatalf("cold GET %s: empty body", p)
		}
		cold[p] = body
	}
	if st := gen1.st.Stats(); st.Puts != uint64(len(paths)) {
		t.Fatalf("store stats after cold pass = %+v; want %d spills", st, len(paths))
	}
	gen1.srv.Close()

	gen2 := openStoredServer(t, dir)
	for _, p := range paths {
		body, hdr := fetch(t, gen2.srv, p)
		if hdr != "hit" {
			t.Errorf("warm GET %s: X-Explore-Store = %q, want \"hit\"", p, hdr)
		}
		if !bytes.Equal(body, cold[p]) {
			t.Errorf("warm GET %s: body differs from cold run (%d vs %d bytes)", p, len(body), len(cold[p]))
		}
	}
	// The engine-work proof: the restarted server admitted nothing to
	// the engine and its scored cache saw no misses and ran no fills —
	// every byte came from the store.
	if n := gen2.s.adm.granted.Load(); n != 0 {
		t.Fatalf("warm server admitted %d requests to the engine; want 0", n)
	}
	if cs := gen2.cache.Stats(); cs.Fills != 0 || cs.Misses != 0 {
		t.Fatalf("warm server cache stats = %+v; want zero fills and misses", cs)
	}
	if st := gen2.st.Stats(); st.Hits != uint64(len(paths)) || st.RecoveredArtifacts != len(paths) {
		t.Fatalf("warm store stats = %+v; want %d hits over %d recovered artifacts", st, len(paths), len(paths))
	}
}

// TestGridStoreRestart: a restarted server answers a previously
// rendered grid byte-identically from disk without admitting it to the
// engine.
func TestGridStoreRestart(t *testing.T) {
	dir := t.TempDir()
	path := "/grid.svg?x=payload&y=range&xlo=0&xhi=400&ylo=4&yhi=20&nx=5&ny=4"

	gen1 := openStoredServer(t, dir)
	cold, hdr := fetch(t, gen1.srv, path)
	if hdr != "" || len(cold) == 0 {
		t.Fatalf("cold grid: header %q, %d bytes", hdr, len(cold))
	}
	gen1.srv.Close()

	gen2 := openStoredServer(t, dir)
	warm, hdr := fetch(t, gen2.srv, path)
	if hdr != "hit" {
		t.Errorf("warm grid: X-Explore-Store = %q, want \"hit\"", hdr)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("warm grid SVG differs from cold (%d vs %d bytes)", len(warm), len(cold))
	}
	if n := gen2.s.adm.granted.Load(); n != 0 {
		t.Fatalf("warm server admitted %d grid requests to the engine; want 0", n)
	}
}

// TestStoreConstrainedStreamRecomputes: a constrained streaming request
// whose exact key is not stored is computed by the engine even when its
// unconstrained superset is stored, matches a storeless server byte for
// byte, and spills under its own key.
func TestStoreConstrainedStreamRecomputes(t *testing.T) {
	// The reference: a storeless server computing the constrained
	// exploration directly.
	constrained := smallExplore(url.Values{"max_power_w": {"12.5"}, "min_velocity_ms": {"0.5"}})
	plain := httptest.NewServer(NewServerWith(catalog.Default(), Options{Cache: core.NewCache()}))
	defer plain.Close()
	want, _ := fetch(t, plain, constrained)
	if len(want) == 0 {
		t.Fatal("constraints pruned everything; pick looser test values")
	}

	ss := openStoredServer(t, t.TempDir())
	if _, hdr := fetch(t, ss.srv, smallExplore(nil)); hdr != "" {
		t.Fatalf("superset GET unexpectedly served from store (%q)", hdr)
	}
	got, hdr := fetch(t, ss.srv, constrained)
	if hdr != "" {
		t.Fatalf("constrained GET served from store (%q) before its own key was stored", hdr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("constrained body differs from the storeless engine body (%d vs %d bytes)", len(got), len(want))
	}
	again, hdr := fetch(t, ss.srv, constrained)
	if hdr != "hit" {
		t.Errorf("constrained re-GET: X-Explore-Store = %q, want \"hit\"", hdr)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("stored constrained body differs from the engine body (%d vs %d bytes)", len(again), len(want))
	}
}

// onlySegment returns the path of the store's single segment file.
func onlySegment(t *testing.T, st *store.Store) string {
	t.Helper()
	found, err := filepath.Glob(filepath.Join(st.Dir(), "segments", "*.seg"))
	if err != nil || len(found) != 1 {
		t.Fatalf("segments/ holds %d files (err %v); want exactly 1", len(found), err)
	}
	return found[0]
}

// TestStoreCorruptionRecomputes: a bit-flipped or truncated artifact is
// quarantined — never served — and the response recomputes correctly.
func TestStoreCorruptionRecomputes(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, path string){
		"bit flip": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x20
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncation": func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			ss := openStoredServer(t, t.TempDir())
			path := smallExplore(url.Values{"top": {"3"}})
			want, _ := fetch(t, ss.srv, path)

			corrupt(t, onlySegment(t, ss.st))
			got, hdr := fetch(t, ss.srv, path)
			if hdr != "" {
				t.Fatalf("corrupt artifact served from store (%q)", hdr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed body differs (%d vs %d bytes)", len(got), len(want))
			}
			st := ss.st.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("store stats = %+v; want 1 quarantined artifact", st)
			}
			// The recompute re-spilled a clean artifact: served again.
			if _, hdr := fetch(t, ss.srv, path); hdr != "hit" {
				t.Errorf("re-GET after recompute: X-Explore-Store = %q, want \"hit\"", hdr)
			}
		})
	}
}

// TestStoreReadFaultRecomputes: persistent read I/O errors never
// surface to the client — the response recomputes, the error counts.
func TestStoreReadFaultRecomputes(t *testing.T) {
	ss := openStoredServer(t, t.TempDir())
	path := smallExplore(url.Values{"top": {"3"}})
	want, _ := fetch(t, ss.srv, path)

	disarm := faultinject.Enable(faultinject.SiteStoreRead, faultinject.Fault{})
	got, hdr := fetch(t, ss.srv, path)
	disarm()
	if hdr != "" {
		t.Fatalf("read-faulted GET served from store (%q)", hdr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed body differs (%d vs %d bytes)", len(got), len(want))
	}
	st := ss.st.Stats()
	if st.ReadErrors == 0 || st.Quarantined != 0 {
		t.Fatalf("store stats = %+v; want read errors counted, nothing quarantined", st)
	}
	// The artifact was never corrupt: with the fault gone it serves.
	if _, hdr := fetch(t, ss.srv, path); hdr != "hit" {
		t.Errorf("GET after fault cleared: X-Explore-Store = %q, want \"hit\"", hdr)
	}
}

// TestStorePublishFaultDegrades: persistent write failure trips the
// recompute-only degraded state — surfaced on /healthz — while every
// response stays correct.
func TestStorePublishFaultDegrades(t *testing.T) {
	ss := openStoredServer(t, t.TempDir())
	defer faultinject.Enable(faultinject.SiteStorePublish, faultinject.Fault{})()

	path := smallExplore(url.Values{"top": {"3"}})
	var first []byte
	// Each request's spill fails; after the threshold the store trips.
	for i := 0; i < 4; i++ {
		body, hdr := fetch(t, ss.srv, path)
		if hdr != "" {
			t.Fatalf("request %d served from store (%q) under a publish fault", i, hdr)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	st := ss.st.Stats()
	if !st.Degraded || st.DegradedTrips == 0 || st.WriteErrors == 0 {
		t.Fatalf("store stats = %+v; want degraded with write errors counted", st)
	}

	var h HealthJSON
	resp, err := http.Get(ss.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || !h.Store.Degraded || h.Store.WriteErrors == 0 {
		t.Fatalf("/healthz store = %+v; want degraded surfaced", h.Store)
	}
}

// TestHealthzStoreSection: the store gauges appear on /healthz exactly
// when a store is configured.
func TestHealthzStoreSection(t *testing.T) {
	decode := func(srv *httptest.Server) HealthJSON {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthJSON
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := decode(newTestServer(t)); h.Store != nil {
		t.Fatalf("storeless /healthz has a store section: %+v", h.Store)
	}
	ss := openStoredServer(t, t.TempDir())
	fetch(t, ss.srv, smallExplore(url.Values{"top": {"2"}}))
	h := decode(ss.srv)
	if h.Store == nil {
		t.Fatal("/healthz missing the store section")
	}
	if h.Store.Artifacts != 1 || h.Store.Puts != 1 {
		t.Fatalf("/healthz store = %+v; want the spilled artifact visible", h.Store)
	}
}

// TestMetricsStoreSeries: the Prometheus endpoint carries the store
// and cache-fill series.
func TestMetricsStoreSeries(t *testing.T) {
	ss := openStoredServer(t, t.TempDir())
	path := smallExplore(url.Values{"top": {"2"}})
	fetch(t, ss.srv, path) // miss + spill
	fetch(t, ss.srv, path) // hit
	body, _ := fetch(t, ss.srv, "/metrics")
	for _, want := range []string{
		"skyline_cache_fills_total",
		`skyline_store_lookups_total{outcome="hit"} 1`,
		`skyline_store_served_total{kind="explore"} 1`,
		"skyline_store_artifacts 1",
		"skyline_store_degraded 0",
		"skyline_store_quarantined_total 0",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Storeless servers emit no store series at all.
	plain, _ := fetch(t, newTestServer(t), "/metrics")
	if bytes.Contains(plain, []byte("skyline_store_")) {
		t.Error("storeless /metrics carries store series")
	}
}

// TestStoreKeyDiscriminates: requests that must not share bytes must
// not share keys, and key construction is deterministic.
func TestStoreKeyDiscriminates(t *testing.T) {
	cat := catalog.Default()
	base, err := ParseExplore(cat, url.Values{"uav": {catalog.UAVDJISpark}})
	if err != nil {
		t.Fatal(err)
	}
	rev := cat.Fingerprint()
	keys := map[string]string{"base": exploreStoreKey(rev, base)}
	for name, q := range map[string]url.Values{
		"space":      {"uav": {catalog.UAVAscTecPelican}},
		"constraint": {"uav": {catalog.UAVDJISpark}, "max_power_w": {"10"}},
		"top":        {"uav": {catalog.UAVDJISpark}, "top": {"3"}},
		"rank":       {"uav": {catalog.UAVDJISpark}, "top": {"3"}, "rank": {"power"}},
		"pareto":     {"uav": {catalog.UAVDJISpark}, "pareto": {"velocity,power"}},
		"objective":  {"uav": {catalog.UAVDJISpark}, "objective": {"mission.endurance"}},
		// Seed discrimination needs a Monte-Carlo evaluator: the
		// deterministic ones normalize Seed() to 0, and identical bytes
		// sharing a key is exactly right there.
		"stochastic":        {"uav": {catalog.UAVDJISpark}, "objective": {"mission.stochastic"}},
		"stochastic seed 9": {"uav": {catalog.UAVDJISpark}, "objective": {"mission.stochastic"}, "seed": {"9"}},
	} {
		req, err := ParseExplore(cat, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys[name] = exploreStoreKey(rev, req)
	}
	seen := make(map[string]string)
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("keys for %q and %q collide", name, prev)
		}
		seen[k] = name
	}
	// Deterministic: re-parsing the same query rebuilds the same key.
	again, err := ParseExplore(cat, url.Values{"uav": {catalog.UAVDJISpark}})
	if err != nil {
		t.Fatal(err)
	}
	if exploreStoreKey(rev, again) != keys["base"] {
		t.Error("identical requests built different keys")
	}
}
