package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// take returns the first n requests of a fresh workload built for seed.
func take(t *testing.T, name string, seed int64, n int) (*workload, []request) {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(cfg, name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w, w.stream.take(n)
}

func workloadNames(t *testing.T) []string {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.names()
}

// TestRequestListIsPureFunctionOfSeed: the same (workload, seed) gives
// the same requests and fill; another seed gives other requests.
func TestRequestListIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames(t) {
		w1, a := take(t, name, 7, 500)
		w2, b := take(t, name, 7, 500)
		_, c := take(t, name, 8, 500)
		if !slices.Equal(a, b) || !slices.Equal(w1.fill, w2.fill) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}
}

// TestMixSharesMatchConfig: the realised share of each mix class over a
// long list is the share workloads.json declares.
func TestMixSharesMatchConfig(t *testing.T) {
	for _, name := range workloadNames(t) {
		w, reqs := take(t, name, 3, 20000)
		got := classShares(reqs[len(w.stream.prefix):])
		total := 0.0
		for _, v := range w.spec.Mix {
			total += v
		}
		for class, want := range w.spec.Mix {
			if d := math.Abs(got[class] - want/total); d > 0.015 {
				t.Errorf("%s: class %s share %.3f, workloads.json says %.3f", name, class, got[class], want/total)
			}
		}
		for class := range got {
			if _, ok := w.spec.Mix[class]; !ok {
				t.Errorf("%s: generated class %q is not in workloads.json", name, class)
			}
		}
	}
}

// TestMissionSelectionsAreDistinct: every mission-score request misses
// the store, so no URL repeats within a run.
func TestMissionSelectionsAreDistinct(t *testing.T) {
	_, reqs := take(t, "mission-score", 5, 6000)
	seen := map[string]bool{}
	for _, r := range reqs {
		if seen[r.URL] {
			t.Fatalf("repeated request %s", r.URL)
		}
		seen[r.URL] = true
	}
}

// TestMissionObjectivesAreEqualShares: the four objectives each take a
// quarter of the requests, and fresh triples split evenly between
// top-K and Pareto selections.
func TestMissionObjectivesAreEqualShares(t *testing.T) {
	_, reqs := take(t, "mission-score", 9, 4000)
	objectives := map[string]float64{}
	fresh, pareto := 0, 0
	for _, r := range reqs {
		q, err := url.ParseQuery(strings.TrimPrefix(r.URL, "/explore?"))
		if err != nil {
			t.Fatal(err)
		}
		objectives[q.Get("objective")] += 1 / float64(len(reqs))
		if r.Class == "fresh-triple" {
			fresh++
			if q.Has("pareto") {
				pareto++
			}
		}
	}
	if len(objectives) != 4 {
		t.Fatalf("objectives %v, want four", objectives)
	}
	for obj, share := range objectives {
		if math.Abs(share-0.25) > 0.02 {
			t.Errorf("objective %s share %.3f, want 0.25", obj, share)
		}
	}
	if d := pareto*2 - fresh; d < -4 || d > 4 {
		t.Errorf("%d of %d fresh requests are Pareto, want half", pareto, fresh)
	}
}

// TestServerReceivesOnlyGeneratedURLs drives a recording handler with
// the loader: every request the server sees is one of the generated
// list, once each.
func TestServerReceivesOnlyGeneratedURLs(t *testing.T) {
	w, reqs := take(t, "interactive", 11, 300)
	var mu sync.Mutex
	var seen []string
	o := newOracle(w)
	if err := o.ensure(reqs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.RequestURI())
		mu.Unlock()
		o.ref.ServeHTTP(rw, r)
	}))
	defer ts.Close()
	l := &loader{client: newClient(2), conns: 2, oracle: o}
	defer l.client.CloseIdleConnections()
	p := l.run(ts.URL, reqs, make([]time.Duration, len(reqs)), 0, -1)
	for _, s := range p.samples {
		if s.failed {
			t.Fatalf("request failed: %s", s.detail)
		}
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = r.URL
	}
	slices.Sort(want)
	slices.Sort(seen)
	if !slices.Equal(want, seen) {
		t.Fatalf("server saw %d requests, %d generated; first difference near %q", len(seen), len(want), firstDiff(want, seen))
	}
}

func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return a[i]
		}
	}
	return ""
}

// TestGeneratedRequestsSucceedOnReference: no generated request fails
// (the workloads hold only valid requests), and the paper's anchors
// hold on the reference server.
func TestGeneratedRequestsSucceedOnReference(t *testing.T) {
	for _, name := range workloadNames(t) {
		w, reqs := take(t, name, 13, 300)
		o := newOracle(w)
		if err := o.ensure(append(reqs, w.fill...)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if name == "interactive" {
			if err := o.checkAnchors(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestSelfTimeTable(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Name: "bench.request", Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Name: "skyline.serve", Start: 0, End: 60},
		{Req: 1, ID: 3, Parent: 1, Name: "dse.explore", Start: 60, End: 80, OnPath: true},
		{Req: 1, ID: 4, Parent: 1, Name: "core.analyze", Start: 80, End: 90},
	}
	table := selfTimeTable(spans)
	for _, want := range []string{"bench.request", "skyline.encode_write (derived)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	// The root covers 100ns, its children 90ns of it.
	if got := covered(spans[0], spans[1:]); got != 90 {
		t.Errorf("covered = %d, want 90", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP x
skyline_queue_wait_seconds{quantile="0.99"} 0.002
skyline_request_duration_seconds{endpoint="/explore",quantile="0.99"} 0.004
skyline_request_duration_seconds{endpoint="/healthz",quantile="0.99"} 0.009
skyline_request_duration_seconds{endpoint="/grid.svg",quantile="0.5"} 0.007
skyline_shed_total{reason="queue_full"} 3
skyline_shed_total{reason="quota"} 1
`
	q, s, sheds := parseMetrics(text)
	if q != 0.002 || s != 0.004 || sheds != 4 {
		t.Fatalf("parseMetrics = %v %v %v", q, s, sheds)
	}
}

// classShares is the realised share of each mix class in reqs.
func classShares(reqs []request) map[string]float64 {
	out := map[string]float64{}
	for _, r := range reqs {
		out[r.Class]++
	}
	for k := range out {
		out[k] /= float64(len(reqs))
	}
	return out
}
