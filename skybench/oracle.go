package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/skyline"
)

type digest [sha256.Size]byte

func digestOf(body []byte) digest { return sha256.Sum256(body) }

// oracle holds the reference body digest of every URL a run sends. The
// reference is the plainest server the package can build — no analysis
// cache, one worker per request, no store — so every cache, fan-out and
// store path of the timed server is checked against recomputation.
// Digests are computed before the phase that sends them, never while a
// phase is timed; during a phase the map is only read.
type oracle struct {
	ref     *skyline.Server
	digests map[string]digest
}

func newOracle(w *workload) *oracle {
	return &oracle{
		ref:     skyline.NewServerWith(w.newCatalog(), skyline.Options{Cache: core.CacheOff(), MaxWorkersPerRequest: 1}),
		digests: map[string]digest{},
	}
}

// ensure computes the reference digest of every URL in reqs not yet
// known. A generated request the reference does not answer with 200 is
// a benchmark bug: the workloads contain only requests that succeed.
func (o *oracle) ensure(reqs []request) error {
	var todo []string
	seen := map[string]bool{}
	for _, r := range reqs {
		if _, ok := o.digests[r.URL]; !ok && !seen[r.URL] {
			seen[r.URL] = true
			todo = append(todo, r.URL)
		}
	}
	out := make([]digest, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(todo); i += workers {
				rec := serveInProcess(o.ref, todo[i])
				if rec.code != 200 {
					errs[i] = fmt.Errorf("reference server answered %d to %s: %.200s", rec.code, todo[i], rec.body.String())
					continue
				}
				out[i] = sha256.Sum256(rec.body.Bytes())
			}
		}()
	}
	wg.Wait()
	for i, u := range todo {
		if errs[i] != nil {
			return errs[i]
		}
		o.digests[u] = out[i]
	}
	return nil
}

// matches reports whether body is the reference answer for u.
func (o *oracle) matches(u string, d digest) bool {
	want, ok := o.digests[u]
	return ok && want == d
}

// anchorURL is the paper's worked example: AscTec Pelican carrying an
// Nvidia TX2 running DroNet.
const anchorURL = "/api/analyze?algorithm=DroNet&compute=Nvidia+TX2&uav=AscTec+Pelican"

// checkAnchors asserts the paper's anchors on the reference server:
// the F-1 knee at ≈43 Hz and a safe velocity of ≈9.62 m/s.
func (o *oracle) checkAnchors() error {
	rec := serveInProcess(o.ref, anchorURL)
	var an struct {
		KneeHz float64 `json:"knee_hz"`
		VSafe  float64 `json:"safe_velocity_ms"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &an); err != nil {
		return fmt.Errorf("anchor response: %w", err)
	}
	if math.Abs(an.KneeHz-43) > 1 || math.Abs(an.VSafe-9.62) > 0.01 {
		return fmt.Errorf("paper anchors broken: knee %.3f Hz (want ≈43), v_safe %.4f m/s (want ≈9.62)", an.KneeHz, an.VSafe)
	}
	return nil
}
