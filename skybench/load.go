package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// newClient returns the load generator's HTTP client: at most conns
// connections to the server, kept alive, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// sample is one request as the client saw it. Times are measured from
// when the request was due, so a stall, of the server or of the
// generator, counts against every request that queued behind it.
type sample struct {
	latency  time.Duration // due → last body byte
	ttfb     time.Duration // due → first body byte
	wait     time.Duration // due → sent (generator backlog)
	late     time.Duration // how late the generator sent, given a free connection
	failed   bool          // non-200, transport error or body mismatch
	mismatch bool          // 200 with a body unlike the reference
	detail   string
}

// phase is one timed phase's outcome.
type phase struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration // process user+system time over the phase
	aborted bool
}

// loader drives one server generation from one process.
type loader struct {
	client *http.Client
	conns  int
	oracle *oracle
}

// fetch sends one GET and reads the whole body into buf's storage,
// hashing it. Each connection's worker owns one buf, so the generator
// adds little garbage to the heap it shares with the server.
func (l *loader) fetch(base, u string, buf []byte, h hash.Hash) (ttfb, done time.Time, code int, d digest, err error) {
	resp, err := l.client.Get(base + u)
	if err != nil {
		return ttfb, done, 0, d, err
	}
	defer resp.Body.Close()
	h.Reset()
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if ttfb.IsZero() {
				ttfb = time.Now()
			}
			h.Write(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return ttfb, done, resp.StatusCode, d, rerr
		}
	}
	done = time.Now()
	if ttfb.IsZero() {
		ttfb = done
	}
	h.Sum(d[:0])
	return ttfb, done, resp.StatusCode, d, nil
}

// run sends reqs[i] at dues[i] after the phase starts (open loop), over
// at most l.conns connections: a request due while every connection is
// busy waits in the generator's queue, and that wait counts in its
// latency. With missBudget ≥ 0 the phase stops sending once more than
// missBudget requests failed or exceeded limit — the rate has already
// failed — and returns after the in-flight requests end.
func (l *loader) run(base string, reqs []request, dues []time.Duration, limit time.Duration, missBudget int) phase {
	out := make([]sample, len(reqs))
	var next, misses atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, h := make([]byte, 32<<10), sha256.New()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				ready := time.Now()
				due := t0.Add(dues[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				first, done, code, d, err := l.fetch(base, reqs[i].URL, buf, h)
				s := sample{wait: max(0, sent.Sub(due)), late: sent.Sub(due)}
				if ready.After(due) {
					// The request waited for a connection; late is only
					// the generator's own delay once one was free.
					s.late = sent.Sub(ready)
				}
				switch {
				case err != nil:
					s.failed, s.detail = true, err.Error()
				case code != http.StatusOK:
					s.failed, s.detail = true, fmt.Sprintf("status %d", code)
				case !l.oracle.matches(reqs[i].URL, d):
					s.failed, s.mismatch, s.detail = true, true, "body differs from the reference"
				default:
					s.latency, s.ttfb = done.Sub(due), first.Sub(due)
				}
				out[i] = s
				if missBudget >= 0 && (s.failed || s.latency > limit) && misses.Add(1) > int64(missBudget) {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(t0), cpu: cpuTime() - cpu0, aborted: stop.Load()}
	n := min(int(next.Load()), len(reqs))
	p.samples = out[:n]
	return p
}

// closedLoop sends reqs back to back over l.conns connections — the
// untimed warm-up and fill, and the capacity calibration.
func (l *loader) closedLoop(base string, reqs []request) phase {
	return l.run(base, reqs, make([]time.Duration, len(reqs)), 0, -1)
}

// arrivals draws a Poisson schedule: n offsets with exponential gaps at
// rate per second.
func arrivals(r *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// arrivalsWithin draws a Poisson schedule at rate covering span.
func arrivalsWithin(r *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d > span {
			return out
		}
		out = append(out, d)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the operating system and resets
// the kernel's high-water mark of the process's resident set, so that
// peakRSS reports the peak of what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set size in bytes since the
// last resetPeakRSS (VmHWM in /proc/self/status).
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v) // "<n> kB"
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}
