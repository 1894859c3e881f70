package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func mustOpen(t *testing.T, dir string, limit int64) *Store {
	t.Helper()
	s, err := Open(dir, limit)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// close releases the store's segment files; tests that open many
// stores in one process (the fuzz target) call it.
func (s *Store) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// segmentFiles lists the store's segment paths in sequence order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// onlySegment returns the path of the store's single segment.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	paths := segmentFiles(t, dir)
	if len(paths) != 1 {
		t.Fatalf("segments/ holds %d files; want exactly 1", len(paths))
	}
	return paths[0]
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	qs, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	return len(qs)
}

func TestRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	payload := []byte("line one\nline two\n")
	if !s.Put("explore/v1\nkey-a", payload) {
		t.Fatal("Put declined")
	}
	got, ok := s.Get("explore/v1\nkey-a")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if _, ok := s.Get("explore/v1\nkey-b"); ok {
		t.Fatal("Get of unknown key hit")
	}
	st := s.Stats()
	if st.Artifacts != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("Stats = %+v; want 1 artifact, 1 hit, 1 miss, 1 put", st)
	}
	if st.Bytes <= int64(len(payload)) {
		t.Fatalf("Stats.Bytes = %d; want payload plus header", st.Bytes)
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store Get hit")
	}
	if s.Put("k", []byte("v")) {
		t.Fatal("nil store Put accepted")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store Stats = %+v; want zeros", st)
	}
}

func TestPutDeclinesEmptyAndOversize(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 64)
	if s.Put("k", nil) {
		t.Fatal("Put accepted empty payload")
	}
	if s.Put("k", bytes.Repeat([]byte("x"), 1024)) {
		t.Fatal("Put accepted a payload past the byte limit")
	}
	if st := s.Stats(); st.Puts != 0 || st.Artifacts != 0 {
		t.Fatalf("Stats = %+v; want nothing stored", st)
	}
}

// TestReopenRecovers is the warm-restart core: artifacts written by one
// Store are served by a fresh Store over the same directory, and a
// later record for a key wins over an earlier one.
func TestReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	a, b := []byte("payload a\n"), []byte("payload b\n")
	s.Put("key-a", []byte("superseded a\n"))
	s.Put("key-a", a)
	s.Put("key-b", b)

	s2 := mustOpen(t, dir, 0)
	if st := s2.Stats(); st.RecoveredArtifacts != 2 || st.Artifacts != 2 {
		t.Fatalf("after reopen Stats = %+v; want 2 recovered artifacts", st)
	}
	if got, ok := s2.Get("key-a"); !ok || !bytes.Equal(got, a) {
		t.Fatalf("reopened Get(key-a) = %q, %v", got, ok)
	}
	if got, ok := s2.Get("key-b"); !ok || !bytes.Equal(got, b) {
		t.Fatalf("reopened Get(key-b) = %q, %v", got, ok)
	}
}

// TestOpenDiscardsTornTemp: bytes at a segment's end that do not form
// a whole record are a write that never finished — the recovery scan
// must truncate them, not index them.
func TestOpenDiscardsTornTemp(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, 0) // creates the layout
	torn := filepath.Join(dir, "segments", "00000001.seg")
	if err := os.WriteFile(torn, []byte("half an artifa"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	if st := s.Stats(); st.DiscardedTemp != 1 || st.RecoveredArtifacts != 0 {
		t.Fatalf("Stats = %+v; want 1 discarded temp, 0 recovered", st)
	}
	if n := fileSize(t, torn); n != 0 {
		t.Fatalf("torn segment still holds %d bytes; want them truncated", n)
	}
}

// TestTornTailAtOpen: a crash mid-append leaves a partial record after
// complete ones. Open serves the complete records, discards the torn
// one, and the next Put appends cleanly after them.
func TestTornTailAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put("key-a", []byte("complete a\n"))
	s.Put("key-b", []byte("complete b\n"))
	seg := onlySegment(t, dir)
	good := fileSize(t, seg)
	torn := encodeRecord(kindPut, sha256.Sum256([]byte("key-c")), []byte("torn away\n"))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, 0)
	st := s2.Stats()
	if st.DiscardedTemp != 1 || st.RecoveredArtifacts != 2 || st.Quarantined != 1 {
		t.Fatalf("reopen Stats = %+v; want 2 recovered, the torn tail discarded and quarantined", st)
	}
	if n := fileSize(t, seg); n != good {
		t.Fatalf("segment is %d bytes after reopen; want truncated to %d", n, good)
	}
	for k, want := range map[string]string{"key-a": "complete a\n", "key-b": "complete b\n"} {
		if got, ok := s2.Get(k); !ok || string(got) != want {
			t.Fatalf("reopened Get(%s) = %q, %v", k, got, ok)
		}
	}
	if _, ok := s2.Get("key-c"); ok {
		t.Fatal("torn record served")
	}
	if !s2.Put("key-c", []byte("rewritten c\n")) {
		t.Fatal("Put after torn-tail recovery declined")
	}
	s3 := mustOpen(t, dir, 0)
	if st := s3.Stats(); st.DiscardedTemp != 0 || st.RecoveredArtifacts != 3 {
		t.Fatalf("second reopen Stats = %+v; want 3 recovered, nothing torn", st)
	}
	if got, ok := s3.Get("key-c"); !ok || string(got) != "rewritten c\n" {
		t.Fatalf("Get(key-c) after clean append = %q, %v", got, ok)
	}
}

// TestBitFlipQuarantined: a flipped bit in the payload or in the
// header's key-hash field is never served under any key — neither by
// the store that notices it nor after a reopen.
func TestBitFlipQuarantined(t *testing.T) {
	for name, at := range map[string]func(rec int64) int64{
		// The header still frames the record, so only the checksum
		// can catch a payload flip.
		"payload":  func(rec int64) int64 { return rec - 3 },
		"key hash": func(int64) int64 { return hashOff + 5 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 0)
			payload := []byte("trusted bytes, definitely\n")
			s.Put("key", payload)

			path := onlySegment(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[at(int64(len(raw)))] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			if got, ok := s.Get("key"); ok {
				t.Fatalf("Get served corrupt payload %q", got)
			}
			st := s.Stats()
			if st.Quarantined != 1 || st.Artifacts != 0 {
				t.Fatalf("Stats = %+v; want record quarantined and dropped", st)
			}
			if n := quarantineCount(t, dir); n != 1 {
				t.Fatalf("quarantine/ holds %d files; want the flipped record", n)
			}
			// Once quarantined it stays a miss — never served, never retried.
			if _, ok := s.Get("key"); ok {
				t.Fatal("Get hit after quarantine")
			}
			s2 := mustOpen(t, dir, 0)
			if got, ok := s2.Get("key"); ok {
				t.Fatalf("reopened Get served corrupt payload %q", got)
			}
			if st := s2.Stats(); st.Quarantined != 0 || st.Hits != 0 {
				t.Fatalf("reopen Stats = %+v; want the tombstoned record skipped", st)
			}
		})
	}
}

// TestBitFlipUnservedAfterReopen: a flip that no Get saw before the
// restart is caught on the first read after it.
func TestBitFlipUnservedAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put("key", []byte("trusted bytes, definitely\n"))
	path := onlySegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	if got, ok := s2.Get("key"); ok {
		t.Fatalf("reopened Get served corrupt payload %q", got)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats = %+v; want the flipped record quarantined on read", st)
	}
}

func TestTruncationQuarantined(t *testing.T) {
	t.Run("at read", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, 0)
		s.Put("key", []byte("a payload long enough to truncate meaningfully\n"))
		if err := os.Truncate(onlySegment(t, dir), 100); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("key"); ok {
			t.Fatal("Get served a truncated record")
		}
		if st := s.Stats(); st.Quarantined != 1 || st.ReadErrors != 0 {
			t.Fatalf("Stats = %+v; want truncated record quarantined, not a read error", st)
		}
	})
	t.Run("at open", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, 0)
		s.Put("key", []byte("a payload long enough to truncate meaningfully\n"))
		if err := os.Truncate(onlySegment(t, dir), 40); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir, 0)
		st := s2.Stats()
		if st.RecoveredArtifacts != 0 || st.Quarantined != 1 {
			t.Fatalf("reopen Stats = %+v; want scan to quarantine the truncated record", st)
		}
		if _, ok := s2.Get("key"); ok {
			t.Fatal("reopened Get served a truncated record")
		}
	})
}

func TestOpenQuarantinesForeignFile(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, 0)
	// A file whose name is not a segment's must never be scanned.
	alien := filepath.Join(dir, "segments", "README")
	if err := os.WriteFile(alien, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	if st := s.Stats(); st.RecoveredArtifacts != 0 || st.Quarantined != 1 {
		t.Fatalf("Stats = %+v; want foreign file quarantined", st)
	}
	if _, err := os.Stat(alien); !os.IsNotExist(err) {
		t.Fatalf("foreign file still in segments/ (stat err %v)", err)
	}
}

// TestOpenIgnoresOldLayout: the one-file-per-artifact layout is
// neither read nor migrated — its answers are recomputed.
func TestOpenIgnoresOldLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "objects", "ab", fmt.Sprintf("%x", sha256.Sum256([]byte("key"))))
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("reprostore1 whatever 3\nold"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	if st := s.Stats(); st.RecoveredArtifacts != 0 || st.Quarantined != 0 || st.DiscardedTemp != 0 {
		t.Fatalf("Stats = %+v; want the old layout ignored", st)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("old-layout artifact served")
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("old-layout file touched: %v", err)
	}
}

func TestEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	// Each record is 177 bytes (77-byte header + 100 payload). A
	// 400-byte budget rolls segments at 50 bytes, so every record gets
	// its own segment, and the budget holds two.
	s := mustOpen(t, t.TempDir(), 400)
	for i := 0; i < 4; i++ {
		if !s.Put(fmt.Sprintf("key-%d", i), payload) {
			t.Fatalf("Put key-%d declined", i)
		}
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Artifacts != 2 || st.Bytes > 400 {
		t.Fatalf("Stats = %+v; want 2 evictions, 2 artifacts within budget", st)
	}
	if _, ok := s.Get("key-0"); ok {
		t.Fatal("oldest artifact survived eviction")
	}
	if _, ok := s.Get("key-3"); !ok {
		t.Fatal("newest artifact was evicted")
	}
	if n := len(segmentFiles(t, s.Dir())); n != 2 {
		t.Fatalf("segments/ holds %d files after eviction; want 2", n)
	}
}

// TestReopenPreservesRecencyOrder: segment sequence is write order, so
// a reopen under a smaller budget evicts the oldest segments first.
func TestReopenPreservesRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	// A 600-byte budget rolls at 75 bytes: one 177-byte record per
	// segment, and all three fit.
	s := mustOpen(t, dir, 600)
	payload := bytes.Repeat([]byte("y"), 100)
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("key-%d", i), payload)
	}
	// Reopen under a budget that holds two: the scan must evict key-0
	// (oldest segment), keeping the two most recent.
	s2 := mustOpen(t, dir, 400)
	if _, ok := s2.Get("key-0"); ok {
		t.Fatal("reopen kept the oldest artifact past the budget")
	}
	for _, k := range []string{"key-1", "key-2"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("reopen evicted %s; want the newest two kept", k)
		}
	}
}

// TestGetRacingEvictionMisses: a Get that looked a record up before its
// segment was evicted misses — it is neither a read error nor a
// quarantine.
func TestGetRacingEvictionMisses(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 400)
	payload := bytes.Repeat([]byte("z"), 100)
	s.Put("key-0", payload)
	h := sha256.Sum256([]byte("key-0"))
	s.mu.Lock()
	loc := s.index[h]
	s.mu.Unlock()
	s.Put("key-1", payload)
	s.Put("key-2", payload) // evicts key-0's segment
	if !loc.seg.evicted.Load() {
		t.Fatal("key-0's segment was not evicted")
	}
	if got, ok := s.read(h, loc); ok {
		t.Fatalf("read of an evicted segment served %q", got)
	}
	if st := s.Stats(); st.ReadErrors != 0 || st.Quarantined != 0 {
		t.Fatalf("Stats = %+v; want a plain miss", st)
	}
}

// TestGetConcurrentWithEviction runs Gets against a store whose Puts
// evict constantly; run it under -race.
func TestGetConcurrentWithEviction(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", (g+i)%8)
				if g == 0 {
					s.Put(key, bytes.Repeat([]byte(key), 20))
				} else if got, ok := s.Get(key); ok && !bytes.Equal(got, bytes.Repeat([]byte(key), 20)) {
					t.Errorf("Get(%s) = %q", key, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.ReadErrors != 0 || st.Quarantined != 0 || st.Evictions == 0 {
		t.Fatalf("Stats = %+v; want evictions and no read errors or quarantines", st)
	}
}

// TestReadFaultRetries: a fault that dies before the retry budget is
// invisible; one that outlasts it is a miss plus a read error.
func TestReadFaultRetries(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	payload := []byte("worth retrying for\n")
	s.Put("key", payload)

	disarm := faultinject.Enable(faultinject.SiteStoreRead, faultinject.Fault{Times: retryAttempts - 1})
	got, ok := s.Get("key")
	disarm()
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get under transient fault = %q, %v; want retried success", got, ok)
	}
	if st := s.Stats(); st.ReadErrors != 0 || st.Hits != 1 {
		t.Fatalf("Stats = %+v; want a clean hit after retries", st)
	}

	disarm = faultinject.Enable(faultinject.SiteStoreRead, faultinject.Fault{Times: retryAttempts})
	_, ok = s.Get("key")
	disarm()
	if ok {
		t.Fatal("Get hit through an exhausted retry budget")
	}
	st := s.Stats()
	if st.ReadErrors != 1 || st.Quarantined != 0 {
		t.Fatalf("Stats = %+v; want 1 read error and no quarantine", st)
	}
	// The record itself is intact: the next clean Get serves it.
	if got, ok := s.Get("key"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after fault cleared = %q, %v", got, ok)
	}
}

// TestDegradedTrip: degradeThreshold consecutive abandoned operations
// trip the recompute-only state; the cooldown expiring half-opens it.
func TestDegradedTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	clock := time.Unix(1700000000, 0)
	s.now = func() time.Time { return clock }
	s.cooldown = time.Minute

	defer faultinject.Enable(faultinject.SiteStorePublish, faultinject.Fault{})()
	for i := 0; i < degradeThreshold; i++ {
		if s.Put(fmt.Sprintf("key-%d", i), []byte("doomed\n")) {
			t.Fatalf("Put %d succeeded under a publish fault", i)
		}
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedTrips != 1 || st.WriteErrors != uint64(degradeThreshold) {
		t.Fatalf("Stats = %+v; want degraded after %d write failures", st, degradeThreshold)
	}
	// Degraded: Put declines without touching the disk, Get misses.
	if s.Put("more", []byte("x\n")) {
		t.Fatal("degraded Put accepted")
	}
	if _, ok := s.Get("key-0"); ok {
		t.Fatal("degraded Get hit")
	}
	if st := s.Stats(); st.WriteErrors != uint64(degradeThreshold) {
		t.Fatalf("degraded Put still reached the disk: %+v", st)
	}

	// Cooldown expires → half-open: the next operation probes the disk
	// again (the fault is still armed here, so it re-trips only after
	// another full threshold of failures).
	clock = clock.Add(2 * time.Minute)
	if st := s.Stats(); st.Degraded {
		t.Fatalf("Stats = %+v; want degraded state expired", st)
	}
	faultinject.Reset()
	if !s.Put("recovered", []byte("back\n")) {
		t.Fatal("Put declined after cooldown with a healthy disk")
	}
	if got, ok := s.Get("recovered"); !ok || !bytes.Equal(got, []byte("back\n")) {
		t.Fatalf("Get after recovery = %q, %v", got, ok)
	}
}

// TestPublishFaultLeavesNothing: a failed write attempt — faulted
// before the append, failing in it, or faulted after its fsync — leaves
// the segment at its old length, so crash debris never accumulates
// during normal operation and a reopen finds nothing torn.
func TestPublishFaultLeavesNothing(t *testing.T) {
	for name, fail := range map[string]func(s *Store) (restore func()){
		"write fault": func(*Store) func() {
			return faultinject.Enable(faultinject.SiteStoreWrite, faultinject.Fault{Times: retryAttempts})
		},
		"publish fault": func(*Store) func() {
			return faultinject.Enable(faultinject.SiteStorePublish, faultinject.Fault{Times: retryAttempts})
		},
		"failed append": func(s *Store) func() {
			// A read-only descriptor makes the append itself fail.
			rw := s.active.f
			ro, err := os.Open(rw.Name())
			if err != nil {
				t.Fatal(err)
			}
			s.active.f = ro
			return func() { s.active.f = rw; ro.Close() }
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 0)
			s.Put("kept", []byte("published\n"))
			seg := onlySegment(t, dir)
			before := fileSize(t, seg)
			restore := fail(s)
			if s.Put("key", []byte("never published\n")) {
				t.Fatal("Put succeeded through a failed write")
			}
			restore()
			if n := fileSize(t, seg); n != before {
				t.Fatalf("segment is %d bytes after a failed Put; want %d", n, before)
			}
			if st := s.Stats(); st.WriteErrors != 1 || st.Artifacts != 1 || st.Bytes != before {
				t.Fatalf("Stats = %+v; want 1 write error and only the kept record", st)
			}
			if _, ok := s.Get("key"); ok {
				t.Fatal("failed Put served")
			}
			s2 := mustOpen(t, dir, 0)
			if st := s2.Stats(); st.DiscardedTemp != 0 || st.RecoveredArtifacts != 1 {
				t.Fatalf("reopen Stats = %+v; want only the kept record, nothing torn", st)
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 16<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", (g+i)%16)
				if i%2 == 0 {
					s.Put(key, []byte(key+" payload\n"))
				} else if got, ok := s.Get(key); ok {
					if want := key + " payload\n"; string(got) != want {
						t.Errorf("Get(%s) = %q; want %q", key, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Stats() // must not race with the workers' last operations
}

func TestArtifactCodec(t *testing.T) {
	payload := []byte("some bytes\n")
	h := sha256.Sum256([]byte("key"))
	got, err := decodeRecord(encodeRecord(kindPut, h, payload), h)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode(encode(p)) = %q, %v", got, err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"flipped digest":  func(b []byte) []byte { b[sumOff] ^= 1; return b },
		"flipped kind":    func(b []byte) []byte { b[kindOff] = kindTomb; return b },
		"flipped key":     func(b []byte) []byte { b[hashOff] ^= 1; return b },
		"flipped length":  func(b []byte) []byte { b[headerLen-1] ^= 1; return b },
		"flipped payload": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated":       func(b []byte) []byte { return b[:len(b)-4] },
		"header only":     func(b []byte) []byte { return b[:headerLen-1] },
		"other key":       func([]byte) []byte { return encodeRecord(kindPut, sha256.Sum256([]byte("other")), payload) },
		"tombstone":       func([]byte) []byte { return encodeRecord(kindTomb, h, nil) },
	} {
		bad := mutate(encodeRecord(kindPut, h, payload))
		if _, err := decodeRecord(bad, h); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: decodeRecord = %v; want errCorrupt", name, err)
		}
	}
}
