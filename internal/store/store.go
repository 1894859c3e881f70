// Package store is the durable, content-addressed result tier behind
// the in-memory analysis cache: completed exploration responses —
// /explore NDJSON result sets (including top-K selections and Pareto
// frontiers) and /grid.svg heatmaps — are spilled to disk keyed by a
// canonical hash of the request identity, and repeat requests after a
// process restart are answered from I/O instead of CPU.
//
// Artifacts are records appended to a few large segment files, with an
// in-memory index from key hash to record position; the engine is the
// recompute path of last resort. Every failure mode degrades toward
// recompute, never toward wrong bytes:
//
//   - Writes are crash-safe: a Put appends one record with a single
//     write and fsyncs it before indexing it. A failed attempt
//     truncates the segment back to its old end; a crash mid-append
//     leaves a torn tail that the next Open truncates.
//   - Every record carries a SHA-256 checksum over its key hash and
//     payload, verified on every read. A mismatch quarantines the
//     record — its bytes copied aside, a tombstone appended so it stays
//     unserved after a restart, counted — and reports a miss.
//   - Transient I/O errors retry with capped backoff; persistent
//     failure trips the store into a recompute-only degraded state for
//     a cooldown window, surfaced via Stats (and from there on the
//     Skyline server's /healthz and /metrics).
//
// On-disk layout under the store directory:
//
//	segments/<seq>.seg   append-only record files, oldest = lowest seq;
//	                     eviction deletes whole segments, oldest first
//	quarantine/          copies of records that failed verification
//
// The record format, the key contract and the degraded-mode semantics
// are specified in docs/PERSISTENCE.md. One process owns a store
// directory at a time.
//
// A Store is safe for concurrent use. The zero-value *Store (nil) is
// a valid "store off" tier: Get always misses and Put is a no-op.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Record layout. The checksum covers everything after itself — kind,
// key hash, length and payload — so a flipped key field can never
// serve one key's bytes under another key. The magic is a format
// version tag, checked on its own.
//
//	magic [4] | sha256 [32] | kind [1] | key hash [32] | payload len [8, big-endian] | payload
const (
	recordMagic = "rsg1"
	sumOff      = 4 // len(recordMagic)
	kindOff     = sumOff + sha256.Size
	hashOff     = kindOff + 1
	lenOff      = hashOff + sha256.Size
	headerLen   = lenOff + 8
)

// Record kinds. A tombstone (zero-length payload) hides every earlier
// record of its key from the Open scan.
const (
	kindPut  byte = 'p'
	kindTomb byte = 't'
)

// maxSegmentBytes caps the size a segment grows to before Put rolls to
// a new one; smaller limits roll at limit/8 so eviction stays granular.
const maxSegmentBytes = 64 << 20

const (
	// retryAttempts is how many times a transient I/O failure is tried
	// before the operation is abandoned (and counted as an error).
	retryAttempts = 3
	// retryBackoff is the first inter-attempt sleep; it doubles per
	// attempt (2ms, 4ms) so a glitching disk gets a beat to recover
	// without a request ever stalling for long.
	retryBackoff = 2 * time.Millisecond
	// degradeThreshold is how many consecutive failed operations (each
	// already retried) trip the store into the degraded state.
	degradeThreshold = 3
	// defaultCooldown is how long a tripped store stays recompute-only
	// before probing the disk again (half-open).
	defaultCooldown = 15 * time.Second
)

// segment is one open append-only record file.
type segment struct {
	seq uint64
	f   *os.File
	// size is the committed length: every byte below it is a complete,
	// fsynced record. It is written holding both wmu and mu, so either
	// lock suffices to read it.
	size int64
	// evicted is set before f is closed, so a reader whose ReadAt lost
	// the race to an eviction reports a miss rather than an I/O error.
	evicted atomic.Bool
}

// location is where one indexed record lives.
type location struct {
	seg *segment
	off int64 // record start
	n   int64 // payload length
}

// Store is a bounded on-disk artifact store. Construct with Open.
type Store struct {
	dir   string
	limit int64
	roll  int64 // segment size past which Put starts a new segment

	// wmu serializes appends; active and nextSeq belong to it. It is
	// taken before mu, never while holding mu.
	wmu     sync.Mutex
	active  *segment
	nextSeq uint64

	// mu guards the index, the segment list (oldest first) and bytes.
	// Record reads happen outside it on the segment's open file.
	mu    sync.Mutex
	index map[[sha256.Size]byte]location
	segs  []*segment
	bytes int64 // total committed segment bytes, the limit's measure

	hits          atomic.Uint64
	misses        atomic.Uint64
	puts          atomic.Uint64
	quarantined   atomic.Uint64
	readErrors    atomic.Uint64
	writeErrors   atomic.Uint64
	evictions     atomic.Uint64
	degradedTrips atomic.Uint64

	recovered     int // artifacts the Open scan indexed
	discardedTemp int // torn segment tails the Open scan truncated

	// consecFails counts consecutive failed operations; at
	// degradeThreshold the store trips degraded until degradedUntil
	// (UnixNano). quarSeq disambiguates quarantine file names.
	consecFails   atomic.Int64
	degradedUntil atomic.Int64
	quarSeq       atomic.Uint64

	// cooldown and now are fixed at Open; tests shorten the cooldown
	// and pin the clock.
	cooldown time.Duration
	now      func() time.Time
}

// Stats is a point-in-time store snapshot. Counters are cumulative
// since Open; Artifacts/Bytes describe the current index and segments.
type Stats struct {
	Artifacts int `json:"artifacts"`
	// Bytes is the size of the segment files, superseded records
	// included: the quantity LimitBytes bounds.
	Bytes      int64 `json:"bytes"`
	LimitBytes int64 `json:"limit_bytes"`
	// Hits/Misses count Get outcomes (a degraded-mode Get is a miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts artifacts durably written (spills).
	Puts uint64 `json:"puts"`
	// Quarantined counts records copied aside after failing
	// verification — at Open or on a read — and never served.
	Quarantined uint64 `json:"quarantined"`
	// ReadErrors/WriteErrors count operations abandoned after their
	// retry budget (verification failures are Quarantined, not errors).
	ReadErrors  uint64 `json:"read_errors"`
	WriteErrors uint64 `json:"write_errors"`
	// Evictions counts indexed artifacts dropped with their segment.
	Evictions uint64 `json:"evictions"`
	// RecoveredArtifacts/DiscardedTemp describe the Open scan: intact
	// artifacts re-indexed, and torn segment tails truncated.
	RecoveredArtifacts int `json:"recovered_artifacts"`
	DiscardedTemp      int `json:"discarded_temp"`
	// Degraded is true while the store is in its recompute-only
	// cooldown window; DegradedTrips counts how often it got there.
	Degraded      bool   `json:"degraded"`
	DegradedTrips uint64 `json:"degraded_trips"`
}

var (
	// errCorrupt marks verification failures — a bad header, a record
	// running past EOF, a key or checksum mismatch. Unlike transient
	// I/O errors it is deterministic: the record is quarantined, never
	// retried.
	errCorrupt = errors.New("store: record failed verification")
	// errEvicted marks a read that lost the race to its segment's
	// eviction: a plain miss, neither retried nor counted as an error.
	errEvicted = errors.New("store: segment evicted")
)

// Open opens (creating if needed) the store rooted at dir, bounded to
// limitBytes of segment data (0 = unbounded), and runs the recovery
// scan: segments are read in sequence order, a later record for a key
// wins, a torn tail is quarantined and truncated, and the oldest
// segments are evicted past the limit. Files in segments/ that are not
// segments are quarantined. A leftover objects/ directory of the old
// one-file-per-artifact layout is neither read nor removed; its
// answers are recomputed.
func Open(dir string, limitBytes int64) (*Store, error) {
	s := &Store{
		dir:      dir,
		limit:    limitBytes,
		roll:     maxSegmentBytes,
		nextSeq:  1,
		index:    make(map[[sha256.Size]byte]location),
		cooldown: defaultCooldown,
		now:      time.Now,
	}
	if limitBytes > 0 {
		s.roll = min(limitBytes/8, maxSegmentBytes)
	}
	for _, d := range []string{dir, s.segmentsDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	if err := s.scan(); err != nil {
		for _, seg := range s.segs {
			seg.f.Close()
		}
		return nil, err
	}
	s.recovered = len(s.index)
	s.mu.Lock()
	victims := s.evictLocked(0)
	s.mu.Unlock()
	dropSegments(victims)
	if n := len(s.segs); n > 0 {
		s.active = s.segs[n-1]
	}
	return s, nil
}

func (s *Store) segmentsDir() string   { return filepath.Join(s.dir, "segments") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

func (s *Store) segmentPath(seq uint64) string {
	return filepath.Join(s.segmentsDir(), fmt.Sprintf("%08d.seg", seq))
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// scan opens every segment in sequence order and indexes its records.
func (s *Store) scan() error {
	des, err := os.ReadDir(s.segmentsDir())
	if err != nil {
		return fmt.Errorf("store: scanning segments: %w", err)
	}
	var seqs []uint64
	for _, de := range des {
		name := de.Name()
		seq, perr := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if perr != nil || s.segmentPath(seq) != filepath.Join(s.segmentsDir(), name) {
			s.quarantineFile(filepath.Join(s.segmentsDir(), name), name)
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		f, err := os.OpenFile(s.segmentPath(seq), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("store: opening segment: %w", err)
		}
		seg := &segment{seq: seq, f: f}
		s.segs = append(s.segs, seg)
		if err := s.scanSegment(seg); err != nil {
			return fmt.Errorf("store: scanning segment %s: %w", f.Name(), err)
		}
		s.bytes += seg.size
		s.nextSeq = seq + 1
	}
	return nil
}

// scanSegment indexes seg's records by their headers alone (payloads
// are verified on read) and truncates a torn tail: everything from the
// first malformed header, or the first record running past EOF, on.
func (s *Store) scanSegment(seg *segment) error {
	info, err := seg.f.Stat()
	if err != nil {
		return err
	}
	end := info.Size()
	var hdr [headerLen]byte
	off := int64(0)
	for end-off >= headerLen {
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		kind, h, n, ok := parseHeader(hdr[:])
		if !ok || n > uint64(end-off-headerLen) {
			break
		}
		if kind == kindPut {
			s.index[h] = location{seg: seg, off: off, n: int64(n)}
		} else {
			delete(s.index, h)
		}
		off += headerLen + int64(n)
	}
	seg.size = off
	if off == end {
		return nil
	}
	s.quarantineCopy(fmt.Sprintf("%08d.seg@%d", seg.seq, off), io.NewSectionReader(seg.f, off, end-off))
	if err := seg.f.Truncate(off); err != nil {
		return err
	}
	s.discardedTemp++
	return nil
}

// parseHeader decodes a record header; ok is false when it cannot be
// one (bad magic, unknown kind, a put without payload or a tombstone
// with one).
func parseHeader(hdr []byte) (kind byte, h [sha256.Size]byte, n uint64, ok bool) {
	kind = hdr[kindOff]
	copy(h[:], hdr[hashOff:lenOff])
	n = binary.BigEndian.Uint64(hdr[lenOff:headerLen])
	ok = string(hdr[:sumOff]) == recordMagic &&
		(kind == kindPut && n > 0 || kind == kindTomb && n == 0)
	return kind, h, n, ok
}

// encodeRecord frames payload under key hash h.
func encodeRecord(kind byte, h [sha256.Size]byte, payload []byte) []byte {
	rec := make([]byte, headerLen+len(payload))
	copy(rec, recordMagic)
	rec[kindOff] = kind
	copy(rec[hashOff:], h[:])
	binary.BigEndian.PutUint64(rec[lenOff:], uint64(len(payload)))
	copy(rec[headerLen:], payload)
	sum := sha256.Sum256(rec[kindOff:])
	copy(rec[sumOff:], sum[:])
	return rec
}

// decodeRecord verifies that rec is a put record for key hash h and
// returns its payload; any inconsistency is errCorrupt.
func decodeRecord(rec []byte, h [sha256.Size]byte) ([]byte, error) {
	if len(rec) < headerLen {
		return nil, errCorrupt
	}
	kind, got, n, ok := parseHeader(rec)
	if !ok || kind != kindPut || got != h || n != uint64(len(rec)-headerLen) {
		return nil, errCorrupt
	}
	if sum := sha256.Sum256(rec[kindOff:]); !bytes.Equal(sum[:], rec[sumOff:kindOff]) {
		return nil, errCorrupt
	}
	return rec[headerLen:], nil
}

// withRetry runs op up to retryAttempts times with doubling backoff.
// op must be idempotent. Corruption and eviction are deterministic, so
// they return at once.
func withRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		err = op()
		if err == nil || errors.Is(err, errCorrupt) || errors.Is(err, errEvicted) {
			return err
		}
		if attempt < retryAttempts-1 {
			time.Sleep(retryBackoff << attempt)
		}
	}
	return err
}

// isDegraded reports whether the store is inside a recompute-only
// cooldown window.
func (s *Store) isDegraded() bool {
	return s.now().UnixNano() < s.degradedUntil.Load()
}

// noteFailure records one abandoned operation; degradeThreshold
// consecutive failures trip the degraded state for one cooldown.
func (s *Store) noteFailure() {
	if s.consecFails.Add(1) >= degradeThreshold {
		s.consecFails.Store(0)
		s.degradedUntil.Store(s.now().Add(s.cooldown).UnixNano())
		s.degradedTrips.Add(1)
	}
}

func (s *Store) noteSuccess() { s.consecFails.Store(0) }

// Get returns the payload stored under key. Any failure is a miss:
// a degraded store short-circuits, an I/O error (after retries) counts
// a read error, a verification failure quarantines the record, and a
// read that loses the race to its segment's eviction just misses.
// Safe for concurrent use; nil receiver always misses.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	if s.isDegraded() {
		s.misses.Add(1)
		return nil, false
	}
	h := sha256.Sum256([]byte(key))
	s.mu.Lock()
	loc, ok := s.index[h]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	if payload, ok := s.read(h, loc); ok {
		s.hits.Add(1)
		return payload, true
	}
	s.misses.Add(1)
	return nil, false
}

// read fetches and verifies the record at loc with one ReadAt.
func (s *Store) read(h [sha256.Size]byte, loc location) ([]byte, bool) {
	rec := make([]byte, headerLen+loc.n)
	var got int
	err := withRetry(func() error {
		if ferr := faultinject.Fire(faultinject.SiteStoreRead); ferr != nil {
			return ferr
		}
		var rerr error
		got, rerr = loc.seg.f.ReadAt(rec, loc.off)
		switch {
		case rerr == nil:
			return nil
		case loc.seg.evicted.Load():
			return errEvicted
		case errors.Is(rerr, io.EOF):
			return errCorrupt // the record runs past the end of its segment
		}
		return rerr
	})
	var payload []byte
	if err == nil {
		payload, err = decodeRecord(rec, h)
	}
	switch {
	case err == nil:
		s.noteSuccess()
		return payload, true
	case errors.Is(err, errCorrupt):
		s.quarantine(h, loc, rec[:got])
	case !errors.Is(err, errEvicted):
		s.readErrors.Add(1)
		s.noteFailure()
	}
	return nil, false
}

// Put durably stores payload under key (one append + fsync), evicting
// the oldest segments past the byte limit. It reports whether the
// artifact was written: a degraded store, an over-limit payload, an
// empty payload, or an exhausted retry budget all decline. Safe for
// concurrent use; nil receiver declines.
func (s *Store) Put(key string, payload []byte) bool {
	if s == nil || len(payload) == 0 {
		return false
	}
	if s.isDegraded() {
		return false
	}
	h := sha256.Sum256([]byte(key))
	rec := encodeRecord(kindPut, h, payload)
	if s.limit > 0 && int64(len(rec)) > s.limit {
		return false
	}
	err := withRetry(func() error {
		if ferr := faultinject.Fire(faultinject.SiteStoreWrite); ferr != nil {
			return ferr
		}
		return s.append(rec, h, true)
	})
	if err != nil {
		s.writeErrors.Add(1)
		s.noteFailure()
		return false
	}
	s.noteSuccess()
	s.puts.Add(1)
	return true
}

// append is one write attempt: the record goes at the active segment's
// committed end in one write, is fsynced, and only then counts as
// committed (and, for a put, indexed). A failed attempt truncates the
// segment back, so it leaves nothing behind. The store.publish seam
// fires between the fsync and the index insert.
func (s *Store) append(rec []byte, h [sha256.Size]byte, put bool) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	seg, err := s.activeFor(int64(len(rec)))
	if err != nil {
		return err
	}
	off := seg.size
	_, err = seg.f.WriteAt(rec, off)
	if err == nil {
		err = seg.f.Sync()
	}
	if err == nil && put {
		err = faultinject.Fire(faultinject.SiteStorePublish)
	}
	if err != nil {
		// If this truncate fails too, the bytes past size are still
		// unreachable: the next append overwrites them, and the Open
		// scan either truncates them or finds a complete record.
		_ = seg.f.Truncate(off)
		return err
	}
	s.mu.Lock()
	seg.size += int64(len(rec))
	s.bytes += int64(len(rec))
	if put {
		s.index[h] = location{seg: seg, off: off, n: int64(len(rec) - headerLen)}
	}
	victims := s.evictLocked(1)
	s.mu.Unlock()
	dropSegments(victims)
	return nil
}

// activeFor returns the segment the next n-byte record goes to,
// rolling to a new one when the active segment would pass the roll
// size. Callers hold wmu.
func (s *Store) activeFor(n int64) (*segment, error) {
	if s.active != nil && (s.active.size == 0 || s.active.size+n <= s.roll) {
		return s.active, nil
	}
	seq := s.nextSeq
	s.nextSeq++ // a failed create retries under a fresh name
	f, err := os.OpenFile(s.segmentPath(seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if d, derr := os.Open(s.segmentsDir()); derr == nil {
		_ = d.Sync() // directory durability is best-effort; each record is synced
		d.Close()
	}
	seg := &segment{seq: seq, f: f}
	s.mu.Lock()
	s.segs = append(s.segs, seg)
	s.mu.Unlock()
	s.active = seg
	return seg, nil
}

// quarantine drops the record at loc from the index, copies its bytes
// aside and appends a tombstone so a restart does not index it again.
// Concurrent readers of the same record quarantine it once.
func (s *Store) quarantine(h [sha256.Size]byte, loc location, rec []byte) {
	s.mu.Lock()
	owned := s.index[h] == loc
	if owned {
		delete(s.index, h)
	}
	s.mu.Unlock()
	if !owned {
		return
	}
	s.quarantineCopy(fmt.Sprintf("%x", h), bytes.NewReader(rec))
	// Best-effort: without the tombstone a restart indexes the record
	// again, and the next read verifies and quarantines it again.
	_ = s.append(encodeRecord(kindTomb, h, nil), h, false)
}

// quarantineCopy keeps a copy of failed record bytes for inspection
// and counts them. The copy is evidence only: the bytes are already
// unreachable, so a failed copy changes nothing.
func (s *Store) quarantineCopy(name string, r io.Reader) {
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, s.quarSeq.Add(1)))
	if f, err := os.Create(dst); err == nil {
		_, _ = io.Copy(f, r)
		f.Close()
	}
	s.quarantined.Add(1)
}

// quarantineFile moves a foreign file out of segments/ (deleting it if
// even the move fails, so it can never be scanned) and counts it.
func (s *Store) quarantineFile(path, name string) {
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, s.quarSeq.Add(1)))
	if err := os.Rename(path, dst); err != nil {
		os.RemoveAll(path)
	}
	s.quarantined.Add(1)
}

// evictLocked drops the oldest segments, and the artifacts indexed in
// them, until the byte budget holds or only floor segments remain. It
// returns the dropped segments for dropSegments to delete once mu is
// released. Callers hold mu.
func (s *Store) evictLocked(floor int) []*segment {
	if s.limit <= 0 {
		return nil
	}
	var victims []*segment
	for s.bytes > s.limit && len(s.segs) > floor {
		seg := s.segs[0]
		s.segs = s.segs[1:]
		s.bytes -= seg.size
		for h, loc := range s.index {
			if loc.seg == seg {
				delete(s.index, h)
				s.evictions.Add(1)
			}
		}
		seg.evicted.Store(true)
		victims = append(victims, seg)
	}
	return victims
}

// dropSegments closes and deletes evicted segments. A reader that
// looked a record up before the eviction sees its ReadAt fail on the
// closed file and reports a miss.
func dropSegments(victims []*segment) {
	for _, seg := range victims {
		seg.f.Close()
		os.Remove(seg.f.Name())
	}
}

// Stats returns a point-in-time snapshot. Nil receiver returns zeros.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	artifacts, size := len(s.index), s.bytes
	s.mu.Unlock()
	return Stats{
		Artifacts:          artifacts,
		Bytes:              size,
		LimitBytes:         s.limit,
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		Puts:               s.puts.Load(),
		Quarantined:        s.quarantined.Load(),
		ReadErrors:         s.readErrors.Load(),
		WriteErrors:        s.writeErrors.Load(),
		Evictions:          s.evictions.Load(),
		RecoveredArtifacts: s.recovered,
		DiscardedTemp:      s.discardedTemp,
		Degraded:           s.isDegraded(),
		DegradedTrips:      s.degradedTrips.Load(),
	}
}
