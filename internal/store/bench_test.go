package store

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkStoreRoundTrip measures the full spill-and-recall cycle —
// encode, one fsync'd segment append, read-back with checksum
// verification — for a representative /explore artifact (~16 KiB of
// NDJSON). The fsync dominates; the bound in BENCH_dse.json is set
// generously because fsync latency varies wildly across filesystems.
func BenchmarkStoreRoundTrip(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte(`{"uav":"x","v_safe_ms":3.25,"power_w":15.5,"payload_g":250}`+"\n"), 280)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench/roundtrip/%d", i%64)
		if !s.Put(key, payload) {
			b.Fatal("Put declined")
		}
		if _, ok := s.Get(key); !ok {
			b.Fatal("Get missed")
		}
	}
}

// BenchmarkStoreWarmLookup measures the warm-restart serving path in
// isolation: Get over an already-written artifact — one index lookup,
// one ReadAt on the open segment, one SHA-256 over the record. This is the per-request
// cost a warm /explore hit pays instead of an engine run.
func BenchmarkStoreWarmLookup(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte(`{"uav":"x","v_safe_ms":3.25,"power_w":15.5,"payload_g":250}`+"\n"), 280)
	if !s.Put("bench/warm", payload) {
		b.Fatal("Put declined")
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("bench/warm"); !ok {
			b.Fatal("Get missed")
		}
	}
}
