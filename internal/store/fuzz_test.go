package store

import (
	"bytes"
	"os"
	"testing"
)

// fuzzPayloads are the records FuzzStoreOpen writes before the
// arbitrary bytes; a Get may only ever return one of these, under its
// own key.
var fuzzPayloads = map[string][]byte{
	"a": []byte("payload a\n"),
	"b": []byte("payload b, a little longer\n"),
	"c": bytes.Repeat([]byte("c"), 300),
}

// FuzzStoreOpen writes arbitrary bytes beside valid records — as the
// tail of the valid segment and as a segment of their own — and
// reopens the store. Open must not panic, every Get must miss or
// return exactly the payload Put under that key, and the recovered
// store must still take a Put.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir, 0)
		for _, k := range []string{"a", "b", "c"} {
			if !s.Put(k, fuzzPayloads[k]) {
				t.Fatalf("Put(%s) declined", k)
			}
		}
		s.close()
		f, err := os.OpenFile(s.segmentPath(1), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.WriteFile(s.segmentPath(2), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s2.close()
		check := func(s *Store) {
			t.Helper()
			for _, k := range []string{"a", "b", "c", "absent"} {
				if got, ok := s.Get(k); ok && !bytes.Equal(got, fuzzPayloads[k]) {
					t.Fatalf("Get(%s) = %q; want a miss or %q", k, got, fuzzPayloads[k])
				}
			}
		}
		check(s2)
		if !s2.Put("a", fuzzPayloads["a"]) {
			t.Fatal("Put after recovery declined")
		}
		if got, ok := s2.Get("a"); !ok || !bytes.Equal(got, fuzzPayloads["a"]) {
			t.Fatalf("Get(a) after recovery = %q, %v", got, ok)
		}
		s3, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s3.close()
		check(s3)
	})
}
