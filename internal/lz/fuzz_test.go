package lz

import (
	"bytes"
	"testing"
)

// FuzzLZDecode feeds arbitrary bytes to Decompress. Hostile inputs encode
// matches reaching before the start of the output or lengths past the claimed
// size; all of those must come back as errors, never panics or runaway
// allocation.
func FuzzLZDecode(f *testing.F) {
	seeds := [][]byte{
		nil,
		[]byte("z"),
		[]byte("abcabcabcabcabcabc"),
		bytes.Repeat([]byte("configurable compression "), 24),
	}
	for _, s := range seeds {
		comp, err := Compress(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, len(s))
	}
	f.Add([]byte{0x01, 0x00, 0xff, 0xff}, 64)

	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<20 {
			return
		}
		out, err := Decompress(data, origLen)
		if err != nil {
			return
		}
		if len(out) != origLen {
			t.Fatalf("decoded %d bytes, claimed %d", len(out), origLen)
		}
	})
}

// FuzzLZRoundTrip checks Decompress(Compress(x)) == x. Every iteration also
// compresses a second input of a different size through the same pooled
// match finder, and re-checks the first, so hash-chain entries left over from
// one call that leaked into the next would show as a mismatch.
func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte(nil), 0)
	f.Add([]byte("abcabcabcabcabcabc"), 7)
	f.Add(bytes.Repeat([]byte("configurable compression "), 24), 300)
	f.Add(bytes.Repeat([]byte{0}, 1000), 5000)

	check := func(t *testing.T, data []byte) {
		t.Helper()
		comp, err := Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(comp, len(data))
		if err != nil {
			t.Fatalf("len %d: %v", len(data), err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("len %d: round trip mismatch", len(data))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, otherLen int) {
		if otherLen < 0 || otherLen > 8<<10 || len(data) > 64<<10 {
			return
		}
		check(t, data)
		// The second input repeats data's bytes at another length, so its
		// hash buckets collide with the ones the first call filled.
		other := make([]byte, otherLen)
		for i := range other {
			if len(data) > 0 {
				other[i] = data[(i*7)%len(data)]
			}
		}
		check(t, other)
		check(t, data)
	})
}
