package main

import (
	"slices"
	"testing"

	"ccx/internal/codec"
	"ccx/internal/core"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// runTransferRound runs set-up plus one round and returns each block's method
// and wire size.
func runTransferRound(t *testing.T, seed int64) ([]codec.Method, []int) {
	t.Helper()
	d := newTransferDriver(transferInputs(seed), seed).(*transferDriver)
	var methods []codec.Method
	var wire []int
	rec := &recorder{}
	if _, err := d.start(rec); err != nil {
		t.Fatal(err)
	}
	d.onBlock = func(res core.BlockResult, n int) {
		methods = append(methods, res.Decision.Method)
		wire = append(wire, n)
	}
	if err := d.round(rec); err != nil {
		t.Fatal(err)
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	if rec.bad > 0 {
		t.Fatalf("%d output checks failed; first: %s", rec.bad, rec.firstBad)
	}
	return methods, wire
}

func TestTransferRepeatable(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		m1, w1 := runTransferRound(t, seed)
		m2, w2 := runTransferRound(t, seed)
		if !slices.Equal(m1, m2) || !slices.Equal(w1, w2) {
			t.Fatalf("seed %d: two runs differ:\n%v\n%v", seed, m1, m2)
		}
		count := map[codec.Method]int{}
		for _, m := range m1 {
			count[m]++
		}
		t.Logf("seed %d: %v", seed, count)
		for _, m := range []codec.Method{codec.None, codec.Huffman, codec.LempelZiv, codec.BurrowsWheeler} {
			if count[m] == 0 {
				t.Errorf("seed %d: no block used %s", seed, m)
			}
		}
	}
}
