package main

import (
	"fmt"
	"time"

	"ccx/internal/codec"
	"ccx/internal/encplane"
	"ccx/internal/sampling"
)

// passRounds is how many traced rounds a driver runs over another
// workload's inputs, after that workload's warm-up, so that a traced run
// reports every layer.
var passRounds = map[string]int{"transfer": 1, "fanout": 1, "churn": 8}

// layers builds the per-layer table of a traced run of w. The codec and
// probe rows time those packages' public functions on w's blocks. The
// rows of the layers a driver exercises come from that driver: w's own
// (already traced and closed), and short traced passes of the other two
// drivers over w's blocks.
func layers(w *workload, blocks [][]byte, seed int64, own driver, tr *tracer) ([]metric, error) {
	ms, err := codecLayers(blocks)
	if err != nil {
		return nil, err
	}
	fan, err := encplaneFanout(blocks, tr)
	if err != nil {
		return nil, err
	}
	ms = append(ms, fan)
	var drivers []driver
	for i := range workloads {
		other := &workloads[i]
		if other.name == w.name {
			drivers = append(drivers, own)
			continue
		}
		d := other.driver(blocks, seed)
		warm := &recorder{}
		if _, err := d.start(warm); err != nil {
			d.close()
			return nil, fmt.Errorf("%s pass: %w", other.name, err)
		}
		rec := &recorder{tr: tr}
		for r := 0; r < other.warmRounds+passRounds[other.name]; r++ {
			cur := rec
			if r < other.warmRounds {
				cur = warm
			}
			if err := d.round(cur); err != nil {
				d.close()
				return nil, fmt.Errorf("%s pass: %w", other.name, err)
			}
		}
		if err := d.close(); err != nil {
			return nil, fmt.Errorf("%s pass: %w", other.name, err)
		}
		if bad := warm.bad + rec.bad; bad > 0 {
			return nil, fmt.Errorf("%s pass: %d output checks failed; first: %s", other.name, bad, warm.firstBad+rec.firstBad)
		}
		drivers = append(drivers, d)
	}
	st := tr.stats()
	for _, d := range drivers {
		ms = append(ms, d.layerMetrics(st)...)
	}
	return ms, nil
}

// codecBudget caps the bytes each codec row encodes, so BWT on 128 KB
// blocks stays near a second.
const codecBudget = 6 << 20

var codecRows = []struct {
	label string
	m     codec.Method
}{
	{"none", codec.None}, {"huffman", codec.Huffman}, {"lz", codec.LempelZiv}, {"bwt", codec.BurrowsWheeler},
}

// upTo returns the leading blocks that fit in budget bytes.
func upTo(blocks [][]byte, budget int) [][]byte {
	n := 0
	for i, b := range blocks {
		if n += len(b); n > budget {
			return blocks[:i]
		}
	}
	return blocks
}

// codecLayers times sampling.Sampler.Probe and codec.Compress/Decompress
// per method on the workload's blocks, with the bytes each call
// allocates.
func codecLayers(blocks [][]byte) ([]metric, error) {
	set := upTo(blocks, codecBudget)
	total := 0
	for _, b := range set {
		total += len(b)
	}
	var ms []metric

	smp := &sampling.Sampler{}
	a0, t0 := allocBytes(), time.Now()
	for _, b := range set {
		smp.Probe(b)
	}
	el, alloc := time.Since(t0), allocBytes()-a0
	ms = append(ms,
		metric{"sampling.probe_us", float64(el.Nanoseconds()) / 1e3 / float64(len(set)), "us"},
		metric{"sampling.probe_KB_alloc", float64(alloc) / 1024 / float64(len(set)), "KB"})

	var enc, dec, encAlloc, ratio []metric
	for _, row := range codecRows {
		comp := make([][]byte, len(set))
		a0, t0 := allocBytes(), time.Now()
		for i, b := range set {
			c, err := codec.Compress(row.m, b)
			if err != nil {
				return nil, fmt.Errorf("compress %s: %w", row.m, err)
			}
			comp[i] = c
		}
		encEl, encA := time.Since(t0), allocBytes()-a0
		wire := 0
		t0 = time.Now()
		for i, c := range comp {
			out, err := codec.Decompress(row.m, c, len(set[i]))
			if err != nil {
				return nil, fmt.Errorf("decompress %s: %w", row.m, err)
			}
			if len(out) != len(set[i]) {
				return nil, fmt.Errorf("decompress %s: %d bytes, want %d", row.m, len(out), len(set[i]))
			}
			wire += len(c)
		}
		decEl := time.Since(t0)
		enc = append(enc, metric{"codec.encode_MBps." + row.label, float64(total) / 1e6 / encEl.Seconds(), "MB/s"})
		dec = append(dec, metric{"codec.decode_MBps." + row.label, float64(total) / 1e6 / decEl.Seconds(), "MB/s"})
		if row.m != codec.None {
			encAlloc = append(encAlloc, metric{"codec.encode_KB_alloc." + row.label, float64(encA) / 1024 / float64(len(set)), "KB"})
			ratio = append(ratio, metric{"codec.ratio." + row.label, float64(wire) / float64(total), "ratio"})
		}
	}
	ms = append(ms, enc...)
	ms = append(ms, encAlloc...)
	ms = append(ms, dec...)
	return append(ms, ratio...), nil
}

// encplaneFanout times encplane.Channel.Publish, from the call until both
// members of a two-member None class have their delivery, on the
// workload's blocks.
func encplaneFanout(blocks [][]byte, tr *tracer) (metric, error) {
	p, err := encplane.New(encplane.Config{})
	if err != nil {
		return metric{}, err
	}
	defer p.Close()
	ch := p.Channel(channel)
	got := make(chan struct{}, 2)
	deliver := func(d encplane.Delivery) bool {
		d.Frame.Release()
		got <- struct{}{}
		return true
	}
	a := ch.Join(codec.None, deliver)
	b := ch.Join(codec.None, deliver)
	defer a.Leave()
	defer b.Leave()
	set := upTo(blocks, codecBudget)
	var total time.Duration
	for i, blk := range set {
		t0 := time.Now()
		ch.Publish(blk, uint64(i+1))
		<-got
		<-got
		now := time.Now()
		total += now.Sub(t0)
		tr.record("encplane.Channel.Publish", "", uint64(i+1), t0, now, len(blk))
	}
	return metric{"encplane.fanout_us", float64(total.Nanoseconds()) / 1e3 / float64(len(set)), "us"}, nil
}
