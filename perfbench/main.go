// Command perfbench is ccx's end-to-end benchmark. One run builds a
// workload's inputs from a seed, sets the program up several times, runs a
// fixed warm-up, then drives closed-loop rounds of operations for the given
// number of seconds, checking every delivered byte. It prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the last
// line of standard output:
//
//	go build -o ccxbench . && ./ccxbench --workload transfer --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and their reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// driver runs one workload's operations against the program.
type driver interface {
	// start builds the program side and completes the first operation,
	// returning when its first block was verified.
	start(rec *recorder) (firstVerified time.Time, err error)
	// round runs one whole round of the workload's operations: the same
	// operations every time, so every run attempts whole rounds.
	round(rec *recorder) error
	// close tears the program side down and waits for every goroutine the
	// driver started.
	close() error
	// layerMetrics reports the per-layer metrics of the layers the driver
	// exercises, from the spans recorded around its calls and from what it
	// read off the program while traced; it is called after close.
	layerMetrics(st map[string]spanStats) []metric
}

// workload is one named input set and the driver that runs it.
type workload struct {
	name   string
	inputs func(seed int64) [][]byte
	driver func(blocks [][]byte, seed int64) driver
	// warmRounds is the fixed work done before timing starts; the heap is
	// read at its end, so heap_MB compares the same amount of work in
	// every run.
	warmRounds int
}

var workloads = []workload{
	{name: "transfer", inputs: transferInputs, driver: newTransferDriver, warmRounds: 1},
	{name: "fanout", inputs: smallInputs, driver: newFanoutDriver, warmRounds: 2},
	{name: "churn", inputs: smallInputs, driver: newChurnDriver, warmRounds: 8},
}

const (
	// setupReps is how many times a run sets the program up; setup_s is
	// their median.
	setupReps = 15
	// minOps is the fewest operations a timed phase completes, so that ten
	// samples lie beyond the 99th percentile printed on standard error.
	minOps = 1000
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: transfer, fanout or churn")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans (JSONL)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload transfer|fanout|churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *spansDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// phase is one timed stretch of rounds. Goodput and CPU cost are taken
// per round and reported as medians over the rounds, so that a burst of
// load from outside the benchmark moves a few rounds, not the result.
type phase struct {
	rec     *recorder
	goodput []float64 // MB/s per round
	cpuPer  []float64 // CPU ms per MB per round
}

// timed runs whole rounds until d has passed and at least minOps
// operations completed.
func timed(drv driver, d time.Duration, tr *tracer) (phase, error) {
	p := phase{rec: &recorder{tr: tr}}
	start := time.Now()
	for time.Since(start) < d || p.rec.ops() < minOps {
		orig0, cpu0, t0 := p.rec.verified(), cpuTime(), time.Now()
		if err := drv.round(p.rec); err != nil {
			return p, err
		}
		el, cpu := time.Since(t0), cpuTime()-cpu0
		mb := float64(p.rec.verified()-orig0) / 1e6
		p.goodput = append(p.goodput, mb/el.Seconds())
		p.cpuPer = append(p.cpuPer, float64(cpu.Nanoseconds())/1e6/mb)
	}
	return p, nil
}

func bench(w *workload, seed int64, d time.Duration, traced bool, spansDir string, log io.Writer) (*result, error) {
	blocks := w.inputs(seed)
	heap0 := liveHeap()

	// checked collects every recorder whose output checks count.
	setupRec := &recorder{}
	checked := []*recorder{setupRec}
	var setups []float64
	var drv driver
	for i := 0; i < setupReps; i++ {
		drv = w.driver(blocks, seed)
		t0 := time.Now()
		first, err := drv.start(setupRec)
		if err != nil {
			drv.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, first.Sub(t0).Seconds())
		if i < setupReps-1 {
			if err := drv.close(); err != nil {
				return nil, fmt.Errorf("set-up close: %w", err)
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			drv.close()
		}
	}()

	warm := &recorder{}
	for i := 0; i < w.warmRounds; i++ {
		if err := drv.round(warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	heap := float64(liveHeap()) - float64(heap0)

	p, err := timed(drv, d, nil)
	if err != nil {
		return nil, err
	}
	checked = append(checked, warm, p.rec)
	attempted := len(p.rec.lat)

	res := &result{Metrics: map[string]jsonMetric{}}
	var ms []metric
	if !traced {
		lat := make([]float64, len(p.rec.lat))
		for i, l := range p.rec.lat {
			lat[i] = float64(l.Nanoseconds()) / 1e6
		}
		ms = []metric{
			{"goodput_MBps", median(p.goodput), "MB/s"},
			{"latency_p50_ms", percentile(lat, 50), "ms"},
			{"cpu_ms_per_MB", median(p.cpuPer), "ms/MB"},
			{"wire_ratio", float64(p.rec.wire) / float64(p.rec.orig), "ratio"},
			{"heap_MB", heap / 1e6, "MB"},
			{"setup_s", median(setups), "s"},
		}
		// The 99th percentile is printed, not reported: on a shared
		// two-CPU machine its run-to-run spread reached 40-66 % (README).
		fmt.Fprintf(log, "latency p99 %.3f ms over %d operations\n", percentile(lat, 99), len(lat))
	} else {
		tr := newTracer()
		tp, err := timed(drv, d, tr)
		if err != nil {
			return nil, err
		}
		checked = append(checked, tp.rec)
		attempted = len(tp.rec.lat)
		closed = true
		if err := drv.close(); err != nil {
			return nil, err
		}
		ms, err = layers(w, blocks, seed, drv, tr)
		if err != nil {
			return nil, fmt.Errorf("per-layer ledger: %w", err)
		}
		printTable(log, ms, tr)
		g, tg := median(p.goodput), median(tp.goodput)
		fmt.Fprintf(log, "\ngoodput untraced %.3f MB/s, traced %.3f MB/s (tracing overhead %.1f%%)\n",
			g, tg, 100*(1-tg/g))
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := tr.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %s\n", path)
	}
	bad, firstBad := 0, ""
	for _, r := range checked {
		if firstBad == "" {
			firstBad = r.firstBad
		}
		bad += r.bad
	}
	if bad > 0 {
		fmt.Fprintf(log, "perfbench: %d output check(s) failed; first: %s\n", bad, firstBad)
	}
	res.Correct = bad == 0
	res.Attempted = attempted
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}
