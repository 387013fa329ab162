package sampling

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ccx/internal/datagen"
)

// probeInput is one entry of the pinned probe corpus.
type probeInput struct {
	name string
	data []byte
}

// probeCorpus mirrors the lz package's digest corpus: every datagen class at
// edge and block sizes plus degenerate inputs.
func probeCorpus() []probeInput {
	sizes := []int{0, 1, 2, 3, 4, 8, 100, 4096, 5000, 64 << 10, 128 << 10, 300 << 10}
	kinds := []struct {
		name string
		gen  func(n int) []byte
	}{
		{"ois", func(n int) []byte { return datagen.OISTransactions(n, 0.7, 1) }},
		{"xml", func(n int) []byte { return datagen.XMLDocuments(n, 2) }},
		{"low16", func(n int) []byte { return datagen.LowEntropy(n, 16, 3) }},
		{"low2", func(n int) []byte { return datagen.LowEntropy(n, 2, 4) }},
		{"random", func(n int) []byte { return datagen.Random(n, 5) }},
		{"zero", func(n int) []byte { return make([]byte, n) }},
		{"period2", func(n int) []byte { return bytes.Repeat([]byte{0x5a, 0xc3}, n/2+1)[:n] }},
	}
	var out []probeInput
	for _, k := range kinds {
		for _, n := range sizes {
			out = append(out, probeInput{fmt.Sprintf("%s/%d", k.name, n), k.gen(n)})
		}
	}
	return out
}

// probeWant is the clock-independent part of a ProbeResult.
type probeWant struct {
	compressedLen int
	repetition    float64
	entropy       float64
}

// TestProbeDigests pins the exact probe results for the corpus: the
// compressed length of the LZ probe and the repetition and entropy scores,
// compared with ==. Only Duration and ReducingSpeed, which read the clock,
// are left out.
func TestProbeDigests(t *testing.T) {
	var s Sampler
	for _, in := range probeCorpus() {
		res := s.Probe(in.data)
		got := probeWant{res.CompressedLen, res.Repetition, res.Entropy}
		want, ok := probeDigests[in.name]
		if !ok {
			t.Errorf("%q: {%d, %v, %v},", in.name, got.compressedLen, got.repetition, got.entropy)
			continue
		}
		if got != want {
			t.Errorf("%s: probe = %+v, want %+v", in.name, got, want)
		}
	}
}

var probeDigests = map[string]probeWant{
	"ois/0":          {0, 0, 0},
	"ois/1":          {7, 0, 0},
	"ois/2":          {9, 0, 1},
	"ois/3":          {12, 0, 1.584962500721156},
	"ois/4":          {15, 0, 2},
	"ois/8":          {20, 0, 2.4056390622295662},
	"ois/100":        {138, 0.061855670103092786, 4.9609858564776115},
	"ois/4096":       {960, 0.7605668214023943, 5.2577874506052185},
	"ois/5000":       {960, 0.7605668214023943, 5.2577874506052185},
	"ois/65536":      {960, 0.7605668214023943, 5.2577874506052185},
	"ois/131072":     {960, 0.7605668214023943, 5.2577874506052185},
	"ois/307200":     {960, 0.7605668214023943, 5.2577874506052185},
	"xml/0":          {0, 0, 0},
	"xml/1":          {7, 0, 0},
	"xml/2":          {9, 0, 1},
	"xml/3":          {12, 0, 1.584962500721156},
	"xml/4":          {15, 0, 2},
	"xml/8":          {25, 0, 3},
	"xml/100":        {130, 0.08247422680412371, 4.74946428543907},
	"xml/4096":       {657, 0.8700219887612998, 4.850169337804142},
	"xml/5000":       {657, 0.8700219887612998, 4.850169337804142},
	"xml/65536":      {657, 0.8700219887612998, 4.850169337804142},
	"xml/131072":     {657, 0.8700219887612998, 4.850169337804142},
	"xml/307200":     {657, 0.8700219887612998, 4.850169337804142},
	"low16/0":        {0, 0, 0},
	"low16/1":        {7, 0, 0},
	"low16/2":        {9, 0, 1},
	"low16/3":        {9, 0, 0.9182958340544896},
	"low16/4":        {10, 0, 1.5},
	"low16/8":        {15, 0, 2.75},
	"low16/100":      {70, 0, 3.876462035977592},
	"low16/4096":     {2348, 0.02907402882970926, 3.996809899288379},
	"low16/5000":     {2348, 0.02907402882970926, 3.996809899288379},
	"low16/65536":    {2348, 0.02907402882970926, 3.996809899288379},
	"low16/131072":   {2348, 0.02907402882970926, 3.996809899288379},
	"low16/307200":   {2348, 0.02907402882970926, 3.996809899288379},
	"low2/0":         {0, 0, 0},
	"low2/1":         {8, 0, 0},
	"low2/2":         {7, 0, 1},
	"low2/3":         {8, 0, 0.9182958340544896},
	"low2/4":         {8, 0, 0.8112781244591328},
	"low2/8":         {10, 0, 0.8112781244591328},
	"low2/100":       {48, 0.8350515463917526, 0.9997114417528099},
	"low2/4096":      {729, 0.9960908868800391, 0.9997108778496187},
	"low2/5000":      {729, 0.9960908868800391, 0.9997108778496187},
	"low2/65536":     {729, 0.9960908868800391, 0.9997108778496187},
	"low2/131072":    {729, 0.9960908868800391, 0.9997108778496187},
	"low2/307200":    {729, 0.9960908868800391, 0.9997108778496187},
	"random/0":       {0, 0, 0},
	"random/1":       {7, 0, 0},
	"random/2":       {9, 0, 1},
	"random/3":       {12, 0, 1.584962500721156},
	"random/4":       {15, 0, 2},
	"random/8":       {27, 0, 3},
	"random/100":     {240, 0, 6.248758439731466},
	"random/4096":    {4283, 0, 7.9549269970263765},
	"random/5000":    {4283, 0, 7.9549269970263765},
	"random/65536":   {4283, 0, 7.9549269970263765},
	"random/131072":  {4283, 0, 7.9549269970263765},
	"random/307200":  {4283, 0, 7.9549269970263765},
	"zero/0":         {0, 0, 0},
	"zero/1":         {7, 0, 0},
	"zero/2":         {7, 0, 0},
	"zero/3":         {7, 0, 0},
	"zero/4":         {8, 0, 0},
	"zero/8":         {10, 0.8, 0},
	"zero/100":       {11, 0.9896907216494846, 0},
	"zero/4096":      {15, 0.9997556804300024, 0},
	"zero/5000":      {15, 0.9997556804300024, 0},
	"zero/65536":     {15, 0.9997556804300024, 0},
	"zero/131072":    {15, 0.9997556804300024, 0},
	"zero/307200":    {15, 0.9997556804300024, 0},
	"period2/0":      {0, 0, 0},
	"period2/1":      {7, 0, 0},
	"period2/2":      {9, 0, 1},
	"period2/3":      {9, 0, 0.9182958340544896},
	"period2/4":      {9, 0, 1},
	"period2/8":      {15, 0.6, 1},
	"period2/100":    {15, 0.979381443298969, 1},
	"period2/4096":   {20, 0.9995113608600049, 1},
	"period2/5000":   {20, 0.9995113608600049, 1},
	"period2/65536":  {20, 0.9995113608600049, 1},
	"period2/131072": {20, 0.9995113608600049, 1},
	"period2/307200": {20, 0.9995113608600049, 1},
}

// TestRepetitionScoreConcurrent scores samples from several goroutines at
// once: each call must get its own pooled gram set. Inputs stop at 64 KB
// to keep the test quick under the race detector.
func TestRepetitionScoreConcurrent(t *testing.T) {
	var corpus []probeInput
	for _, in := range probeCorpus() {
		if len(in.data) <= 64<<10 {
			corpus = append(corpus, in)
		}
	}
	want := make([]float64, len(corpus))
	for i, in := range corpus {
		want[i] = RepetitionScore(in.data)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range corpus {
				i := (k + g*7) % len(corpus)
				if got := RepetitionScore(corpus[i].data); got != want[i] {
					t.Errorf("goroutine %d: %s: concurrent score %v, want %v", g, corpus[i].name, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
