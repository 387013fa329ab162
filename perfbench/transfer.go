package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/codec"
	"ccx/internal/core"
	"ccx/internal/netsim"
	"ccx/internal/sampling"
	"ccx/internal/selector"
	"ccx/internal/trace"
)

// The transfer workload is the paper's exchange: one sender streams 128 KB
// blocks of mixed data to one receiver over one loopback TCP connection,
// through core.Session.TransmitBlock and codec.FrameReader. The selector
// decides on a modeled CPU clock and a modeled, MBone-loaded 100 MBit/s
// link, as internal/experiments does for Figures 8 and 11, so the method
// sequence is a function of the seed alone; every byte is still really
// encoded, carried over the socket, decoded and compared.
const (
	transferBlockSize = 128 << 10
	// transferRound is the number of distinct blocks a round sends.
	transferRound = 96
	// transferPattern orders the data kinds of consecutive blocks.
	transferPattern = "oxlorxox"
	// timeScale is K of the experiments' scaling model: link and CPU
	// rates are divided by it, so one round spans more of the MBone trace
	// while every send/reduce ratio stays the paper's.
	timeScale = 8
	// traceOffset starts each round this far into the MBone trace, where
	// the load climbs through the selector's thresholds.
	traceOffset = 30 * time.Second
	// loadAt14 is the share of the link that 14 trace connections (×4)
	// take: the heavily loaded regime of the paper's §5 conclusion runs.
	loadAt14 = 0.9
	// linkSeed fixes the MBone trace and the link jitter: the link is the
	// scenario, the seed makes the data.
	linkSeed = 1
	// probeTick is what one reading of the modeled CPU clock advances it.
	probeTick = time.Millisecond
	// paperLZReducingBps is Figure 4's Lempel-Ziv reducing speed; the
	// probe's speed scale lands a 70 % probe reduction on it.
	paperLZReducingBps = 2.2e6
)

// paperCompressBps charges the modeled clock the paper's compression
// throughputs (Figures 3 and 4), divided by timeScale.
var paperCompressBps = map[codec.Method]float64{
	codec.BurrowsWheeler: 1.0e6,
	codec.LempelZiv:      3.1e6,
	codec.Huffman:        6.7e6,
}

// transferInputs is the block sequence every round sends.
func transferInputs(seed int64) [][]byte {
	return mixedBlocks(seed, transferBlockSize, transferRound, transferPattern)
}

// paperRule is the §2.5 decision written out from the paper: send raw on
// the first block, or when the probe could not shrink the sample; compress
// only when sending raw would take more than 0.83 times Lempel-Ziv's
// predicted reduction time; then Huffman when the probe stayed at or above
// 48.78 %, Burrows-Wheeler when sending would take more than 3.48 times the
// reduction time, Lempel-Ziv otherwise.
func paperRule(in selector.Inputs) codec.Method {
	if in.SendTime <= 0 || in.BlockLen == 0 || in.ReducingSpeed <= 0 || in.ProbeRatio >= 1 {
		return codec.None
	}
	reduce := time.Duration(float64(in.BlockLen) * (1 - in.ProbeRatio) / in.ReducingSpeed * float64(time.Second))
	if reduce <= 0 {
		return codec.None
	}
	send := float64(in.SendTime)
	switch {
	case send <= 0.83*float64(reduce):
		return codec.None
	case in.ProbeRatio >= 0.4878:
		return codec.Huffman
	case send > 3.48*float64(reduce):
		return codec.BurrowsWheeler
	}
	return codec.LempelZiv
}

type rxJob struct {
	want []byte
	op   uint64
	tr   *tracer
}

type rxResult struct {
	info codec.BlockInfo
	wire int
	same bool
	at   time.Time
	err  error
}

type transferDriver struct {
	blocks [][]byte
	seed   int64

	ln     net.Listener
	tx, rx net.Conn
	expect chan rxJob
	got    chan rxResult
	wg     sync.WaitGroup

	op uint64
	// methods counts the decisions of the first traced round, which are the
	// same for every round of a seed.
	methods      map[codec.Method]int
	countedRound bool
	// onBlock, when set, observes every verified block (tests).
	onBlock func(res core.BlockResult, wire int)
}

func newTransferDriver(blocks [][]byte, seed int64) driver {
	return &transferDriver{blocks: blocks, seed: seed}
}

func (t *transferDriver) start(rec *recorder) (time.Time, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return time.Time{}, err
	}
	t.ln = ln
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		<-accepted
		return time.Time{}, err
	}
	t.tx = tx
	t.rx = <-accepted
	if t.rx == nil {
		return time.Time{}, errors.New("accept failed")
	}
	t.expect = make(chan rxJob, 1)
	t.got = make(chan rxResult, 1)
	t.wg.Add(1)
	go t.receive()
	rs, err := t.newRound()
	if err != nil {
		return time.Time{}, err
	}
	_, at, err := t.block(rs, 0, rec)
	return at, err
}

// receive decodes one frame per job and compares it with the bytes the job
// expects.
func (t *transferDriver) receive() {
	defer t.wg.Done()
	cr := &countReader{r: bufio.NewReaderSize(t.rx, 256<<10)}
	fr := codec.NewFrameReader(cr, nil)
	for job := range t.expect {
		before := cr.n
		t0 := time.Now()
		data, info, err := fr.ReadBlock()
		at := time.Now()
		job.tr.record("transfer/codec.FrameReader.ReadBlock", "transfer/op", job.op, t0, at, len(data))
		t.got <- rxResult{info: info, wire: int(cr.n - before), same: err == nil && bytes.Equal(data, job.want), at: at, err: err}
		if err != nil {
			return
		}
	}
}

// roundState is one round's modeled CPU clock, link and adaptation loop.
// Each round starts them afresh, so every round makes the same decisions.
type roundState struct {
	clk  *netsim.Virtual
	link *netsim.Link
	sess *core.Session
}

func (t *transferDriver) newRound() (*roundState, error) {
	clk := netsim.NewVirtual()
	prof := netsim.Fast100
	prof.RateBps /= timeScale
	prof.Latency *= timeScale
	link := netsim.NewLink(prof, clk, linkSeed)
	mbone := trace.MBoneSynthetic(linkSeed)
	lc := trace.DefaultLoadConfig(prof, clk.Now().Add(-traceOffset))
	lc.PerConnBps = prof.RateBps * loadAt14 / (14 * 4)
	link.SetLoad(mbone.LoadFunc(lc, prof))

	e, err := core.NewEngine(modeledCPU(timeScale))
	if err != nil {
		return nil, err
	}
	return &roundState{clk: clk, link: link, sess: core.NewSession(e)}, nil
}

// modeledCPU is an engine configuration whose probes read a modeled CPU
// clock: every reading advances it by probeTick, so a probe takes one tick
// and its reducing speed depends only on how much the sample shrank,
// scaled so that a 70 % reduction reads as the paper's Lempel-Ziv speed
// divided by k. Decisions then follow the data and the link, not the
// machine's momentary load.
func modeledCPU(k float64) core.Config {
	var tick atomic.Int64
	now := func() time.Time { return time.Unix(0, tick.Add(int64(probeTick))) }
	const refReduction = 0.7 * float64(sampling.DefaultProbeSize)
	return core.Config{Now: now, SpeedScale: (refReduction / probeTick.Seconds()) / (paperLZReducingBps / k)}
}

// block transmits block i of the round and waits until the receiver has
// verified it: the closed loop of one sender.
func (t *transferDriver) block(rs *roundState, i int, rec *recorder) (core.BlockResult, time.Time, error) {
	block := t.blocks[i]
	var next []byte
	if i+1 < len(t.blocks) {
		next = t.blocks[i+1]
	}
	t.op++
	op, tr := t.op, rec.tr
	t.expect <- rxJob{want: block, op: op, tr: tr}
	send := func(frame []byte) (time.Duration, error) {
		t0 := time.Now()
		_, err := t.tx.Write(frame)
		tr.record("transfer/core.SendFunc", "transfer/core.Session.TransmitBlock", op, t0, time.Now(), len(frame))
		return rs.link.Send(len(frame)), err
	}
	t0 := time.Now()
	res, err := rs.sess.TransmitBlock(block, next, send)
	t1 := time.Now()
	if err != nil {
		return res, t1, err
	}
	rx := <-t.got
	if rx.err != nil {
		return res, rx.at, fmt.Errorf("receive block %d: %w", op, rx.err)
	}
	tr.record("transfer/core.Session.TransmitBlock", "transfer/op", op, t0, t1, len(block))
	tr.record("transfer/op", "", op, t0, rx.at, len(block))
	if bps, ok := paperCompressBps[res.Info.Requested]; ok {
		rs.clk.Advance(time.Duration(float64(res.Info.OrigLen) / (bps / timeScale) * float64(time.Second)))
	}

	m := res.Decision.Method
	switch {
	case !rx.same:
		rec.mismatch("transfer block %d: received bytes differ from the generated block", op)
	case paperRule(res.Decision.Inputs) != m:
		rec.mismatch("transfer block %d: program chose %s, the §2.5 rule gives %s", op, m, paperRule(res.Decision.Inputs))
	case rx.info.Requested != m:
		rec.mismatch("transfer block %d: frame says %s, decision was %s", op, rx.info.Requested, m)
	case rx.wire != res.WireBytes || rx.wire > maxFrameLen(len(block), rx.info.Seq, rx.info.HasSeq):
		rec.mismatch("transfer block %d: %d wire bytes (sender %d) for a %d-byte block", op, rx.wire, res.WireBytes, len(block))
	}
	if tr != nil && !t.countedRound {
		t.methods[m]++
	}
	if t.onBlock != nil {
		t.onBlock(res, rx.wire)
	}
	rec.op(rx.at.Sub(t0))
	rec.bytes(len(block), rx.wire)
	return res, rx.at, nil
}

func (t *transferDriver) round(rec *recorder) error {
	if rec.tr != nil && t.methods == nil {
		t.methods = map[codec.Method]int{}
	}
	rs, err := t.newRound()
	if err != nil {
		return err
	}
	for i := range t.blocks {
		if _, _, err := t.block(rs, i, rec); err != nil {
			return err
		}
	}
	if t.methods != nil {
		t.countedRound = true
	}
	return nil
}

func (t *transferDriver) close() error {
	if t.expect != nil {
		close(t.expect)
	}
	for _, c := range []io.Closer{t.tx, t.rx, t.ln} {
		if c != nil {
			c.Close()
		}
	}
	t.wg.Wait()
	return nil
}

// layerMetrics reports the adaptation loop's per-block costs and the first
// traced round's method counts.
func (t *transferDriver) layerMetrics(st map[string]spanStats) []metric {
	tx, send := st["transfer/core.Session.TransmitBlock"], st["transfer/core.SendFunc"]
	return []metric{
		{"core.transmit_ms", float64(tx.mean().Nanoseconds()) / 1e6, "ms"},
		{"core.send_block_us", float64(send.mean().Nanoseconds()) / 1e3, "us"},
		{"selector.blocks.none", float64(t.methods[codec.None]), "count"},
		{"selector.blocks.huffman", float64(t.methods[codec.Huffman]), "count"},
		{"selector.blocks.lz", float64(t.methods[codec.LempelZiv]), "count"},
		{"selector.blocks.bwt", float64(t.methods[codec.BurrowsWheeler]), "count"},
	}
}
