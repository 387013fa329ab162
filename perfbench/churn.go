package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
)

// The churn workload attaches one subscriber at a time over net.Pipe. Each
// session resumes from the last block the previous one verified, drains the
// backlog published while no one was attached, reads live blocks and hangs
// up. It exercises session set-up and tear-down, the replay ring, the frame
// cache and the metrics registry; pipes leave no TIME_WAIT ports behind.
const (
	churnBacklog = 8  // blocks published between sessions
	churnLive    = 8  // blocks published and read during a session
	churnRound   = 32 // sessions per round
	// churnReplayBlocks bounds the replay ring; it holds many backlogs.
	churnReplayBlocks = 1024
)

var churnCounters = []string{"encplane.cache_hits", "encplane.cache_misses"}

type churnDriver struct {
	blocks [][]byte
	b      *broker.Broker
	seq    uint64 // last published
	last   uint64 // last verified by the client

	// Ledger state, taken when the first traced round starts and when the
	// driver closes.
	traced         bool
	sessions       int
	views0, views1 int
	heap0, heap1   uint64
	before, after  map[string]float64
}

func newChurnDriver(blocks [][]byte, _ int64) driver {
	return &churnDriver{blocks: blocks}
}

func (c *churnDriver) start(rec *recorder) (time.Time, error) {
	b, err := broker.New(broker.Config{ReplayBlocks: churnReplayBlocks, Engine: modeledCPU(1)})
	if err != nil {
		return time.Time{}, err
	}
	c.b = b
	return c.session(rec)
}

func (c *churnDriver) publish(rec *recorder, op uint64) error {
	c.seq++
	blk := c.blocks[(c.seq-1)%uint64(len(c.blocks))]
	t0 := time.Now()
	if err := c.b.Publish(channel, blk); err != nil {
		return err
	}
	rec.tr.record("churn/broker.Publish", "churn/op", op, t0, time.Now(), len(blk))
	return nil
}

// session runs one subscriber session and returns when its first block was
// verified.
func (c *churnDriver) session(rec *recorder) (time.Time, error) {
	op := uint64(c.sessions + 1)
	for i := 0; i < churnBacklog; i++ {
		if err := c.publish(rec, op); err != nil {
			return time.Time{}, err
		}
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	t0 := time.Now()
	c.b.HandleConn(srv)
	first, err := broker.HandshakeResume(cli, channel, c.last)
	t1 := time.Now()
	if err != nil {
		return time.Time{}, fmt.Errorf("resume after %d: %w", c.last, err)
	}
	rec.tr.record("churn/broker.HandshakeResume", "churn/op", op, t0, t1, 0)
	if first != c.last+1 {
		return time.Time{}, fmt.Errorf("resume after %d starts at %d: a gap", c.last, first)
	}
	cr := &countReader{r: bufio.NewReaderSize(cli, 64<<10)}
	fr := codec.NewFrameReader(cr, nil)
	var firstAt time.Time
	read := func() error {
		for {
			before := cr.n
			data, info, err := fr.ReadBlock()
			if err != nil {
				return fmt.Errorf("session read: %w", err)
			}
			if info.OrigLen == 0 && !info.HasSeq {
				if len(info.Anno) > 0 {
					return fmt.Errorf("session closed by the broker: %q", info.Anno)
				}
				continue // heartbeat
			}
			wire := int(cr.n - before)
			if !info.HasSeq || info.Seq != c.last+1 {
				return fmt.Errorf("churn: got sequence %d, want %d", info.Seq, c.last+1)
			}
			c.last = info.Seq
			switch {
			case !bytes.Equal(data, c.blocks[(info.Seq-1)%uint64(len(c.blocks))]):
				rec.mismatch("churn: block %d bytes differ from the published block", info.Seq)
			case wire > maxFrameLen(len(data), info.Seq, true):
				rec.mismatch("churn: block %d took %d wire bytes for %d bytes", info.Seq, wire, len(data))
			}
			rec.bytes(len(data), wire)
			if firstAt.IsZero() {
				firstAt = time.Now()
			}
			return nil
		}
	}
	for c.last < c.seq {
		if err := read(); err != nil {
			return time.Time{}, err
		}
	}
	t2 := time.Now()
	rec.tr.record("churn/replay", "churn/op", op, t1, t2, churnBacklog)
	for i := 0; i < churnLive; i++ {
		if err := c.publish(rec, op); err != nil {
			return time.Time{}, err
		}
		if err := read(); err != nil {
			return time.Time{}, err
		}
	}
	t3 := time.Now()
	rec.op(t3.Sub(t0))
	rec.tr.record("churn/op", "", op, t0, t3, (churnBacklog+churnLive)*smallBlockSize)

	cli.Close()
	if err := c.awaitTeardown(); err != nil {
		return time.Time{}, err
	}
	rec.tr.record("churn/teardown", "", op, t3, time.Now(), 0)
	c.sessions++
	return firstAt, nil
}

// awaitTeardown waits until the broker has removed the hung-up session, so
// that the next one is again the only subscriber.
func (c *churnDriver) awaitTeardown() error {
	deadline := time.Now().Add(10 * time.Second)
	for spins := 0; c.b.Subscribers() > 0; spins++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("session still attached 10s after hang-up")
		}
		if spins < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

func (c *churnDriver) round(rec *recorder) error {
	if rec.tr != nil && !c.traced {
		c.traced = true
		c.sessions = 0
		c.heap0 = liveHeap()
		c.views0 = len(c.b.Metrics().Views())
		c.before = counters(c.b, churnCounters...)
	}
	for i := 0; i < churnRound; i++ {
		if _, err := c.session(rec); err != nil {
			return err
		}
	}
	return nil
}

func (c *churnDriver) close() error {
	if c.b == nil {
		return nil
	}
	if c.traced {
		c.heap1 = liveHeap()
		c.views1 = len(c.b.Metrics().Views())
		c.after = counters(c.b, churnCounters...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.b.Shutdown(ctx)
}

func (c *churnDriver) layerMetrics(st map[string]spanStats) []metric {
	hits := c.after["encplane.cache_hits"] - c.before["encplane.cache_hits"]
	misses := c.after["encplane.cache_misses"] - c.before["encplane.cache_misses"]
	n := float64(c.sessions)
	return []metric{
		{"broker.resume_us", float64(st["churn/broker.HandshakeResume"].mean().Nanoseconds()) / 1e3, "us"},
		{"broker.replay_block_us", float64(st["churn/replay"].mean().Nanoseconds()) / 1e3 / churnBacklog, "us"},
		{"broker.teardown_us", float64(st["churn/teardown"].mean().Nanoseconds()) / 1e3, "us"},
		{"encplane.cache_hit_ratio", hits / (hits + misses), "ratio"},
		{"metrics.views_per_session", float64(c.views1-c.views0) / n, "count"},
		{"broker.heap_per_session_B", (float64(c.heap1) - float64(c.heap0)) / n, "B"},
	}
}
