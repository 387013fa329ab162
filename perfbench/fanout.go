package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ccx/internal/broker"
	"ccx/internal/codec"
)

// The fanout workload publishes small blocks in process through
// Broker.Publish to two subscribers on loopback TCP. Per-block costs (probe,
// shard loop, encode plane, queues, vectored writes, framing) dominate it.
const (
	smallBlockSize = 4 << 10
	smallDistinct  = 1024
	// smallPattern: mostly the compressible commercial kinds, as a feed of
	// business events would be.
	smallPattern = "oxolxoxr"
	fanoutSubs   = 2
	// fanoutWindow bounds the blocks in flight. It stays well below the
	// broker's default queue length (64), so drop-oldest never fires.
	fanoutWindow = 16
	fanoutRound  = smallDistinct
	// slotRing indexes per-sequence state; it must exceed fanoutWindow.
	slotRing = 64
	channel  = "bench"
)

// smallInputs are the 4 KB blocks fanout and churn publish.
func smallInputs(seed int64) [][]byte {
	return mixedBlocks(seed, smallBlockSize, smallDistinct, smallPattern)
}

// counters reads the broker registry values the ledger differences.
func counters(b *broker.Broker, names ...string) map[string]float64 {
	snap := b.Metrics().Snapshot()
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = snap[n]
	}
	return out
}

var fanoutCounters = []string{
	"broker.events_in", "encplane.encodes", "encplane.migrations",
	"encplane.deliveries", "broker.writev_batches", "broker.writev_frames",
}

type slot struct {
	pubAt atomic.Int64 // Publish call, unix ns
	left  atomic.Int32 // subscribers yet to verify the block
}

type fanoutDriver struct {
	blocks [][]byte
	b      *broker.Broker
	ln     net.Listener
	serve  chan error
	conns  []net.Conn
	wg     sync.WaitGroup // subscriber readers
	rec    atomic.Pointer[recorder]

	seq     uint64 // last published sequence number
	sem     chan struct{}
	slots   [slotRing]slot
	pending sync.WaitGroup // blocks of the current round not yet verified by all
	// lastDone is when the latest block was verified by its last subscriber.
	lastDone atomic.Int64
	closing  atomic.Bool
	errMu    sync.Mutex
	err      error
	stop     chan struct{} // closed by the first failure

	// Ledger state: registry counters when the first traced round started
	// and when the driver closed, and the heap cost of one subscriber.
	before, after map[string]float64
	heapPerSub    float64
}

func newFanoutDriver(blocks [][]byte, _ int64) driver {
	return &fanoutDriver{blocks: blocks, sem: make(chan struct{}, fanoutWindow), stop: make(chan struct{})}
}

// fail records the first reader failure and stops the round waiting on it.
func (f *fanoutDriver) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
		close(f.stop)
	}
	f.errMu.Unlock()
}

func (f *fanoutDriver) failed() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

func (f *fanoutDriver) start(rec *recorder) (time.Time, error) {
	b, err := broker.New(broker.Config{Engine: modeledCPU(1)})
	if err != nil {
		return time.Time{}, err
	}
	f.b = b
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return time.Time{}, err
	}
	f.ln = ln
	f.serve = make(chan error, 1)
	go func() { f.serve <- b.Serve(ln) }()
	for i := 0; i < fanoutSubs; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return time.Time{}, err
		}
		f.conns = append(f.conns, c)
		if err := broker.HandshakeSubscribe(c, channel); err != nil {
			return time.Time{}, err
		}
		f.wg.Add(1)
		go f.read(c)
	}
	f.rec.Store(rec)
	if err := f.publish(rec); err != nil {
		return time.Time{}, err
	}
	if err := f.wait(); err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, f.lastDone.Load()), nil
}

// publish sends the next block of the cyclic schedule once a window slot is
// free.
func (f *fanoutDriver) publish(rec *recorder) error {
	select {
	case f.sem <- struct{}{}:
	case <-f.stop:
		return f.failed()
	}
	f.seq++
	seq := f.seq
	blk := f.blocks[(seq-1)%uint64(len(f.blocks))]
	s := &f.slots[seq%slotRing]
	s.left.Store(fanoutSubs)
	f.pending.Add(1)
	t0 := time.Now()
	s.pubAt.Store(t0.UnixNano())
	if err := f.b.Publish(channel, blk); err != nil {
		return err
	}
	rec.tr.record("fanout/broker.Publish", "fanout/op", seq, t0, time.Now(), len(blk))
	return nil
}

// read verifies one subscriber's stream: every sequence number once and in
// order, the bytes of the block published under it, and a frame no larger
// than its block plus the header.
func (f *fanoutDriver) read(c net.Conn) {
	defer f.wg.Done()
	cr := &countReader{r: bufio.NewReaderSize(c, 64<<10)}
	fr := codec.NewFrameReader(cr, nil)
	next := uint64(1)
	for {
		before := cr.n
		t0 := time.Now()
		data, info, err := fr.ReadBlock()
		at := time.Now()
		if err != nil {
			if !f.closing.Load() || !errors.Is(err, io.EOF) {
				f.fail(fmt.Errorf("subscriber read: %w", err))
			}
			return
		}
		if info.OrigLen == 0 && !info.HasSeq {
			if len(info.Anno) > 0 {
				f.fail(fmt.Errorf("subscriber closed by the broker: %q", info.Anno))
				return
			}
			continue // heartbeat
		}
		rec := f.rec.Load()
		wire := int(cr.n - before)
		seq := info.Seq
		switch {
		case !info.HasSeq || seq != next:
			rec.mismatch("fanout: got sequence %d (has seq %v), want %d", seq, info.HasSeq, next)
			f.fail(fmt.Errorf("fanout: sequence %d, want %d", seq, next))
			return
		case !bytes.Equal(data, f.blocks[(seq-1)%uint64(len(f.blocks))]):
			rec.mismatch("fanout: block %d bytes differ from the published block", seq)
		case wire > maxFrameLen(len(data), seq, true):
			rec.mismatch("fanout: block %d took %d wire bytes for %d bytes", seq, wire, len(data))
		}
		next++
		s := &f.slots[seq%slotRing]
		rec.tr.record("fanout/codec.FrameReader.ReadBlock", "fanout/op", seq, t0, at, wire)
		rec.tr.record("fanout/op", "", seq, time.Unix(0, s.pubAt.Load()), at, len(data))
		rec.op(at.Sub(time.Unix(0, s.pubAt.Load())))
		rec.bytes(len(data), wire)
		if s.left.Add(-1) == 0 {
			f.lastDone.Store(at.UnixNano())
			<-f.sem
			f.pending.Done()
		}
	}
}

// wait blocks until every published block was verified by every subscriber.
func (f *fanoutDriver) wait() error {
	done := make(chan struct{})
	go func() { f.pending.Wait(); close(done) }()
	select {
	case <-done:
	case <-f.stop:
	case <-time.After(60 * time.Second):
		return errors.New("fanout: deliveries missing after 60s")
	}
	return f.failed()
}

func (f *fanoutDriver) round(rec *recorder) error {
	if rec.tr != nil && f.before == nil {
		f.before = counters(f.b, fanoutCounters...)
	}
	f.rec.Store(rec)
	for i := 0; i < fanoutRound; i++ {
		if err := f.publish(rec); err != nil {
			return err
		}
	}
	return f.wait()
}

// measureHeapPerSub attaches idle subscribers to a second channel and
// reads the live heap they add.
func (f *fanoutDriver) measureHeapPerSub() error {
	const n = 16
	h0 := liveHeap()
	var clients []net.Conn
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		cli, srv := net.Pipe()
		clients = append(clients, cli)
		f.b.HandleConn(srv)
		if err := broker.HandshakeSubscribe(cli, "idle"); err != nil {
			return err
		}
	}
	f.heapPerSub = (float64(liveHeap()) - float64(h0)) / n
	return nil
}

func (f *fanoutDriver) close() error {
	var err error
	if f.b != nil {
		if f.before != nil {
			f.after = counters(f.b, fanoutCounters...)
			err = f.measureHeapPerSub()
		}
		f.closing.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if serr := f.b.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
		cancel()
	}
	for _, c := range f.conns {
		c.Close()
	}
	if f.ln != nil {
		f.ln.Close()
		<-f.serve
	}
	f.wg.Wait()
	return err
}

func (f *fanoutDriver) layerMetrics(st map[string]spanStats) []metric {
	d := func(n string) float64 { return f.after[n] - f.before[n] }
	blocks := d("broker.events_in")
	deliveries := d("encplane.deliveries")
	// The broker counts only writes that carried more than one frame;
	// every other delivery went out in a write of its own.
	writes := d("broker.writev_batches") + deliveries - d("broker.writev_frames")
	pub := st["fanout/broker.Publish"]
	return []metric{
		{"broker.publish_us", float64(pub.mean().Nanoseconds()) / 1e3, "us"},
		{"broker.frames_per_writev", deliveries / writes, "frames"},
		{"encplane.encodes_per_block", d("encplane.encodes") / blocks, "count"},
		{"encplane.migrations_per_kblock", 1000 * d("encplane.migrations") / blocks, "count"},
		{"broker.heap_per_sub_KB", f.heapPerSub / 1024, "KB"},
	}
}
