package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// recorder accumulates one phase's operations. The subscriber readers of
// fanout call it from two goroutines, so every method locks.
type recorder struct {
	mu       sync.Mutex
	lat      []time.Duration // one per completed operation
	orig     int64           // original bytes verified at receivers
	wire     int64           // wire bytes received for them
	bad      int             // verification mismatches
	firstBad string          // first mismatch, for the diagnostic
	tr       *tracer         // nil outside the traced phase
}

// op records one completed, verified operation.
func (r *recorder) op(lat time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, lat)
	r.mu.Unlock()
}

// bytes records verified original bytes and the wire bytes that carried them.
func (r *recorder) bytes(orig, wire int) {
	r.mu.Lock()
	r.orig += int64(orig)
	r.wire += int64(wire)
	r.mu.Unlock()
}

// mismatch records a failed output check. The run keeps going so that the
// count is complete; the result then reads "correct": false.
func (r *recorder) mismatch(format string, args ...any) {
	r.mu.Lock()
	if r.bad == 0 {
		r.firstBad = fmt.Sprintf(format, args...)
	}
	r.bad++
	r.mu.Unlock()
}

func (r *recorder) verified() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.orig
}

func (r *recorder) ops() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat)
}

// countReader counts the bytes a frame reader consumes.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the samples at or below it. xs is
// sorted in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a full collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocBytes returns the cumulative bytes allocated so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// uvarintLen is the encoded length of x as an unsigned varint.
func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

// maxFrameLen bounds a frame carrying origLen original bytes, from the wire
// format alone: magic(2) version(1) method(1) flags(1), the two length
// varints (the payload never exceeds origLen, since an expanding method
// falls back to raw), the sequence varint when the frame carries one, the
// CRC(4), and the payload.
func maxFrameLen(origLen int, seq uint64, hasSeq bool) int {
	n := 5 + 2*uvarintLen(uint64(origLen)) + 4 + origLen
	if hasSeq {
		n += uvarintLen(seq)
	}
	return n
}
