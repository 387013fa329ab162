// Package lz implements the paper's Lempel-Ziv method (§2.3): LZ77 sliding
// window matching whose back-pointers (distance, length) are entropy-coded
// with Huffman codes, following the observation of ref [27] that pointer
// components are small and skewed, so Huffman codes shorten them further.
//
// The on-disk layout of a compressed block is:
//
//	litlen code-length table (286 symbols) |
//	distance code-length table (30 symbols) |
//	token stream
//
// Tokens use a deflate-style symbol space — literals 0..255, match lengths
// 256..284 with extra bits, distance codes 0..29 with extra bits — but the
// bit stream is this package's own; it is not zlib-compatible.
package lz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"ccx/internal/bitio"
	"ccx/internal/huffman"
)

var (
	// ErrCorrupt is returned for malformed or truncated compressed data.
	ErrCorrupt = errors.New("lz: corrupt input")
)

const (
	minMatch   = 3
	maxMatch   = 258
	windowSize = 32 * 1024 // distances are < windowSize

	numLitLenSyms = 256 + 29 // literals + length buckets
	numDistSyms   = 30

	hashBits  = 15
	hashSize  = 1 << hashBits
	hashShift = 32 - hashBits
	// maxChainLen bounds match-search effort; the paper positions LZ as the
	// mid-speed method, so we favour speed over the last percent of ratio.
	maxChainLen = 64
	// niceLen stops the chain walk early once a match this good is found.
	niceLen = 128
)

// Deflate-compatible length and distance bucket tables.
var (
	lengthBase = [29]int{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51,
		59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lengthExtra = [29]uint{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
		4, 5, 5, 5, 5, 0,
	}
	distBase = [30]int{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
		513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
	}
	distExtra = [30]uint{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
		10, 11, 11, 12, 12, 13, 13,
	}
)

// Symbol lookup tables, built from the bucket tables above. Every match
// token is mapped twice (once to count, once to emit), so the buckets are
// resolved by index rather than by scanning.
var (
	lengthSymTab [maxMatch + 1]uint8 // match length -> length bucket
	// distSymLo maps dist-1 for dist <= 256; distSymHi maps (dist-1)>>7 for
	// larger distances, whose bucket bases are all 1 + a multiple of 128.
	distSymLo [256]uint8
	distSymHi [256]uint8
	// emptyHead is the all -1 hash head that resets a pooled matcher with
	// one copy.
	emptyHead [hashSize]int32
)

func init() {
	for l := minMatch; l <= maxMatch; l++ {
		s := len(lengthBase) - 1
		for l < lengthBase[s] {
			s--
		}
		lengthSymTab[l] = uint8(s)
	}
	for d := 1; d <= windowSize; d++ {
		s := len(distBase) - 1
		for d < distBase[s] {
			s--
		}
		if d <= 256 {
			distSymLo[d-1] = uint8(s)
		} else {
			distSymHi[(d-1)>>7] = uint8(s)
		}
	}
	for i := range emptyHead {
		emptyHead[i] = -1
	}
}

// lengthSym maps a match length (3..258) to its bucket symbol offset (0..28).
func lengthSym(length int) int {
	return int(lengthSymTab[length])
}

// distSym maps a distance (1..32768) to its bucket symbol (0..29).
func distSym(dist int) int {
	if dist <= 256 {
		return int(distSymLo[dist-1])
	}
	return int(distSymHi[(dist-1)>>7])
}

// token is one literal or match emitted by the tokenizer.
type token struct {
	length uint16 // 0 for literal
	dist   uint16
	lit    byte
}

// hash4 hashes the 3 bytes at src[i:i+3] (minMatch bytes, despite the name)
// into a hashBits-bit bucket.
func hash4(src []byte, i int) uint32 {
	v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
	return (v * 506832829) >> hashShift
}

// matcher holds the per-call scratch of Compress. Matchers live only in
// matcherPool, never on long-lived objects, so an idle process keeps none
// of them across garbage collections, and nothing Compress returns points
// into one.
type matcher struct {
	head        [hashSize]int32 // most recent position per hash bucket, -1 if none
	prev        []int32         // prev[i] is the previous position in i's chain
	tokens      []token
	litLenFreq  [numLitLenSyms]int64
	distFreq    [numDistSyms]int64
	litLenCodes [numLitLenSyms]code
	distCodes   [numDistSyms]code
	w           bitio.Writer
}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// reset prepares m for an input of n bytes. prev needs no clearing: a chain
// only ever reaches positions inserted during this call.
func (m *matcher) reset(n int) {
	m.head = emptyHead
	if cap(m.prev) < n {
		m.prev = make([]int32, n)
	}
	m.prev = m.prev[:n]
	m.tokens = m.tokens[:0]
	m.litLenFreq = [numLitLenSyms]int64{}
	m.distFreq = [numDistSyms]int64{}
	m.w.Reset()
}

func (m *matcher) insert(src []byte, i int) {
	h := hash4(src, i)
	m.prev[i] = m.head[h]
	m.head[h] = int32(i)
}

// findMatch returns the longest match for src[pos:] among the first
// maxChainLen candidates of pos's hash chain (earliest-found wins ties).
func (m *matcher) findMatch(src []byte, pos int) (length, dist int) {
	if pos+minMatch > len(src) {
		return 0, 0
	}
	limit := pos - windowSize
	if limit < 0 {
		limit = -1
	}
	maxLen := len(src) - pos
	if maxLen > maxMatch {
		maxLen = maxMatch
	}
	cand := m.head[hash4(src, pos)]
	best, bestDist := 0, 0
	for chain := 0; cand > int32(limit) && chain < maxChainLen; chain++ {
		c := int(cand)
		// A candidate that differs at offset best cannot be longer than
		// best, so this test skips only candidates that could not win.
		if c != pos && src[c+best] == src[pos+best] {
			l := matchLen(src, c, pos, maxLen)
			if l > best {
				best, bestDist = l, pos-c
				if l >= niceLen || l == maxLen {
					break
				}
			}
		}
		cand = m.prev[c]
	}
	if best < minMatch {
		return 0, 0
	}
	return best, bestDist
}

// tokenize performs greedy LZ77 parsing with one-step lazy matching.
func (m *matcher) tokenize(src []byte) []token {
	tokens := m.tokens
	i := 0
	for i < len(src) {
		if i+minMatch > len(src) {
			tokens = append(tokens, token{lit: src[i]})
			i++
			continue
		}
		length, dist := m.findMatch(src, i)
		if length >= minMatch && i+1+minMatch <= len(src) {
			// Lazy matching: prefer a strictly longer match at i+1.
			m.insert(src, i)
			l2, d2 := m.findMatch(src, i+1)
			if l2 > length {
				tokens = append(tokens, token{lit: src[i]})
				i++
				length, dist = l2, d2
			}
		} else if length >= minMatch {
			m.insert(src, i)
		}
		if length < minMatch {
			tokens = append(tokens, token{lit: src[i]})
			m.insert(src, i)
			i++
			continue
		}
		tokens = append(tokens, token{length: uint16(length), dist: uint16(dist)})
		// Insert hash entries across the match so later data can point here.
		end := i + length
		for j := i + 1; j < end && j+minMatch <= len(src); j++ {
			m.insert(src, j)
		}
		i = end
	}
	m.tokens = tokens
	return tokens
}

// matchLen returns how many bytes src[a:] and src[b:] share, up to max,
// comparing eight bytes at a time. b+max must not exceed len(src), and a < b.
func matchLen(src []byte, a, b, max int) int {
	n := 0
	for n+8 <= max {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// code is a bit string of n bits (n <= 32), most significant bit first.
type code struct {
	bits uint64
	n    uint
}

// canonicalCodes assigns each symbol its canonical Huffman code from the
// code lengths, the same assignment huffman.NewEncoder makes and
// huffman.NewDecoder expects: codes of each length are consecutive, in
// symbol order, and shorter codes come first.
func canonicalCodes(lengths []uint8, codes []code) {
	var count [huffman.MaxCodeLen + 1]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	var next [huffman.MaxCodeLen + 1]uint64
	c := uint64(0)
	for l := 1; l <= huffman.MaxCodeLen; l++ {
		c = (c + uint64(count[l-1])) << 1
		next[l] = c
	}
	for sym, l := range lengths {
		codes[sym] = code{next[l], uint(l)}
		if l != 0 {
			next[l]++
		}
	}
}

// bitAcc gathers codes into one 64-bit word so the writer is called once
// per word rather than once per code and extra-bits field.
type bitAcc struct {
	word uint64
	n    uint
}

func (a *bitAcc) put(w *bitio.Writer, c code) {
	if a.n+c.n > 64 {
		a.flush(w)
	}
	a.word = a.word<<c.n | c.bits
	a.n += c.n
}

// flush writes the gathered bits. WriteBits fails only for more than 64
// bits, which put never gathers.
func (a *bitAcc) flush(w *bitio.Writer) {
	_ = w.WriteBits(a.word, a.n)
	a.word, a.n = 0, 0
}

// noDistLens is the distance table of a literal-only block.
var noDistLens [numDistSyms]uint8

// Compress encodes src. The caller must retain len(src) for Decompress.
func Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return nil, nil
	}
	m := matcherPool.Get().(*matcher)
	defer matcherPool.Put(m)
	m.reset(len(src))
	tokens := m.tokenize(src)

	litLenFreq, distFreq := m.litLenFreq[:], m.distFreq[:]
	for _, t := range tokens {
		if t.length == 0 {
			litLenFreq[t.lit]++
		} else {
			litLenFreq[256+lengthSym(int(t.length))]++
			distFreq[distSym(int(t.dist))]++
		}
	}
	litLenLens, err := huffman.BuildLengths(litLenFreq)
	if err != nil {
		return nil, fmt.Errorf("lz: litlen table: %w", err)
	}
	distLens := noDistLens[:]
	for _, f := range distFreq {
		if f > 0 {
			if distLens, err = huffman.BuildLengths(distFreq); err != nil {
				return nil, err
			}
			break
		}
	}
	litLenCodes, distCodes := m.litLenCodes[:], m.distCodes[:]
	canonicalCodes(litLenLens, litLenCodes)
	canonicalCodes(distLens, distCodes)

	w := &m.w
	if err := huffman.WriteLengths(w, litLenLens); err != nil {
		return nil, err
	}
	if err := huffman.WriteLengths(w, distLens); err != nil {
		return nil, err
	}
	// Every symbol emitted below was counted above, so each has a code.
	var acc bitAcc
	for _, t := range tokens {
		if t.length == 0 {
			acc.put(w, litLenCodes[t.lit])
			continue
		}
		length, dist := int(t.length), int(t.dist)
		ls := lengthSym(length)
		acc.put(w, litLenCodes[256+ls])
		acc.put(w, code{uint64(length - lengthBase[ls]), lengthExtra[ls]})
		ds := distSym(dist)
		acc.put(w, distCodes[ds])
		acc.put(w, code{uint64(dist - distBase[ds]), distExtra[ds]})
	}
	acc.flush(w)
	// The writer's buffer goes back to the pool; the caller gets a copy.
	return bytes.Clone(w.Bytes()), nil
}

// Decompress reverses Compress, producing exactly origLen bytes.
func Decompress(src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return nil, nil
	}
	r := bitio.NewReader(src)
	litLenLens, err := huffman.ReadLengths(r, numLitLenSyms)
	if err != nil {
		return nil, err
	}
	distLens, err := huffman.ReadLengths(r, numDistSyms)
	if err != nil {
		return nil, err
	}
	litLenDec, err := huffman.NewDecoder(litLenLens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var distDec *huffman.Decoder
	for _, l := range distLens {
		if l > 0 {
			distDec, err = huffman.NewDecoder(distLens)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			break
		}
	}
	dst := make([]byte, origLen)
	n := 0 // bytes decoded so far
	for n < origLen {
		sym, err := litLenDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if sym < 256 {
			dst[n] = byte(sym)
			n++
			continue
		}
		ls := sym - 256
		if ls >= len(lengthBase) {
			return nil, ErrCorrupt
		}
		length := lengthBase[ls]
		if eb := lengthExtra[ls]; eb > 0 {
			extra, err := r.ReadBits(eb)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			length += int(extra)
		}
		if distDec == nil {
			return nil, ErrCorrupt
		}
		ds, err := distDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if ds >= len(distBase) {
			return nil, ErrCorrupt
		}
		dist := distBase[ds]
		if eb := distExtra[ds]; eb > 0 {
			extra, err := r.ReadBits(eb)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			dist += int(extra)
		}
		if dist <= 0 || dist > n {
			return nil, ErrCorrupt
		}
		if n+length > origLen {
			return nil, ErrCorrupt
		}
		// One copy when the source ends before the destination starts
		// (dist >= length); otherwise the match repeats a dist-byte period,
		// and each copy doubles the run already written.
		start, end := n-dist, n+length
		for n < end {
			n += copy(dst[n:end], dst[start:n])
		}
	}
	return dst, nil
}
