package main

import (
	"ccx/internal/datagen"
)

// kind is one of the paper's data classes, as internal/datagen makes them.
type kind byte

const (
	kindOIS    kind = 'o' // airline transactions: string-repetitive (LZ, BWT)
	kindXML    kind = 'x' // the same records in XML markup: more repetitive still
	kindLow    kind = 'l' // 16-symbol alphabet, no string structure (Huffman)
	kindRandom kind = 'r' // incompressible (None)
)

// mixedBlocks cuts n blocks of size bytes whose kinds follow pattern
// cyclically. Each kind is one generated stream, so consecutive blocks of a
// kind continue its content rather than repeat it. The bytes are a function
// of seed alone.
func mixedBlocks(seed int64, size, n int, pattern string) [][]byte {
	need := map[kind]int{}
	for i := 0; i < n; i++ {
		need[kind(pattern[i%len(pattern)])] += size
	}
	streams := map[kind][]byte{}
	for k, total := range need {
		s := seed*16 + int64(k)
		switch k {
		case kindOIS:
			streams[k] = datagen.OISTransactions(total, 0.9, s)
		case kindXML:
			streams[k] = datagen.XMLDocuments(total, s)
		case kindLow:
			streams[k] = datagen.LowEntropy(total, 16, s)
		default:
			streams[k] = datagen.Random(total, s)
		}
	}
	blocks := make([][]byte, n)
	off := map[kind]int{}
	for i := range blocks {
		k := kind(pattern[i%len(pattern)])
		blocks[i] = streams[k][off[k] : off[k]+size : off[k]+size]
		off[k] += size
	}
	return blocks
}
