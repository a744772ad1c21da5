package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Everything a workload feeds the stack is generated here from -seed: the
// payload pattern, the handshake randomness behind Config.Rand, and the
// campaign seeds. The stack itself never sees the seed.

const (
	blockSize = 1 << 20 // bulk_* write unit
	stripeLen = 4 << 10 // bytes of each block the reader compares
	hdrLen    = 8       // big-endian block / message counter
)

// subSeed derives an independent stream seed from the run seed and a
// stream name, so adding a stream never shifts the draws of another.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])           //nolint:errcheck // hash.Hash never fails
	h.Write([]byte(stream)) //nolint:errcheck
	return int64(h.Sum64() >> 1)
}

// newRand returns the generator for one named stream of the run seed.
func newRand(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream))) //nolint:gosec // reproducibility, not crypto
}

// newPattern returns the run's blockSize-byte payload pattern.
func newPattern(seed int64) []byte {
	p := make([]byte, blockSize)
	newRand(seed, "payload").Read(p) //nolint:errcheck // never fails
	return p
}

// stampBlock turns blk (a copy of the pattern) into block number n.
func stampBlock(blk []byte, n uint64) { binary.BigEndian.PutUint64(blk, n) }

// stripeOffset is where block n's sampled stripe starts. It walks the
// block in stripeLen steps, so 256 consecutive blocks cover every byte.
func stripeOffset(n uint64) int {
	off := int(n%(blockSize/stripeLen)) * stripeLen
	if off == 0 {
		off = hdrLen // the first stripe starts after the counter
	}
	return off
}

// verifyBlock checks that got is block number n of the pattern: the
// counter exactly, and the block's sampled stripe byte for byte.
func verifyBlock(got, pattern []byte, n uint64) error {
	if len(got) != blockSize {
		return fmt.Errorf("block %d: %d bytes, want %d", n, len(got), blockSize)
	}
	if c := binary.BigEndian.Uint64(got); c != n {
		return fmt.Errorf("block %d: counter reads %d", n, c)
	}
	off := stripeOffset(n)
	end := off - off%stripeLen + stripeLen
	if !bytes.Equal(got[off:end], pattern[off:end]) {
		return fmt.Errorf("block %d: stripe at %d differs from the pattern", n, off)
	}
	return nil
}

// fillMessage writes message number n of size len(msg) into msg: the
// counter followed by a window of the pattern that moves with n, so no two
// consecutive messages are alike.
func fillMessage(msg, pattern []byte, n uint64) {
	off := int(n*521) % (len(pattern) - len(msg))
	copy(msg, pattern[off:off+len(msg)])
	binary.BigEndian.PutUint64(msg, n)
}
