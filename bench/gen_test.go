package main

import (
	"bytes"
	"testing"
)

func TestVerifyBlockCatchesOneFlippedByte(t *testing.T) {
	pattern := newPattern(7)
	blk := append([]byte(nil), pattern...)
	const n = 12345
	stampBlock(blk, n)
	if err := verifyBlock(blk, pattern, n); err != nil {
		t.Fatalf("intact block rejected: %v", err)
	}
	if err := verifyBlock(blk, pattern, n+1); err == nil {
		t.Error("block accepted under the wrong number")
	}
	if err := verifyBlock(blk[:blockSize-1], pattern, n); err == nil {
		t.Error("short block accepted")
	}
	off := stripeOffset(n)
	for _, at := range []int{0, hdrLen - 1, off, off + stripeLen/2, off - off%stripeLen + stripeLen - 1} {
		blk[at] ^= 0x01
		if err := verifyBlock(blk, pattern, n); err == nil {
			t.Errorf("one flipped bit at byte %d went unnoticed", at)
		}
		blk[at] ^= 0x01
	}
	// The stripe is a sample, but it walks: a byte that stays wrong is
	// seen within one lap of 256 blocks, wherever it is.
	for _, at := range []int{hdrLen, 4095, 4096, 500_000, blockSize - 1} {
		caught := 0
		for k := uint64(0); k < blockSize/stripeLen; k++ {
			stampBlock(blk, k)
			blk[at] ^= 0x80
			if verifyBlock(blk, pattern, k) != nil {
				caught++
			}
			blk[at] ^= 0x80
		}
		if caught != 1 {
			t.Errorf("a bad byte at %d was caught by %d of 256 consecutive blocks, want exactly 1", at, caught)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(newPattern(3), newPattern(3)) {
		t.Error("same seed, different payload pattern")
	}
	if bytes.Equal(newPattern(3), newPattern(4)) {
		t.Error("different seeds, same payload pattern")
	}
	a, b, other := newRand(3, "dial/0"), newRand(3, "dial/0"), newRand(3, "listen/0")
	same, differ := true, false
	for i := 0; i < 32; i++ {
		x := a.Int31()
		same = same && x == b.Int31()
		differ = differ || x != other.Int31()
	}
	if !same || !differ {
		t.Errorf("handshake randomness: same stream repeats=%v, streams differ=%v", same, differ)
	}
	pattern := newPattern(3)
	m1, m2, m3 := make([]byte, rrMsgLen), make([]byte, rrMsgLen), make([]byte, rrMsgLen)
	fillMessage(m1, pattern, 99)
	fillMessage(m2, pattern, 99)
	fillMessage(m3, pattern, 100)
	if !bytes.Equal(m1, m2) || bytes.Equal(m1, m3) {
		t.Error("message n must repeat per seed and differ from message n+1")
	}
	if simSpec(subSeed(3, "sim/0"), simPayload).Seed != simSpec(subSeed(3, "sim/0"), simPayload).Seed ||
		subSeed(3, "sim/0") == subSeed(3, "sim/1") || subSeed(3, "sim/0") == subSeed(4, "sim/0") {
		t.Error("campaign seeds must be a function of (-seed, campaign index) and differ across both")
	}
}
