package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"udt/internal/seqno"
)

func TestSndBufferWritePacketRelease(t *testing.T) {
	b := NewSndBuffer(4, 10, 100)
	if b.Free() != 4 || b.Pending() != 0 {
		t.Fatal("fresh buffer state wrong")
	}
	n := b.Write([]byte("abcdefghijklmno")) // 15 bytes → packets of 10 and 5
	if n != 15 || b.Pending() != 2 {
		t.Fatalf("Write = %d, pending = %d", n, b.Pending())
	}
	if b.NextWriteSeq() != 102 {
		t.Fatalf("NextWriteSeq = %d", b.NextWriteSeq())
	}
	p, ok := b.Packet(100)
	if !ok || string(p) != "abcdefghij" {
		t.Fatalf("Packet(100) = %q,%v", p, ok)
	}
	p, ok = b.Packet(101)
	if !ok || string(p) != "klmno" {
		t.Fatalf("Packet(101) = %q,%v", p, ok)
	}
	if _, ok := b.Packet(102); ok {
		t.Fatal("unwritten packet returned")
	}
	if _, ok := b.Packet(99); ok {
		t.Fatal("pre-head packet returned")
	}
	if k := b.Release(101); k != 1 {
		t.Fatalf("Release = %d", k)
	}
	if _, ok := b.Packet(100); ok {
		t.Fatal("released packet still accessible")
	}
	if b.Release(101) != 0 {
		t.Fatal("idempotent release broke")
	}
}

func TestSndBufferFull(t *testing.T) {
	b := NewSndBuffer(2, 10, 0)
	if n := b.Write(make([]byte, 100)); n != 20 {
		t.Fatalf("Write into full = %d, want 20", n)
	}
	if n := b.Write([]byte("x")); n != 0 {
		t.Fatalf("Write into full buffer = %d", n)
	}
	b.Release(1)
	if n := b.Write([]byte("x")); n != 1 {
		t.Fatalf("Write after release = %d", n)
	}
}

func TestSndBufferShortTailPerWrite(t *testing.T) {
	b := NewSndBuffer(8, 10, 0)
	b.Write([]byte("12345"))   // short packet 0
	b.Write([]byte("abcdefg")) // short packet 1: writes never share packets
	p0, _ := b.Packet(0)
	p1, _ := b.Packet(1)
	if string(p0) != "12345" || string(p1) != "abcdefg" {
		t.Fatalf("packets: %q %q", p0, p1)
	}
}

func TestSndBufferWrapSeq(t *testing.T) {
	b := NewSndBuffer(4, 2, seqno.Max-1)
	b.Write([]byte("aabbcc"))
	if p, ok := b.Packet(seqno.Max); !ok || string(p) != "bb" {
		t.Fatalf("wrap Packet = %q,%v", p, ok)
	}
	if p, ok := b.Packet(0); !ok || string(p) != "cc" {
		t.Fatalf("wrap Packet(0) = %q,%v", p, ok)
	}
	if k := b.Release(0); k != 2 {
		t.Fatalf("wrap Release = %d", k)
	}
}

func TestRcvBufferInOrder(t *testing.T) {
	b := NewRcvBuffer(8, 4, 10)
	if !b.Store(10, []byte("abcd")) || !b.Store(11, []byte("ef")) {
		t.Fatal("Store failed")
	}
	if b.Available() != 6 {
		t.Fatalf("Available = %d", b.Available())
	}
	out := make([]byte, 3)
	if n := b.Read(out); n != 3 || string(out) != "abc" {
		t.Fatalf("Read = %d %q", n, out)
	}
	out = make([]byte, 10)
	if n := b.Read(out); n != 3 || string(out[:n]) != "def" {
		t.Fatalf("Read = %d %q", n, out[:n])
	}
	if b.Available() != 0 || b.Free() != 8 {
		t.Fatal("buffer should be drained")
	}
}

func TestRcvBufferOutOfOrderAndDup(t *testing.T) {
	b := NewRcvBuffer(8, 4, 0)
	if !b.Store(2, []byte("cccc")) {
		t.Fatal("out-of-order Store failed")
	}
	if b.Available() != 0 {
		t.Fatal("hole must block availability")
	}
	if b.Store(2, []byte("cccc")) {
		t.Fatal("duplicate accepted")
	}
	b.Store(0, []byte("aaaa"))
	b.Store(1, []byte("bbbb"))
	if b.Available() != 12 {
		t.Fatalf("Available = %d", b.Available())
	}
	out := make([]byte, 12)
	b.Read(out)
	if string(out) != "aaaabbbbcccc" {
		t.Fatalf("Read %q", out)
	}
	if b.Store(1, []byte("bbbb")) {
		t.Fatal("pre-base duplicate accepted")
	}
}

func TestRcvBufferWindowBound(t *testing.T) {
	b := NewRcvBuffer(4, 4, 0)
	if b.Store(4, []byte("xxxx")) {
		t.Fatal("store beyond window accepted")
	}
	for i := int32(0); i < 4; i++ {
		b.Store(i, []byte("aaaa"))
	}
	if b.Free() != 0 {
		t.Fatalf("Free = %d", b.Free())
	}
}

func TestRcvBufferOverlappedDirect(t *testing.T) {
	b := NewRcvBuffer(8, 4, 0)
	user := make([]byte, 12) // 3 packets
	if !b.AttachUser(user) {
		t.Fatal("AttachUser failed on drained buffer")
	}
	if b.AttachUser(user) {
		t.Fatal("double attach accepted")
	}
	b.Store(0, []byte("aaaa"))
	b.Store(1, []byte("bbbb"))
	direct := b.DetachUser()
	if direct != 8 {
		t.Fatalf("direct bytes = %d, want 8", direct)
	}
	if string(user[:8]) != "aaaabbbb" {
		t.Fatalf("user buffer = %q", user[:8])
	}
	if b.DirectBytes != 8 || b.CopiedBytes != 0 {
		t.Fatalf("counters: direct=%d copied=%d", b.DirectBytes, b.CopiedBytes)
	}
	if b.Available() != 0 {
		t.Fatal("consumed data still available")
	}
	// Buffer continues to work for the next packets.
	b.Store(2, []byte("cccc"))
	out := make([]byte, 4)
	if b.Read(out); string(out) != "cccc" {
		t.Fatalf("post-detach Read = %q", out)
	}
}

func TestRcvBufferOverlappedHoleCopyBack(t *testing.T) {
	b := NewRcvBuffer(8, 4, 0)
	user := make([]byte, 16)
	b.AttachUser(user)
	b.Store(0, []byte("aaaa"))
	b.Store(2, []byte("cccc")) // hole at 1: packet 2 is stranded in user memory
	direct := b.DetachUser()
	if direct != 4 {
		t.Fatalf("direct = %d, want 4 (only the contiguous head)", direct)
	}
	// Clobber the user buffer: packet 2 must have been copied back.
	for i := range user {
		user[i] = 'X'
	}
	b.Store(1, []byte("bbbb"))
	out := make([]byte, 8)
	if n := b.Read(out); n != 8 || string(out) != "bbbbcccc" {
		t.Fatalf("after copy-back Read = %q", out[:n])
	}
}

func TestRcvBufferOverlappedShortPacketFallsBack(t *testing.T) {
	b := NewRcvBuffer(8, 4, 0)
	user := make([]byte, 16)
	b.AttachUser(user)
	b.Store(0, []byte("ab")) // short packet: slot path
	if b.DirectBytes != 0 || b.CopiedBytes != 2 {
		t.Fatalf("short packet placement: direct=%d copied=%d", b.DirectBytes, b.CopiedBytes)
	}
	if d := b.DetachUser(); d != 0 {
		t.Fatalf("direct = %d, want 0", d)
	}
	out := make([]byte, 2)
	b.Read(out)
	if string(out) != "ab" {
		t.Fatalf("Read = %q", out)
	}
}

func TestRcvBufferAttachRules(t *testing.T) {
	b := NewRcvBuffer(8, 4, 0)
	if b.AttachUser(make([]byte, 3)) {
		t.Fatal("attach of sub-packet buffer accepted")
	}
	b.Store(0, []byte("aaaa"))
	if b.AttachUser(make([]byte, 8)) {
		t.Fatal("attach with stored data accepted")
	}
	if b.DetachUser() != 0 {
		t.Fatal("detach without attach should be 0")
	}
}

// TestPropRcvBufferRandomOrder delivers a random permutation with duplicates
// and checks the reader sees the exact original stream.
func TestPropRcvBufferRandomOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const pkts, payload = 64, 8
		base := int32(rng.Intn(1 << 20))
		want := make([]byte, pkts*payload)
		rng.Read(want)
		b := NewRcvBuffer(pkts, payload, base)
		order := rng.Perm(pkts)
		for _, i := range order {
			pl := want[i*payload : (i+1)*payload]
			if !b.Store(seqno.Add(base, int32(i)), pl) {
				return false
			}
			if rng.Intn(4) == 0 { // duplicate must be rejected
				if b.Store(seqno.Add(base, int32(i)), pl) {
					return false
				}
			}
		}
		got := make([]byte, pkts*payload)
		if n := b.Read(got); n != len(got) {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropSndRcvPipe pushes a random stream through SndBuffer → RcvBuffer
// with random chunk sizes and verifies byte-exact delivery.
func TestPropSndRcvPipe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const payload = 16
		want := make([]byte, 1+rng.Intn(2000))
		rng.Read(want)
		snd := NewSndBuffer(256, payload, 0)
		rcv := NewRcvBuffer(256, payload, 0)
		var got []byte
		src := want
		seq := int32(0)
		for len(src) > 0 || snd.Pending() > 0 {
			if len(src) > 0 {
				n := snd.Write(src[:min(len(src), 1+rng.Intn(50))])
				src = src[n:]
			}
			for snd.Pending() > 0 {
				p, ok := snd.Packet(seq)
				if !ok {
					return false
				}
				if !rcv.Store(seq, p) {
					return false
				}
				snd.Release(seqno.Inc(seq))
				seq = seqno.Inc(seq)
			}
			buf := make([]byte, 64)
			for {
				n := rcv.Read(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSndBufferWriteZC checks the zero-copy write path: packets alias the
// caller's memory (no copy), chunking matches Write exactly, Release
// drops the alias so the caller may unpin the backing memory, and mixed
// Write/WriteZC traffic never serves stale external bytes.
func TestSndBufferWriteZC(t *testing.T) {
	b := NewSndBuffer(4, 10, 100)
	src := []byte("abcdefghijklmno") // packets of 10 and 5, like Write
	if n := b.WriteZC(src); n != 15 || b.Pending() != 2 {
		t.Fatalf("WriteZC = %d, pending = %d", n, b.Pending())
	}
	p, ok := b.Packet(100)
	if !ok || string(p) != "abcdefghij" {
		t.Fatalf("Packet(100) = %q,%v", p, ok)
	}
	if &p[0] != &src[0] {
		t.Fatal("zero-copy packet does not alias the source")
	}
	// Mutating the source must show through: the slot holds no copy.
	src[0] = 'Z'
	if p, _ := b.Packet(100); p[0] != 'Z' {
		t.Fatal("packet did not reflect source mutation; a copy was made")
	}
	p, ok = b.Packet(101)
	if !ok || string(p) != "klmno" || &p[0] != &src[10] {
		t.Fatalf("Packet(101) = %q,%v (aliased=%v)", p, ok, ok && &p[0] == &src[10])
	}
	if k := b.Release(102); k != 2 {
		t.Fatalf("Release = %d", k)
	}
	for _, c := range b.chunks() {
		for i, e := range c.ext {
			if e != nil {
				t.Fatalf("ext slot %d still pins caller memory after release", i)
			}
		}
	}
	// A copied write reusing the same slots must not resurface external
	// bytes.
	if n := b.Write([]byte("0123456789XY")); n != 12 {
		t.Fatalf("Write = %d", n)
	}
	if p, ok := b.Packet(102); !ok || string(p) != "0123456789" {
		t.Fatalf("Packet(102) after slot reuse = %q,%v", p, ok)
	}
	if p, ok := b.Packet(103); !ok || string(p) != "XY" {
		t.Fatalf("Packet(103) after slot reuse = %q,%v", p, ok)
	}
}

// TestSndBufferWriteZCInterleaved mixes copied and zero-copy writes in
// one stream: packet contents must come out in write order regardless of
// which path queued them.
func TestSndBufferWriteZCInterleaved(t *testing.T) {
	b := NewSndBuffer(8, 4, 0)
	b.Write([]byte("AAAA"))
	zc := []byte("BBBBCC")
	b.WriteZC(zc)
	b.Write([]byte("DD"))
	want := []string{"AAAA", "BBBB", "CC", "DD"}
	for i, w := range want {
		p, ok := b.Packet(int32(i))
		if !ok || string(p) != w {
			t.Fatalf("Packet(%d) = %q,%v want %q", i, p, ok, w)
		}
	}
}

// chunks lists every chunk the ring holds, occupied and spare.
func (r *slotRing) chunks() []*chunk {
	var out []*chunk
	for _, c := range r.tab {
		if c != nil {
			out = append(out, c)
		}
	}
	for c := r.spare; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// The model-based tests below drive each buffer and a deliberately naive
// reference model through the same seeded random operation sequence and
// compare every observable after every operation. The models hold one
// []byte per sequence number in a plain slice and know nothing about rings,
// slots or storage, so they pin what the buffers mean, not how they keep it.

// modelCaps are the buffer capacities the model tests run at: a single
// slot, a capacity below one storage chunk, exact chunk multiples, a ragged
// last chunk, and the default connection's 8192.
var modelCaps = []int{1, 3, 16, 17, 32, 8192}

// modelPayload is deliberately odd so stride arithmetic cannot hide behind
// alignment.
const modelPayload = 7

// residency is the model's side of the storage rule (buffer.go, "capacity
// is not residency"): how many chunks a buffer may hold given only what has
// been in flight, in slots. inflight is the span of ring slots in use — the
// unacknowledged packets of a SndBuffer, base to highest stored packet in a
// RcvBuffer.
type residency struct {
	capacity int
	period   int // most slots in flight since the buffer was last empty
	keep     int // chunks it may keep while empty
}

// chunksFor is the most chunks n consecutive ring slots can touch: a run
// may straddle one chunk edge more than its length needs, and one more
// where the ring wraps through a ragged last chunk.
func (r *residency) chunksFor(n int) int {
	if n == 0 {
		return 0
	}
	c := (n-1+chunkMask)>>chunkShift + 1
	if r.capacity&chunkMask != 0 {
		c++
	}
	return min(c, (r.capacity+chunkMask)>>chunkShift)
}

// check asserts the rule after one operation: live chunks cover no more
// than what is in flight now; live plus spare chunks no more than the
// high-water mark of the current busy period (or what the buffer was
// allowed to keep when it last ran empty); an empty buffer holds no live
// chunk, and no more spares than the busy period that just ended needed —
// an allowance that then falls by a chunk per busy period, so a flow that
// settles to one packet at a time settles to one spare.
func (r *residency) check(t *testing.T, ring *slotRing, inflight int) {
	t.Helper()
	live := 0
	for _, c := range ring.tab {
		if c != nil {
			live++
		}
	}
	if inflight == 0 && r.period > 0 { // the buffer just drained
		r.keep = max(r.chunksFor(r.period), r.keep-1)
		r.period = 0
	}
	r.period = max(r.period, inflight)
	if live > r.chunksFor(inflight) {
		t.Fatalf("%d chunks live with %d slots in flight, want ≤ %d", live, inflight, r.chunksFor(inflight))
	}
	nspare := int(ring.nspare)
	if bound := max(r.keep, r.chunksFor(r.period)); live+nspare > bound {
		t.Fatalf("%d chunks resident (%d live, %d spare), want ≤ %d (busy-period high water %d slots, allowance %d)",
			live+nspare, live, nspare, bound, r.period, r.keep)
	}
	if got := len(ring.chunks()); got != live+nspare {
		t.Fatalf("spare list holds %d chunks, counter says %d", got-live, ring.nspare)
	}
}

// sndModel is the reference SndBuffer: the unacknowledged packets, oldest
// first. A zero-copy packet aliases the caller's memory, exactly as the
// real buffer promises to.
type sndModel struct {
	capacity int
	head     int32
	pkts     [][]byte
	zc       []bool
}

func (m *sndModel) write(p []byte, zc bool) int {
	written := 0
	for len(p) > 0 && len(m.pkts) < m.capacity {
		n := min(modelPayload, len(p))
		if zc {
			m.pkts = append(m.pkts, p[:n:n])
		} else {
			m.pkts = append(m.pkts, append([]byte(nil), p[:n]...))
		}
		m.zc = append(m.zc, zc)
		p = p[n:]
		written += n
	}
	return written
}

func (m *sndModel) release(seq int32) int {
	k := int(seqno.Off(m.head, seq))
	if k <= 0 {
		return 0
	}
	k = min(k, len(m.pkts))
	m.pkts, m.zc = m.pkts[k:], m.zc[k:]
	m.head = seqno.Add(m.head, int32(k))
	return k
}

// check compares the buffer's counters with the model's and the contents of
// the packets at offsets [lo, hi) — plus the two sequence numbers just
// outside the occupied range, which must not be served.
func (m *sndModel) check(t *testing.T, b *SndBuffer, lo, hi int) {
	t.Helper()
	if b.Cap() != m.capacity || b.Pending() != len(m.pkts) || b.Free() != m.capacity-len(m.pkts) {
		t.Fatalf("cap/pending/free = %d/%d/%d, model %d/%d/%d",
			b.Cap(), b.Pending(), b.Free(), m.capacity, len(m.pkts), m.capacity-len(m.pkts))
	}
	if want := seqno.Add(m.head, int32(len(m.pkts))); b.NextWriteSeq() != want {
		t.Fatalf("NextWriteSeq = %d, model %d", b.NextWriteSeq(), want)
	}
	if _, ok := b.Packet(seqno.Dec(m.head)); ok {
		t.Fatal("packet before the head served")
	}
	if _, ok := b.Packet(b.NextWriteSeq()); ok {
		t.Fatal("unwritten packet served")
	}
	for i := max(lo, 0); i < min(hi, len(m.pkts)); i++ {
		seq := seqno.Add(m.head, int32(i))
		p, ok := b.Packet(seq)
		if !ok || !bytes.Equal(p, m.pkts[i]) {
			t.Fatalf("Packet(%d) [offset %d of %d] = %x,%v; model %x", seq, i, len(m.pkts), p, ok, m.pkts[i])
		}
		if aliased := &p[0] == &m.pkts[i][0]; aliased != m.zc[i] {
			t.Fatalf("Packet(%d) aliases caller memory = %v, model %v", seq, aliased, m.zc[i])
		}
	}
}

// modelBytes returns n random bytes.
func modelBytes(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// TestSndBufferModel runs SndBuffer against sndModel: copied and zero-copy
// writes of every shape (empty, short, whole packets, larger than the free
// space), releases inside, at, past the end of and behind the occupied
// range, mutation of caller-owned zero-copy backing, and a sequence space
// that wraps through seqno.Max early in every run. Fill-biased and
// drain-biased phases alternate so the buffer is repeatedly driven full and
// empty and the ring wraps several times at every capacity.
func TestSndBufferModel(t *testing.T) {
	for _, capacity := range modelCaps {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed<<16 + int64(capacity)))
			first := seqno.Add(seqno.Max, -int32(rng.Intn(2*capacity+3)))
			b := NewSndBuffer(capacity, modelPayload, first)
			m := &sndModel{capacity: capacity, head: first}
			res := &residency{capacity: capacity}
			res.check(t, &b.slotRing, 0) // nothing written, nothing resident
			sweep := 64
			if capacity > 64 {
				sweep = 512
			}
			filling := true
			for op := 0; op < 4000; op++ {
				if op%200 == 0 {
					filling = rng.Intn(2) == 0
				}
				lo, hi := 0, 0 // packet offsets whose contents this op may have changed
				writeBias := 35
				if filling {
					writeBias = 65
				}
				switch r := rng.Intn(100); {
				case r < writeBias:
					var n int
					switch rng.Intn(6) {
					case 0:
						n = 0
					case 1:
						n = 1 + rng.Intn(modelPayload-1) // one short packet
					case 2:
						n = modelPayload * (1 + rng.Intn(4)) // whole packets only
					case 3:
						n = capacity*modelPayload + 5 // more than can ever fit
					default:
						n = 1 + rng.Intn(40*modelPayload)
					}
					src := modelBytes(rng, n)
					zc := rng.Intn(3) == 0
					lo = len(m.pkts)
					var got int
					if zc {
						got = b.WriteZC(src)
					} else {
						got = b.Write(src)
					}
					if want := m.write(src, zc); got != want {
						t.Fatalf("cap %d seed %d op %d: write(%d bytes, zc=%v) = %d, model %d", capacity, seed, op, n, zc, got, want)
					}
					hi = len(m.pkts)
					if !zc {
						// A copied write owes the caller nothing: scribbling on
						// the source afterwards must not show through.
						for i := range src {
							src[i] ^= 0xFF
						}
					}
				case r < 90:
					var d int
					switch rng.Intn(8) {
					case 0:
						d = len(m.pkts) // everything
					case 1:
						d = len(m.pkts) + 1 + rng.Intn(5) // past the end
					case 2:
						d = -1 - rng.Intn(100) // stale: behind the head
					case 3:
						d = -(1 << 29) // stale by a quarter of the sequence space
					default:
						d = rng.Intn(len(m.pkts) + 1)
					}
					seq := seqno.Add(m.head, int32(d))
					got := b.Release(seq)
					if want := m.release(seq); got != want {
						t.Fatalf("cap %d seed %d op %d: Release(head%+d) = %d, model %d", capacity, seed, op, d, got, want)
					}
					hi = 1 // the new head
				default:
					// Mutate the backing of a random zero-copy packet: the
					// buffer holds no copy, so the change must be served.
					if len(m.pkts) > 0 {
						if i := rng.Intn(len(m.pkts)); m.zc[i] {
							m.pkts[i][rng.Intn(len(m.pkts[i]))] ^= 0x55
							lo, hi = i, i+1
						}
					}
				}
				if op%sweep == 0 {
					lo, hi = 0, len(m.pkts)
				}
				m.check(t, b, lo, hi)
				if i := len(m.pkts) - 1; i >= 0 {
					m.check(t, b, i, i+1) // the tail, whatever the op was
				}
				res.check(t, &b.slotRing, len(m.pkts))
			}
			// Drain: every packet still queued must come out intact.
			m.check(t, b, 0, len(m.pkts))
			b.Release(b.NextWriteSeq())
			m.release(seqno.Add(m.head, int32(len(m.pkts))))
			m.check(t, b, 0, 0)
		}
	}
}

// rcvModel is the reference RcvBuffer: win[i] is the payload of sequence
// number base+i, nil while it has not arrived. It keeps its own copy of
// every payload, including those the real buffer placed in an attached user
// buffer, so a copy-back the real buffer forgets shows up as a mismatch.
type rcvModel struct {
	capacity int
	base     int32
	win      [][]byte
	inUser   []bool
	headOff  int
	nstored  int
	attached bool
	userPkts int
	direct   int64
	copied   int64
	res      residency
}

func newRcvModel(capacity int, first int32) *rcvModel {
	return &rcvModel{
		capacity: capacity, base: first, win: make([][]byte, capacity), inUser: make([]bool, capacity),
		res: residency{capacity: capacity},
	}
}

func (m *rcvModel) store(seq int32, p []byte) bool {
	off := int(seqno.Off(m.base, seq))
	if off < 0 || off >= m.capacity || m.win[off] != nil {
		return false
	}
	p = p[:min(len(p), modelPayload)]
	if m.attached && off < m.userPkts && len(p) == modelPayload {
		m.inUser[off] = true
		m.direct += int64(len(p))
	} else {
		m.copied += int64(len(p))
	}
	m.win[off] = append([]byte{}, p...)
	m.nstored++
	return true
}

// consume drops the first k packets of the window.
func (m *rcvModel) consume(k int) {
	copy(m.win, m.win[k:])
	copy(m.inUser, m.inUser[k:])
	for i := m.capacity - k; i < m.capacity; i++ {
		m.win[i], m.inUser[i] = nil, false
	}
	m.base = seqno.Add(m.base, int32(k))
	m.nstored -= k
}

func (m *rcvModel) available() int {
	total := 0
	for _, p := range m.win {
		if p == nil {
			break
		}
		total += len(p)
	}
	return total - m.headOff
}

func (m *rcvModel) attach(p []byte) bool {
	if m.attached || m.nstored != 0 || m.headOff != 0 || len(p) < modelPayload {
		return false
	}
	m.attached = true
	m.userPkts = min(len(p)/modelPayload, m.capacity)
	return true
}

// detach returns the bytes the reader received directly, in order.
func (m *rcvModel) detach() []byte {
	if !m.attached {
		return nil
	}
	var direct []byte
	k := 0
	for k < m.userPkts && m.win[k] != nil && m.inUser[k] {
		direct = append(direct, m.win[k]...)
		k++
	}
	m.consume(k)
	for i := range m.inUser {
		m.inUser[i] = false // stranded islands move back to protocol slots
	}
	m.attached, m.userPkts = false, 0
	return direct
}

func (m *rcvModel) read(n int) []byte {
	var out []byte
	k := 0
	for len(out) < n && k < m.capacity && m.win[k] != nil {
		take := min(n-len(out), len(m.win[k])-m.headOff)
		out = append(out, m.win[k][m.headOff:m.headOff+take]...)
		m.headOff += take
		if m.headOff == len(m.win[k]) {
			m.headOff = 0
			k++
		}
	}
	m.consume(k)
	return out
}

// firstHole is the offset of the first packet that has not arrived.
func (m *rcvModel) firstHole() int {
	for i, p := range m.win {
		if p == nil {
			return i
		}
	}
	return m.capacity
}

// span is how far the stored packets reach from the base, in slots.
func (m *rcvModel) span() int {
	for i := m.capacity; i > 0; i-- {
		if m.win[i-1] != nil {
			return i
		}
	}
	return 0
}

func (m *rcvModel) check(t *testing.T, b *RcvBuffer) {
	t.Helper()
	m.res.check(t, &b.slotRing, m.span())
	if b.Cap() != m.capacity || int(b.Free()) != m.capacity-m.nstored {
		t.Fatalf("cap/free = %d/%d, model %d/%d", b.Cap(), b.Free(), m.capacity, m.capacity-m.nstored)
	}
	// Available is a subtraction over the run the buffer maintains; the
	// model walks its window for both, after every operation.
	if b.Available() != m.available() || int(b.runPkts) != m.firstHole() {
		t.Fatalf("Available = %d over a run of %d packets, model %d over %d", b.Available(), b.runPkts, m.available(), m.firstHole())
	}
	if b.DirectBytes != m.direct || b.CopiedBytes != m.copied {
		t.Fatalf("direct/copied = %d/%d, model %d/%d", b.DirectBytes, b.CopiedBytes, m.direct, m.copied)
	}
}

// TestRcvBufferModel runs RcvBuffer against rcvModel: stores in order, out
// of order, duplicated, behind the base and beyond the window, short,
// full-size and over-size; reads that stop inside a head packet; overlapped
// reads (AttachUser/DetachUser) with user buffers smaller than a packet, of
// a few packets and larger than the whole window, including packets left
// stranded in user memory behind a hole — the user buffer is overwritten
// after every detach, so a missing copy-back corrupts a later read. The
// sequence space wraps through seqno.Max early in every run.
func TestRcvBufferModel(t *testing.T) {
	for _, capacity := range modelCaps {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed<<16 + int64(capacity)))
			first := seqno.Add(seqno.Max, -int32(rng.Intn(2*capacity+3)))
			b := NewRcvBuffer(capacity, modelPayload, first)
			m := newRcvModel(capacity, first)
			m.check(t, b) // nothing stored, nothing resident
			var user []byte
			store := func(op int, off int) {
				var n int
				switch rng.Intn(8) {
				case 0, 1:
					n = 1 + rng.Intn(modelPayload-1) // short
				case 2:
					n = modelPayload + 3 // over-size: truncated to a full packet
				default:
					n = modelPayload
				}
				seq, p := seqno.Add(m.base, int32(off)), modelBytes(rng, n)
				if b.Beyond(seq) != (off >= capacity) {
					t.Fatalf("cap %d seed %d op %d: Beyond(base%+d) = %v", capacity, seed, op, off, b.Beyond(seq))
				}
				got := b.Store(seq, p)
				if want := m.store(seq, p); got != want {
					t.Fatalf("cap %d seed %d op %d: Store(base%+d, %d bytes) = %v, model %v", capacity, seed, op, off, n, got, want)
				}
			}
			// pickOff chooses where the next packet lands: mostly the first
			// hole (in-order arrival), otherwise a little ahead of it, or
			// anywhere from behind the base to beyond the window.
			pickOff := func() int {
				hole := m.firstHole()
				switch r := rng.Intn(20); {
				case r < 11:
					return hole
				case r < 17:
					return hole + rng.Intn(min(capacity, 40)+1)
				default:
					return rng.Intn(capacity+10) - 5
				}
			}
			read := func(op, n int) {
				p := make([]byte, n)
				got := b.Read(p)
				want := m.read(n)
				if got != len(want) || !bytes.Equal(p[:got], want) {
					t.Fatalf("cap %d seed %d op %d: Read(%d) = %d bytes %x, model %d bytes %x", capacity, seed, op, n, got, p[:got], len(want), want)
				}
			}
			filling := true
			for op := 0; op < 4000; op++ {
				if op%200 == 0 {
					filling = rng.Intn(2) == 0
				}
				if m.attached {
					if rng.Intn(5) > 0 {
						store(op, pickOff())
					} else {
						got := b.DetachUser()
						want := m.detach()
						if got != len(want) || !bytes.Equal(user[:got], want) {
							t.Fatalf("cap %d seed %d op %d: DetachUser = %d bytes %x, model %d bytes %x", capacity, seed, op, got, user[:got], len(want), want)
						}
						for i := range user {
							user[i] = 0xEE // the reader owns it again
						}
					}
					m.check(t, b)
					continue
				}
				storeBias := 40
				if filling {
					storeBias = 65
				}
				switch r := rng.Intn(100); {
				case r < storeBias:
					store(op, pickOff())
				case r < 88:
					switch rng.Intn(4) {
					case 0:
						read(op, 1+rng.Intn(modelPayload)) // stops inside a head packet
					case 1:
						read(op, (capacity+1)*modelPayload) // everything in order
					default:
						read(op, 1+rng.Intn(30*modelPayload))
					}
				case r < 90:
					if b.DetachUser() != 0 {
						t.Fatalf("cap %d seed %d op %d: DetachUser without AttachUser returned bytes", capacity, seed, op)
					}
				default:
					var n int
					switch rng.Intn(4) {
					case 0:
						n = modelPayload - 1 // too small to hold a packet
					case 1:
						n = 2 * (capacity + 1) * modelPayload // larger than the window
					default:
						n = modelPayload*(1+rng.Intn(6)) + rng.Intn(modelPayload)
					}
					user = make([]byte, n)
					if got, want := b.AttachUser(user), m.attach(user); got != want {
						t.Fatalf("cap %d seed %d op %d: AttachUser(%d bytes) = %v, model %v", capacity, seed, op, n, got, want)
					}
				}
				m.check(t, b)
			}
			// Close every hole and drain: the whole window must read back.
			if m.attached {
				b.DetachUser()
				m.detach()
			}
			for hole := m.firstHole(); hole < capacity; hole = m.firstHole() {
				store(-1, hole)
			}
			read(-1, (capacity+1)*modelPayload)
			m.check(t, b)
			if b.Free() != int32(capacity) {
				t.Fatalf("cap %d seed %d: drained buffer reports %d free", capacity, seed, b.Free())
			}
		}
	}
}

// BenchmarkRcvAvailableBacklog prices what the transport does after every
// fresh arrival — store the packet, ask what the reader can have — with the
// reader a fixed number of packets behind. The cost per arrival must not
// depend on that backlog.
func BenchmarkRcvAvailableBacklog(b *testing.B) {
	for _, backlog := range []int{16, 4096} {
		b.Run(fmt.Sprint(backlog), func(b *testing.B) {
			const payload = 1456
			buf := NewRcvBuffer(8192, payload, 0)
			pkt, out := make([]byte, payload), make([]byte, payload)
			seq := int32(0)
			for ; seq < int32(backlog); seq++ {
				buf.Store(seq, pkt)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Store(seq, pkt)
				seq = seqno.Inc(seq)
				if buf.Available() != (backlog+1)*payload {
					b.Fatalf("Available = %d with %d packets stored", buf.Available(), backlog+1)
				}
				buf.Read(out)
			}
		})
	}
}
