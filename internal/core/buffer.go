package core

import (
	"udt/internal/seqno"
)

// Capacity is not residency. A buffer's capacity — SndBuf/RcvBuf packets,
// the paper's BDP-sized protocol buffer (§3.2) and the window the receiver
// advertises — is a number; the memory behind it is allocated in chunks of
// chunkSlots consecutive ring slots, the first time a slot in the chunk is
// occupied, and handed on when its last occupied slot is freed. A slot is
// still addressed by pure arithmetic on its sequence number (§4.6), one
// shift and one table index more than a flat array.
const (
	chunkShift = 4
	chunkSlots = 1 << chunkShift
	chunkMask  = chunkSlots - 1
)

// chunk backs up to chunkSlots consecutive ring slots: their payload bytes
// and the per-slot state either buffer keeps.
type chunk struct {
	// data holds the copied payloads, slot i at [i*payload, (i+1)*payload).
	// It is allocated by the first copy into the chunk: packets placed in an
	// attached user buffer and zero-copy writes never need it.
	data []byte
	// ext holds a SndBuffer's per-slot external payloads from zero-copy
	// writes (WriteZC): a non-nil entry overrides the slot's copied data.
	// The caller owns the backing memory (typically a file mapping) and must
	// keep it valid until the slot is released; Release nils entries as
	// acknowledgements free them. Allocated by the first WriteZC to reach
	// the chunk — ordinary streams never pay for it.
	ext     [][]byte
	lens    [chunkSlots]int32
	present [chunkSlots]bool // RcvBuffer: the slot's packet has arrived
	inUser  [chunkSlots]bool // RcvBuffer: its payload sits in the attached user buffer
	used    int              // occupied slots; the chunk is recycled when this returns to 0
	next    *chunk           // spare-list link
}

// slotRing is the storage under both buffers: a logical ring of slots whose
// chunks exist only while a slot in them is occupied. A chunk whose last
// slot is freed goes on the spare list and backs the next chunk the ring
// enters, so a steady flow — whatever its window — recycles the chunks it
// has and allocates nothing. What is resident therefore follows what is in
// flight, not how far the ring has walked. When the buffer runs empty the
// spare list is cut to what the busy period just ended had live at once
// (see drained): a flow that moves one packet at a time holds one chunk,
// and an idle flow that has never carried data holds only the table.
type slotRing struct {
	payload int
	slots   int      // ring size: the buffer's capacity in packets
	tab     []*chunk // tab[i] backs ring slots [i<<chunkShift, (i+1)<<chunkShift), nil while all are free
	spare   *chunk   // recycled chunks, linked through next
	nspare  int32
	live    int32 // chunks installed in tab
	peak    int32 // most chunks live at once since the buffer was last empty
	keep    int32 // spares kept when it last ran empty
}

func newSlotRing(capacity, payload int) slotRing {
	if capacity < 1 {
		capacity = 1
	}
	return slotRing{
		payload: payload,
		slots:   capacity,
		tab:     make([]*chunk, (capacity+chunkMask)>>chunkShift),
	}
}

// occupy returns the chunk behind ring slot idx, installing a spare or new
// one if the ring has not been here since the chunk was last recycled, and
// counts one more occupied slot in it.
func (r *slotRing) occupy(idx int) *chunk {
	c := r.tab[idx>>chunkShift]
	if c == nil {
		if c = r.spare; c != nil {
			r.spare, c.next = c.next, nil
			r.nspare--
		} else {
			c = new(chunk)
		}
		r.tab[idx>>chunkShift] = c
		if r.live++; r.live > r.peak {
			r.peak = r.live
		}
	}
	c.used++
	return c
}

// vacate counts n slots of the chunk behind ring slot idx as freed and
// recycles the chunk with its last one.
func (r *slotRing) vacate(idx int, c *chunk, n int) {
	if c.used -= n; c.used == 0 {
		r.tab[idx>>chunkShift] = nil
		c.next, r.spare = r.spare, c
		r.nspare++
		r.live--
	}
}

// drained is called when the last occupied slot of the whole buffer has been
// freed, which a receive buffer with a prompt reader does after every read
// batch: it keeps as many spares as the busy period just ended had chunks
// live at once, so the next burst of that size allocates nothing, and lets
// the allowance fall by one chunk per busy period rather than at once, so
// bursts of varying size do not allocate on every upswing. The rest go to
// the collector.
func (r *slotRing) drained() {
	r.keep = max(r.peak, r.keep-1)
	r.peak = 0
	for r.nspare > r.keep {
		r.spare = r.spare.next
		r.nspare--
	}
}

// run is how many of the next left ring slots from idx lie in idx's chunk,
// short of the ring's end: the stretch a walk can cover with one table load.
func (r *slotRing) run(idx, left int) int {
	return min(left, chunkSlots-idx&chunkMask, r.slots-idx)
}

// room returns the payload bytes of ring slot idx within its chunk c.
func (r *slotRing) room(c *chunk, idx int) []byte {
	if c.data == nil {
		c.data = make([]byte, min(chunkSlots, r.slots)*r.payload)
	}
	off := (idx & chunkMask) * r.payload
	return c.data[off : off+r.payload]
}

// SndBuffer holds written-but-unacknowledged payload, one fixed-size slot
// per packet sequence number. The transport writes application data in,
// reads packets out for (re)transmission by sequence number, and releases
// slots as cumulative acknowledgements arrive.
//
// SndBuffer is not safe for concurrent use.
type SndBuffer struct {
	slotRing
	headSeq int32 // sequence number of the oldest occupied slot
	headIdx int   // its slot index
	n       int   // occupied slots
}

// NewSndBuffer returns a send buffer of capacity packets whose payloads hold
// up to payload bytes each. firstSeq is the sequence number the first
// written packet will carry. Payload memory is allocated as packets are
// written, not here.
func NewSndBuffer(capacity, payload int, firstSeq int32) *SndBuffer {
	return &SndBuffer{slotRing: newSlotRing(capacity, payload), headSeq: firstSeq}
}

// Cap returns the buffer capacity in packets.
func (b *SndBuffer) Cap() int { return b.slots }

// Pending returns the number of occupied slots (unacknowledged packets).
func (b *SndBuffer) Pending() int { return b.n }

// Free returns the number of free slots.
func (b *SndBuffer) Free() int { return b.slots - b.n }

// NextWriteSeq returns the sequence number the next written packet will get.
func (b *SndBuffer) NextWriteSeq() int32 { return seqno.Add(b.headSeq, int32(b.n)) }

// Write packs p into as many packets as fit, returning the number of bytes
// consumed (possibly 0 when full). Each Write chunk ends its final packet
// early rather than spanning chunks, so message boundaries within a write
// never straddle a short tail packet — matching UDT's fixed-size packing
// with a short last packet (§6).
func (b *SndBuffer) Write(p []byte) int {
	written := 0
	for len(p) > 0 && b.n < b.slots {
		idx := (b.headIdx + b.n) % b.slots
		c, si := b.occupy(idx), idx&chunkMask
		n := min(b.payload, len(p))
		copy(b.room(c, idx), p[:n])
		if c.ext != nil {
			c.ext[si] = nil
		}
		c.lens[si] = int32(n)
		b.n++
		p = p[n:]
		written += n
	}
	return written
}

// WriteZC packs p into packets without copying: each slot records a
// sub-slice of p, and Packet serves those bytes straight from the
// caller's memory — the zero-copy half of the paper's copy-avoidance
// story (§4.3), applied to the send side for file transfer. The chunking
// matches Write exactly (full payload-size packets, short final packet),
// so the wire stream is indistinguishable from a copied send. p must
// stay valid and unmodified until every packet it backs is released.
func (b *SndBuffer) WriteZC(p []byte) int {
	written := 0
	for len(p) > 0 && b.n < b.slots {
		idx := (b.headIdx + b.n) % b.slots
		c, si := b.occupy(idx), idx&chunkMask
		if c.ext == nil {
			c.ext = make([][]byte, chunkSlots)
		}
		n := min(b.payload, len(p))
		c.ext[si] = p[:n:n]
		c.lens[si] = int32(n)
		b.n++
		p = p[n:]
		written += n
	}
	return written
}

// Packet returns the payload for seq, or ok=false when seq is not buffered
// (already acknowledged or never written). The slice aliases the buffer and
// is valid until the slot is released.
func (b *SndBuffer) Packet(seq int32) ([]byte, bool) {
	off := seqno.Off(b.headSeq, seq)
	if off < 0 || int(off) >= b.n {
		return nil, false
	}
	idx := (b.headIdx + int(off)) % b.slots
	c, si := b.tab[idx>>chunkShift], idx&chunkMask
	if c.ext != nil {
		if e := c.ext[si]; e != nil {
			return e, true
		}
	}
	return b.room(c, idx)[:c.lens[si]], true
}

// Release frees every slot before seq (exclusive), returning the count.
func (b *SndBuffer) Release(seq int32) int {
	off := seqno.Off(b.headSeq, seq)
	if off <= 0 {
		return 0
	}
	k := min(int(off), b.n)
	for left := k; left > 0; {
		idx, si := b.headIdx, b.headIdx&chunkMask
		c, run := b.tab[idx>>chunkShift], b.run(idx, left)
		if c.ext != nil {
			clear(c.ext[si : si+run])
		}
		b.vacate(idx, c, run)
		b.headIdx = (idx + run) % b.slots
		left -= run
	}
	b.headSeq = seqno.Add(b.headSeq, int32(k))
	if b.n -= k; b.n == 0 {
		b.drained()
	}
	return k
}

// RcvBuffer reassembles the incoming packet stream, one fixed-size slot per
// sequence number, delivering bytes in order.
//
// It implements the paper's two receive-path optimizations:
//
//   - Speculation of the next packet (§4.6): a packet is placed directly at
//     the slot derived from its sequence number, so in-order and out-of-order
//     arrivals alike need no search and no shuffling.
//   - Overlapped IO (§4.3, Fig. 10): when a reader is waiting with an empty
//     buffer, its buffer can be attached as a logical extension of the
//     protocol buffer; arriving full-size packets are then copied straight
//     into user memory, eliminating the protocol-buffer-to-application copy.
//
// RcvBuffer is not safe for concurrent use; the transport serializes access.
type RcvBuffer struct {
	slotRing
	baseSeq int32 // sequence number of the first undelivered packet
	headOff int32 // bytes of the head packet already consumed by the reader
	baseIdx int
	nstored int // present slots

	// The in-order run: the packets present without a gap from baseSeq on,
	// which is what the reader can have. Store extends it (absorbing any
	// island the arrival joins it to, each slot once), consume shortens it
	// from the front; Available is then a subtraction, whatever the backlog.
	runPkts  int32
	userPkts int32 // how many packet slots fit in user
	runBytes int   // payload bytes in the run, the head packet counted whole

	user []byte // attached reader buffer, nil when detached

	// DirectBytes counts bytes placed straight into attached user buffers
	// (the copies avoided by overlapped IO); CopiedBytes counts bytes that
	// took the ordinary protocol-buffer path.
	DirectBytes int64
	CopiedBytes int64
}

// NewRcvBuffer returns a receive buffer of capacity packet slots, each up to
// payload bytes, expecting the first packet to carry sequence firstSeq.
// Payload memory is allocated as packets arrive, not here; Free — the
// advertised window — counts slots, so it starts at capacity regardless.
func NewRcvBuffer(capacity, payload int, firstSeq int32) *RcvBuffer {
	return &RcvBuffer{slotRing: newSlotRing(capacity, payload), baseSeq: firstSeq}
}

// Cap returns the buffer capacity in packets.
func (b *RcvBuffer) Cap() int { return b.slots }

// Free returns the free slot count — the flow-control advertisement (§3.2).
func (b *RcvBuffer) Free() int32 { return int32(b.slots - b.nstored) }

// Beyond reports whether packet seq lies past the end of the buffer's
// window, the Cap packets starting at the first undelivered one: Store would
// refuse it.
func (b *RcvBuffer) Beyond(seq int32) bool { return int(seqno.Off(b.baseSeq, seq)) >= b.slots }

func (b *RcvBuffer) slot(off int32) int { return (b.baseIdx + int(off)) % b.slots }

// stored returns the chunk and in-chunk index of ring slot idx if a packet
// is present there, else a nil chunk.
func (b *RcvBuffer) stored(idx int) (*chunk, int) {
	c, si := b.tab[idx>>chunkShift], idx&chunkMask
	if c == nil || !c.present[si] {
		return nil, si
	}
	return c, si
}

// consume frees the present slot si of chunk c at ring slot idx, the first
// of the in-order run.
func (b *RcvBuffer) consume(idx int, c *chunk, si int) {
	b.runPkts--
	b.runBytes -= int(c.lens[si])
	c.present[si], c.inUser[si] = false, false
	b.vacate(idx, c, 1)
	if b.nstored--; b.nstored == 0 {
		b.drained()
	}
}

// Store places the payload of packet seq, reporting false when the packet
// is a duplicate or out of the buffer's window. The payload is copied.
func (b *RcvBuffer) Store(seq int32, payload []byte) bool {
	off := seqno.Off(b.baseSeq, seq)
	if off < 0 || int(off) >= b.slots {
		return false // already delivered, or beyond the window
	}
	idx := b.slot(off)
	if c, _ := b.stored(idx); c != nil {
		return false // duplicate
	}
	c, si := b.occupy(idx), idx&chunkMask
	n := int32(len(payload))
	if int(n) > b.payload {
		n = int32(b.payload)
	}
	// Overlapped path: full-size packets mapping inside the attached user
	// buffer land there directly.
	if b.user != nil && off < b.userPkts && int(n) == b.payload {
		copy(b.user[int(off)*b.payload:], payload[:n])
		c.inUser[si] = true
		b.DirectBytes += int64(n)
	} else {
		copy(b.room(c, idx), payload[:n])
		b.CopiedBytes += int64(n)
	}
	c.lens[si] = n
	c.present[si] = true
	b.nstored++
	if off == b.runPkts {
		// The arrival continues the run, and joins to it whatever was
		// already waiting behind it.
		for c != nil {
			b.runPkts++
			b.runBytes += int(c.lens[si])
			if int(b.runPkts) == b.slots {
				break
			}
			if idx++; idx == b.slots {
				idx = 0
			}
			c, si = b.stored(idx)
		}
	}
	return true
}

// Available returns the number of in-order bytes ready for the reader, in
// constant time: the transport asks after every arrival, so its cost must
// not grow with how far the reader has fallen behind.
func (b *RcvBuffer) Available() int { return b.runBytes - int(b.headOff) }

// AttachUser registers p as a logical extension of the protocol buffer
// (Fig. 10). It succeeds only when the reader is fully caught up (no stored
// data), which is exactly the state of a blocked reader. While attached,
// Store copies eligible packets straight into p.
func (b *RcvBuffer) AttachUser(p []byte) bool {
	if b.user != nil || b.nstored != 0 || b.headOff != 0 || len(p) < b.payload {
		return false
	}
	b.user = p
	b.userPkts = int32(min(len(p)/b.payload, b.slots))
	return true
}

// DetachUser ends an overlapped read: it consumes the contiguous run of
// user-placed packets from the front (those bytes are already in the user
// buffer, so the reader gets them copy-free) and copies any remaining
// user-placed islands back into protocol slots — the user buffer must not
// be referenced after the read returns. It returns the number of bytes the
// reader received directly.
func (b *RcvBuffer) DetachUser() int {
	if b.user == nil {
		return 0
	}
	direct := 0
	consumed := int32(0)
	for consumed < b.userPkts {
		idx := b.slot(consumed)
		c, si := b.stored(idx)
		if c == nil || !c.inUser[si] {
			break
		}
		direct += int(c.lens[si])
		b.consume(idx, c, si)
		consumed++
	}
	// Copy back any stranded user-placed packets beyond the hole.
	for off := consumed; off < b.userPkts; off++ {
		idx := b.slot(off)
		if c, si := b.stored(idx); c != nil && c.inUser[si] {
			copy(b.room(c, idx), b.user[int(off)*b.payload:int(off)*b.payload+int(c.lens[si])])
			c.inUser[si] = false
		}
	}
	b.baseIdx = b.slot(consumed)
	b.baseSeq = seqno.Add(b.baseSeq, consumed)
	b.user = nil
	b.userPkts = 0
	return direct
}

// Read copies up to len(p) in-order bytes into p, consuming them. It must
// not be called while a user buffer is attached.
func (b *RcvBuffer) Read(p []byte) int {
	read := 0
	for read < len(p) {
		idx := b.baseIdx
		c, si := b.stored(idx)
		if c == nil {
			break
		}
		n := copy(p[read:], b.room(c, idx)[b.headOff:c.lens[si]])
		read += n
		b.headOff += int32(n)
		if b.headOff == c.lens[si] {
			b.consume(idx, c, si)
			b.headOff = 0
			b.baseIdx = b.slot(1)
			b.baseSeq = seqno.Inc(b.baseSeq)
		}
	}
	return read
}
