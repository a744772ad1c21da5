package trace

// Ring is a bounded circular buffer of PerfRecords. Storage follows use: an
// empty ring holds none, Record extends it (doubling from ringFirst records)
// until it reaches the capacity given to NewRing, and from then on overwrites
// the oldest — so a connection that never samples pays nothing, steady-state
// recording performs zero heap allocations, and a long-running connection
// keeps a bounded, most-recent window of its history.
//
// Ring is not safe for concurrent use; the owning connection serializes
// Record and snapshot calls under its own lock.
type Ring struct {
	buf   []PerfRecord // len(buf) ≤ limit; full-length records only
	limit int          // configured capacity
	next  int          // index of the slot the next Record will fill; len(buf) means grow or wrap
	count int          // number of valid records, ≤ len(buf)
	total int64        // lifetime number of Record calls (≥ count once wrapped)
}

// ringFirst is the ring's first allocation, in records.
const ringFirst = 8

// NewRing returns a ring holding at most the n most recent records; their
// storage is allocated as records arrive. n ≤ 0 is clamped to 1.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1
	}
	return &Ring{limit: n}
}

// Record copies r into the ring, overwriting the oldest record when full.
func (g *Ring) Record(r *PerfRecord) {
	if g.next == len(g.buf) {
		if len(g.buf) < g.limit {
			// Not wrapped yet, so the records sit in order: extend in place.
			grown := make([]PerfRecord, min(g.limit, max(ringFirst, 2*len(g.buf))))
			copy(grown, g.buf)
			g.buf = grown
		} else {
			g.next = 0
		}
	}
	g.buf[g.next] = *r
	g.next++
	if g.count < len(g.buf) {
		g.count++
	}
	g.total++
}

// Len reports the number of records currently held.
func (g *Ring) Len() int { return g.count }

// Cap reports the ring's configured capacity, not what is resident.
func (g *Ring) Cap() int { return g.limit }

// Total reports the lifetime number of records written, including any that
// have since been overwritten.
func (g *Ring) Total() int64 { return g.total }

// Snapshot returns the held records ordered oldest to newest. It allocates
// a fresh slice; the ring is unchanged.
func (g *Ring) Snapshot() []PerfRecord {
	out := make([]PerfRecord, g.count)
	g.copyTo(out)
	return out
}

// AppendTo appends the held records, oldest to newest, to dst and returns
// the extended slice. With pre-grown dst capacity it does not allocate.
func (g *Ring) AppendTo(dst []PerfRecord) []PerfRecord {
	n := len(dst)
	dst = append(dst, make([]PerfRecord, g.count)...)
	g.copyTo(dst[n:])
	return dst
}

func (g *Ring) copyTo(out []PerfRecord) {
	// Before the first wrap next == count: the first copy is empty and the
	// second is everything.
	n := copy(out, g.buf[g.next:g.count])
	copy(out[n:], g.buf[:g.next])
}

// Do calls fn on each held record, oldest to newest, without copying. The
// pointer is only valid during the call.
func (g *Ring) Do(fn func(*PerfRecord)) {
	start := 0
	if g.count == len(g.buf) {
		start = g.next
	}
	for i := 0; i < g.count; i++ {
		fn(&g.buf[(start+i)%len(g.buf)])
	}
}

// Last returns a copy of the most recent record and whether one exists.
func (g *Ring) Last() (PerfRecord, bool) {
	if g.count == 0 {
		return PerfRecord{}, false
	}
	return g.buf[g.next-1], true // next wraps lazily, so it is ≥ 1 here
}

// Reset empties the ring without releasing its storage.
func (g *Ring) Reset() {
	g.next, g.count, g.total = 0, 0, 0
}
