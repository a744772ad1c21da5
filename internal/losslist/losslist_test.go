package losslist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"udt/internal/packet"
	"udt/internal/seqno"
)

// rg builds a Range literal keyed, keeping vet happy and tests terse.
func rg(s, e int32) packet.Range { return packet.Range{Start: s, End: e} }

// model is a trivially-correct loss set used as the oracle in property tests.
type model map[int32]bool

func (m model) insert(s1, s2 int32) {
	for s := s1; ; s = seqno.Inc(s) {
		m[s] = true
		if s == s2 {
			break
		}
	}
}

func (m model) ranges() []packet.Range {
	if len(m) == 0 {
		return nil
	}
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return seqno.Less(keys[i], keys[j]) })
	var out []packet.Range
	for _, k := range keys {
		if n := len(out); n > 0 && seqno.Inc(out[n-1].End) == k {
			out[n-1].End = k
			continue
		}
		out = append(out, packet.Range{Start: k, End: k})
	}
	return out
}

func sameRanges(t *testing.T, got, want []packet.Range) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("range count mismatch: got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("range %d mismatch: got %v want %v", i, got, want)
		}
	}
}

func TestReceiverBasic(t *testing.T) {
	r := NewReceiver(1024)
	if _, ok := r.First(); ok {
		t.Fatal("empty list reported a first loss")
	}
	r.Insert(10, 12)
	r.Insert(20, 20)
	r.Insert(21, 25) // contiguous: merges with tail
	if r.Len() != 9 {
		t.Fatalf("Len = %d, want 9", r.Len())
	}
	if r.Events() != 2 {
		t.Fatalf("Events = %d, want 2", r.Events())
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(10, 12), rg(20, 25)})
	if f, ok := r.First(); !ok || f != 10 {
		t.Fatalf("First = %d,%v", f, ok)
	}
	for _, s := range []int32{10, 11, 12, 20, 25} {
		if !r.Find(s) {
			t.Fatalf("Find(%d) = false", s)
		}
	}
	for _, s := range []int32{9, 13, 19, 26, 1000} {
		if r.Find(s) {
			t.Fatalf("Find(%d) = true", s)
		}
	}
}

func TestReceiverRemoveShapes(t *testing.T) {
	r := NewReceiver(1024)
	r.Insert(10, 20)
	if !r.Remove(15) { // split
		t.Fatal("Remove(15) failed")
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(10, 14), rg(16, 20)})
	if !r.Remove(10) { // shrink left (node changes slot)
		t.Fatal("Remove(10) failed")
	}
	if !r.Remove(20) { // shrink right
		t.Fatal("Remove(20) failed")
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(11, 14), rg(16, 19)})
	if r.Remove(15) {
		t.Fatal("Remove(15) should report absent")
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	// Drain a single-element node.
	r2 := NewReceiver(64)
	r2.Insert(5, 5)
	if !r2.Remove(5) || r2.Len() != 0 || r2.Events() != 0 {
		t.Fatal("single-node removal failed")
	}
	if _, ok := r2.First(); ok {
		t.Fatal("list should be empty")
	}
}

func TestReceiverRemoveHeadMoves(t *testing.T) {
	// Removing the head's start repeatedly exercises moveStart on the head.
	r := NewReceiver(256)
	r.Insert(100, 110)
	r.Insert(200, 205)
	for s := int32(100); s <= 110; s++ {
		if !r.Remove(s) {
			t.Fatalf("Remove(%d) failed", s)
		}
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(200, 205)})
	if f, _ := r.First(); f != 200 {
		t.Fatalf("First = %d, want 200", f)
	}
}

func TestReceiverRemoveUpTo(t *testing.T) {
	r := NewReceiver(1024)
	r.Insert(10, 14)
	r.Insert(20, 24)
	r.Insert(30, 30)
	if n := r.RemoveUpTo(22); n != 7 { // 10-14 (5) + 20,21 (2)
		t.Fatalf("RemoveUpTo removed %d, want 7", n)
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(22, 24), rg(30, 30)})
	if n := r.RemoveUpTo(100); n != 4 {
		t.Fatalf("RemoveUpTo removed %d, want 4", n)
	}
	if r.Len() != 0 || r.Events() != 0 {
		t.Fatal("list should be empty")
	}
}

func TestReceiverDuplicateInsertIgnored(t *testing.T) {
	r := NewReceiver(256)
	r.Insert(10, 20)
	r.Insert(15, 18) // entirely covered
	if r.Len() != 11 || r.Events() != 1 {
		t.Fatalf("duplicate insert changed state: len=%d events=%d", r.Len(), r.Events())
	}
	r.Insert(18, 25) // partial overlap with tail
	if r.Len() != 16 {
		t.Fatalf("partial overlap: len=%d, want 16", r.Len())
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(10, 25)})
}

func TestReceiverWrapAround(t *testing.T) {
	r := NewReceiver(256)
	r.Insert(seqno.Max-2, seqno.Max)
	r.Insert(0, 3) // contiguous across the wrap: should merge
	if r.Events() != 1 || r.Len() != 7 {
		t.Fatalf("wrap merge failed: events=%d len=%d %v", r.Events(), r.Len(), r.Ranges())
	}
	if !r.Find(seqno.Max) || !r.Find(0) {
		t.Fatal("wrap Find failed")
	}
	if !r.Remove(seqno.Max) {
		t.Fatal("wrap Remove failed")
	}
	sameRanges(t, r.Ranges(), []packet.Range{rg(seqno.Max-2, seqno.Max-1), rg(0, 3)})
}

func TestReceiverGrow(t *testing.T) {
	r := NewReceiver(16) // tiny capacity to force growth
	for i := int32(0); i < 40; i++ {
		r.Insert(i*10, i*10+2)
	}
	if r.Events() != 40 || r.Len() != 120 {
		t.Fatalf("after grow: events=%d len=%d", r.Events(), r.Len())
	}
	if r.Find(395) {
		t.Fatal("Find(395) should be false after grow")
	}
	if !r.Find(392) {
		t.Fatal("Find(392) should be true after grow")
	}
	for i := int32(0); i < 40; i++ {
		if !r.Find(i*10 + 1) {
			t.Fatalf("lost range %d after grow", i)
		}
	}
}

func TestReceiverReportIntervals(t *testing.T) {
	r := NewReceiver(256)
	r.Insert(10, 12)
	r.Insert(50, 50)
	const us = int64(1)
	// First call: everything unreported → all due.
	got := r.Report(1000*us, 10000*us, 0)
	if len(got) != 2 {
		t.Fatalf("first report: %v", got)
	}
	// Immediately after: nothing due.
	if got := r.Report(1001*us, 10000*us, 0); len(got) != 0 {
		t.Fatalf("premature re-report: %v", got)
	}
	// After 1×interval: due again (reports=1 → wait 2×interval next time).
	if got := r.Report(11001*us, 10000*us, 0); len(got) != 2 {
		t.Fatalf("second report: %v", got)
	}
	// 1×interval later: NOT due (needs 2× now).
	if got := r.Report(21002*us, 10000*us, 0); len(got) != 0 {
		t.Fatalf("increasing interval violated: %v", got)
	}
	// 2×interval after the second report: due.
	if got := r.Report(31002*us, 10000*us, 0); len(got) != 2 {
		t.Fatalf("third report: %v", got)
	}
	// max limits the batch.
	r.Insert(100, 100)
	if got := r.Report(1e9, 10000*us, 1); len(got) != 1 {
		t.Fatalf("max ignored: %v", got)
	}
}

func TestSenderBasic(t *testing.T) {
	s := NewSender()
	if added := s.Insert(10, 14); added != 5 {
		t.Fatalf("Insert added %d, want 5", added)
	}
	if added := s.Insert(12, 20); added != 6 { // overlap
		t.Fatalf("overlap Insert added %d, want 6", added)
	}
	if added := s.Insert(10, 20); added != 0 { // duplicate
		t.Fatalf("duplicate Insert added %d, want 0", added)
	}
	sameRanges(t, s.Ranges(), []packet.Range{rg(10, 20)})
	s.Insert(30, 31)
	s.Insert(22, 28)
	sameRanges(t, s.Ranges(), []packet.Range{rg(10, 20), rg(22, 28), rg(30, 31)})
	s.Insert(21, 21) // bridges 10-20 and 22-28
	sameRanges(t, s.Ranges(), []packet.Range{rg(10, 28), rg(30, 31)})
	if s.Len() != 21 {
		t.Fatalf("Len = %d, want 21", s.Len())
	}
}

func TestSenderPopOrder(t *testing.T) {
	s := NewSender()
	s.Insert(20, 21)
	s.Insert(5, 6)
	var got []int32
	for {
		v, ok := s.PopFirst()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int32{5, 6, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if _, ok := s.PopFirst(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestSenderRemoveUpTo(t *testing.T) {
	s := NewSender()
	s.Insert(10, 14)
	s.Insert(20, 24)
	if n := s.RemoveUpTo(12); n != 2 {
		t.Fatalf("RemoveUpTo = %d, want 2", n)
	}
	sameRanges(t, s.Ranges(), []packet.Range{rg(12, 14), rg(20, 24)})
	if n := s.RemoveUpTo(30); n != 8 {
		t.Fatalf("RemoveUpTo = %d, want 8", n)
	}
	if s.Len() != 0 {
		t.Fatal("list should be empty")
	}
}

func TestSenderRemoveSplit(t *testing.T) {
	s := NewSender()
	s.Insert(10, 20)
	if !s.Remove(15) {
		t.Fatal("Remove failed")
	}
	sameRanges(t, s.Ranges(), []packet.Range{rg(10, 14), rg(16, 20)})
	if s.Remove(15) {
		t.Fatal("double Remove succeeded")
	}
	if !s.Find(14) || s.Find(15) || !s.Find(16) {
		t.Fatal("Find inconsistent after split")
	}
}

func TestSenderWrap(t *testing.T) {
	s := NewSender()
	s.Insert(seqno.Max-1, 2) // wraps: Max-1, Max, 0, 1, 2
	if s.Len() != 5 {
		t.Fatalf("wrap Len = %d, want 5", s.Len())
	}
	v, _ := s.PopFirst()
	if v != seqno.Max-1 {
		t.Fatalf("wrap pop = %d", v)
	}
	if n := s.RemoveUpTo(2); n != 3 {
		t.Fatalf("wrap RemoveUpTo = %d, want 3", n)
	}
}

// opStream drives a loss list and the oracle with the same random receiver-
// style operations (ordered inserts, random removals).
func TestPropReceiverMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewReceiver(4096)
		m := model{}
		next := int32(rng.Intn(1000))
		var inserted []int32
		for op := 0; op < 200; op++ {
			switch {
			case rng.Intn(3) != 0 || len(inserted) == 0: // insert
				gap := int32(rng.Intn(20) + 1)
				width := int32(rng.Intn(8))
				s1 := seqno.Add(next, gap)
				s2 := seqno.Add(s1, width)
				r.Insert(s1, s2)
				m.insert(s1, s2)
				for s := s1; ; s = seqno.Inc(s) {
					inserted = append(inserted, s)
					if s == s2 {
						break
					}
				}
				next = s2
			default: // remove a random previously inserted seq
				i := rng.Intn(len(inserted))
				s := inserted[i]
				got := r.Remove(s)
				want := m[s]
				if got != want {
					return false
				}
				delete(m, s)
			}
			if r.Len() != len(m) {
				return false
			}
		}
		want := m.ranges()
		got := r.Ranges()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropSenderMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSender()
		m := model{}
		base := int32(rng.Intn(100000))
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert random (possibly overlapping) range
				s1 := seqno.Add(base, int32(rng.Intn(500)))
				s2 := seqno.Add(s1, int32(rng.Intn(10)))
				before := len(m)
				m.insert(s1, s2)
				added := s.Insert(s1, s2)
				if added != len(m)-before {
					return false
				}
			case 2: // pop first
				got, ok := s.PopFirst()
				want := m.ranges()
				if !ok {
					if len(want) != 0 {
						return false
					}
					continue
				}
				if len(want) == 0 || want[0].Start != got {
					return false
				}
				delete(m, got)
			case 3: // remove-up-to a random point
				cut := seqno.Add(base, int32(rng.Intn(500)))
				want := 0
				for k := range m {
					if seqno.Cmp(k, cut) < 0 {
						want++
						delete(m, k)
					}
				}
				if got := s.RemoveUpTo(cut); got != want {
					return false
				}
			}
			if s.Len() != len(m) {
				return false
			}
		}
		want := m.ranges()
		got := s.Ranges()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNaiveMatchesReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := NewNaive(0, 8192)
	r := NewReceiver(8192)
	next := int32(0)
	for i := 0; i < 100; i++ {
		s1 := seqno.Add(next, int32(rng.Intn(20)+1))
		s2 := seqno.Add(s1, int32(rng.Intn(5)))
		n.Insert(s1, s2)
		r.Insert(s1, s2)
		next = s2
	}
	if n.Len() != r.Len() {
		t.Fatalf("Len mismatch: naive=%d receiver=%d", n.Len(), r.Len())
	}
	nf, _ := n.First()
	rf, _ := r.First()
	if nf != rf {
		t.Fatalf("First mismatch: %d vs %d", nf, rf)
	}
	sameRanges(t, n.Ranges(), r.Ranges())
	// Random removals stay in sync.
	for i := 0; i < 500; i++ {
		s := int32(rng.Intn(int(next)))
		if n.Remove(s) != r.Remove(s) {
			t.Fatalf("Remove(%d) diverged", s)
		}
	}
	sameRanges(t, n.Ranges(), r.Ranges())
}

func TestNaiveWindowBounds(t *testing.T) {
	n := NewNaive(100, 64)
	n.Insert(100, 101)
	if n.Find(99) || n.Remove(99) {
		t.Fatal("out-of-window seq must be invisible")
	}
	n.Insert(200, 300) // entirely out of window: ignored
	if n.Len() != 2 {
		t.Fatalf("Len = %d, want 2", n.Len())
	}
}

// walkBounded traverses the receiver list asserting it terminates within the
// node count — a link cycle (the corruption mode of a wrapped slot collision)
// would otherwise loop forever in Ranges/Report/First.
func walkBounded(t *testing.T, r *Receiver) []packet.Range {
	t.Helper()
	var out []packet.Range
	steps := 0
	for i := r.head; i != -1; i = r.next[i] {
		if steps++; steps > r.nodes {
			t.Fatalf("list cycle: %d steps for %d nodes", steps, r.nodes)
		}
		out = append(out, packet.Range{Start: r.start[i], End: r.end[i]})
	}
	return out
}

func TestReceiverWideRangeSplitNoCycle(t *testing.T) {
	// A single loss range wider than the slot capacity, split by a
	// retransmission near its far edge. Before the span-aware grow in
	// Insert, the split node's slot wrapped onto the head's slot and
	// produced next[slot] == slot — an infinite loop in every list walk
	// (observed as a NAK-path hang under a retransmission storm).
	r := NewReceiver(16) // capacity 16: [0,20] spans 21 > 16
	r.Insert(0, 20)
	if !r.Remove(15) {
		t.Fatal("Remove(15) failed")
	}
	sameRanges(t, walkBounded(t, r), []packet.Range{rg(0, 14), rg(16, 20)})
	if got := r.Report(1000, 10000, 128); len(got) != 2 {
		t.Fatalf("Report after wide split: %v", got)
	}
	if r.Len() != 20 || r.Events() != 2 {
		t.Fatalf("Len=%d Events=%d, want 20/2", r.Len(), r.Events())
	}
}

func TestReceiverMergedTailBeyondCapacity(t *testing.T) {
	// The tail-merge path must also respect the capacity invariant: a
	// contiguous Insert used to extend the tail end past capacity without
	// growing, and removals inside the overhang either failed (locate's
	// bounds check) or corrupted the links (wrapped split slot).
	r := NewReceiver(16)
	r.Insert(0, 5)
	r.Insert(6, 30) // merges with tail → [0,30], spans 31 > 16
	sameRanges(t, walkBounded(t, r), []packet.Range{rg(0, 30)})
	for _, s := range []int32{15, 17, 29} { // all inside the former overhang
		if !r.Remove(s) {
			t.Fatalf("Remove(%d) failed", s)
		}
	}
	sameRanges(t, walkBounded(t, r),
		[]packet.Range{rg(0, 14), rg(16, 16), rg(18, 28), rg(30, 30)})
	if got := r.Report(1000, 10000, 128); len(got) != 4 {
		t.Fatalf("Report: %v", got)
	}
}

func TestReceiverStormNoCycle(t *testing.T) {
	// Randomized retransmission storm: bursty inserts whose gaps and spans
	// routinely exceed the initial capacity, interleaved with removals of
	// random tracked packets. After every operation the list must stay
	// cycle-free, ordered, and disjoint.
	rng := rand.New(rand.NewSource(7))
	r := NewReceiver(16)
	next := int32(0)
	var tracked []int32
	check := func() {
		rs := walkBounded(t, r)
		for i := 1; i < len(rs); i++ {
			if seqno.Cmp(rs[i-1].End, rs[i].Start) >= 0 {
				t.Fatalf("ranges out of order/overlapping: %v", rs)
			}
		}
	}
	for op := 0; op < 2000; op++ {
		if len(tracked) == 0 || rng.Intn(3) == 0 {
			gap := int32(rng.Intn(100) + 1)
			span := int32(rng.Intn(60))
			s := next + gap
			e := s + span
			next = e + 1
			r.Insert(s, e)
			for q := s; q <= e; q++ {
				tracked = append(tracked, q)
			}
		} else {
			i := rng.Intn(len(tracked))
			seq := tracked[i]
			tracked[i] = tracked[len(tracked)-1]
			tracked = tracked[:len(tracked)-1]
			if !r.Remove(seq) {
				t.Fatalf("op %d: Remove(%d) failed", op, seq)
			}
		}
		check()
	}
	if r.Len() != len(tracked) {
		t.Fatalf("Len=%d, tracked=%d", r.Len(), len(tracked))
	}
}

// TestReceiverGrownMatchesPresized pins what lets core.NewConn start every
// receiver loss list small: a list started at 64 slots and grown on demand
// through 4096 is indistinguishable, by anything it reports, from one sized
// 4096 up front. Both see one seeded sequence of loss detections,
// retransmission arrivals, ACK-position sweeps and NAK reports, with the
// tracked span held just under 4096 so only the small list ever grows.
func TestReceiverGrownMatchesPresized(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	small, big := NewReceiver(64), NewReceiver(4096)
	next := seqno.Max - 5000 // wraps mid-run
	var tracked []int32
	now := int64(0)
	same := func(op int, what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d: %s differs: grown %v, presized %v", op, what, a, b)
		}
	}
	for op := 0; op < 20000; op++ {
		now += int64(rng.Intn(3000))
		switch r := rng.Intn(10); {
		case r < 4 || len(tracked) == 0:
			s := seqno.Add(next, int32(rng.Intn(80)+1))
			e := seqno.Add(s, int32(rng.Intn(40)))
			next = seqno.Inc(e)
			// Hold the tracked span under the presized capacity, the way the
			// ACK position overtakes stale losses in the engine.
			floor := seqno.Add(next, -4000)
			same(op, "RemoveUpTo", small.RemoveUpTo(floor), big.RemoveUpTo(floor))
			small.Insert(s, e)
			big.Insert(s, e)
			for q := s; ; q = seqno.Inc(q) {
				tracked = append(tracked, q)
				if q == e {
					break
				}
			}
		case r < 8:
			i := rng.Intn(len(tracked))
			seq := tracked[i]
			tracked[i] = tracked[len(tracked)-1]
			tracked = tracked[:len(tracked)-1]
			same(op, "Remove", small.Remove(seq), big.Remove(seq))
		default:
			limit := rng.Intn(3) * 16 // 0 is no limit
			same(op, "Report", small.Report(now, 20_000, limit), big.Report(now, 20_000, limit))
		}
		sf, sok := small.First()
		bf, bok := big.First()
		same(op, "First", []any{sf, sok}, []any{bf, bok})
		same(op, "Len", small.Len(), big.Len())
		same(op, "Events", small.Events(), big.Events())
		if op%64 == 0 {
			same(op, "Ranges", small.Ranges(), big.Ranges())
		}
	}
	same(-1, "Ranges", small.Ranges(), big.Ranges())
	if len(small.start) != 4096 || len(big.start) != 4096 {
		t.Fatalf("slot counts %d and %d: the small list was meant to grow through 4096 and the presized one to stay there",
			len(small.start), len(big.start))
	}
}
