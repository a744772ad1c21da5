package flow

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestArrivalRateSteady(t *testing.T) {
	w := NewArrivalWindow(DefaultArrivalWindow)
	// 100 µs spacing → 10,000 packets/s.
	now := int64(0)
	for i := 0; i < 32; i++ {
		w.OnArrival(now)
		now += 100
	}
	r := w.Rate()
	if r < 9000 || r > 11000 {
		t.Fatalf("Rate = %d, want ≈10000", r)
	}
}

func TestArrivalRateInsufficientHistory(t *testing.T) {
	w := NewArrivalWindow(16)
	w.OnArrival(0)
	w.OnArrival(100)
	if r := w.Rate(); r != 0 {
		t.Fatalf("Rate with 1 interval = %d, want 0", r)
	}
}

func TestArrivalRateIgnoresIdleGaps(t *testing.T) {
	w := NewArrivalWindow(16)
	now := int64(0)
	for i := 0; i < 40; i++ {
		w.OnArrival(now)
		if i%10 == 9 {
			now += 1_000_000 // 1 s application pause
		} else {
			now += 100
		}
	}
	r := w.Rate()
	// The median filter must discard the 1 s outliers: estimate stays near
	// the true inter-packet spacing, not the mean (~10x slower).
	if r < 8000 || r > 12000 {
		t.Fatalf("Rate = %d, want ≈10000 despite idle gaps", r)
	}
}

func TestArrivalRateZeroGap(t *testing.T) {
	w := NewArrivalWindow(4)
	for i := 0; i < 10; i++ {
		w.OnArrival(5) // identical timestamps must not divide by zero
	}
	_ = w.Rate()
}

func TestArrivalRateCoalescedBursts(t *testing.T) {
	// GRO/recvmmsg delivery: 16-packet trains whose members share one
	// timestamp, trains 200 µs apart. True rate is 16 pkts / 200 µs =
	// 80,000 pkts/s; naive 1 µs clamping of the zero gaps would claim
	// ~1,000,000 pkts/s.
	w := NewArrivalWindow(DefaultArrivalWindow)
	now := int64(0)
	for train := 0; train < 8; train++ {
		for i := 0; i < 16; i++ {
			w.OnArrival(now)
		}
		now += 200
	}
	r := w.Rate()
	if r < 70000 || r > 90000 {
		t.Fatalf("Rate = %d, want ≈80000 (burst gap amortized over the train)", r)
	}
}

func TestProbeCapacityZeroGapClamped(t *testing.T) {
	// A zero gap is "faster than the clock resolves": it clamps to 1 µs
	// rather than being dropped, so infinitely fast virtual links (and
	// batched reads delivering both pair halves at once) keep a capacity
	// estimate — an upper bound, bounded in turn by the honest
	// arrival-speed window.
	w := NewProbeWindow(8)
	for i := 0; i < 8; i++ {
		w.OnPair(0)
	}
	if c := w.Capacity(); c != 1e6 {
		t.Fatalf("Capacity from clamped zero-gap pairs = %d, want 1000000", c)
	}
}

func TestProbeCapacity(t *testing.T) {
	w := NewProbeWindow(DefaultProbeWindow)
	// 12 µs pair spacing → ~83,333 packets/s ≈ 1 Gb/s at 1500 B.
	for i := 0; i < 64; i++ {
		w.OnPair(12)
	}
	c := w.Capacity()
	if c < 80000 || c > 90000 {
		t.Fatalf("Capacity = %d, want ≈83333", c)
	}
}

func TestProbeCapacityFiltersNoise(t *testing.T) {
	w := NewProbeWindow(64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if rng.Intn(10) == 0 {
			w.OnPair(5000) // queueing-disturbed outlier
		} else {
			w.OnPair(12)
		}
	}
	c := w.Capacity()
	if c < 70000 || c > 95000 {
		t.Fatalf("Capacity = %d, want ≈83333 despite outliers", c)
	}
}

func TestProbeCapacityEmpty(t *testing.T) {
	w := NewProbeWindow(8)
	if c := w.Capacity(); c != 0 {
		t.Fatalf("empty Capacity = %d, want 0", c)
	}
}

func TestAckWindowMatch(t *testing.T) {
	w := NewAckWindow(8)
	w.Store(1, 100, 1000)
	w.Store(2, 200, 2000)
	seq, rtt, ok := w.Acknowledge(2, 2500)
	if !ok || seq != 200 || rtt != 500 {
		t.Fatalf("Acknowledge(2) = %d,%d,%v", seq, rtt, ok)
	}
	// Entry 1 was older than the matched one: invalidated.
	if _, _, ok := w.Acknowledge(1, 3000); ok {
		t.Fatal("stale ACK2 matched")
	}
}

func TestAckWindowMiss(t *testing.T) {
	w := NewAckWindow(4)
	if _, _, ok := w.Acknowledge(9, 10); ok {
		t.Fatal("matched in empty window")
	}
	for i := int32(0); i < 10; i++ {
		w.Store(i, i*10, int64(i)*100)
	}
	// id 0..5 rotated out of a 4-entry window.
	if _, _, ok := w.Acknowledge(3, 5000); ok {
		t.Fatal("matched rotated-out entry")
	}
	if _, _, ok := w.Acknowledge(9, 5000); !ok {
		t.Fatal("failed to match newest entry")
	}
}

func TestAckWindowRTTFloor(t *testing.T) {
	w := NewAckWindow(4)
	w.Store(1, 10, 500)
	_, rtt, ok := w.Acknowledge(1, 400) // clock skew: earlier "now"
	if !ok || rtt != 1 {
		t.Fatalf("rtt = %d, want floor 1", rtt)
	}
}

func TestRTTSmoothing(t *testing.T) {
	r := NewRTT(100_000)
	if r.Smoothed() != 100_000 || r.Var() != 50_000 {
		t.Fatal("bad seed")
	}
	r.Update(10_000) // first real sample replaces the seed
	if r.Smoothed() != 10_000 || r.Var() != 5_000 {
		t.Fatalf("first sample: srtt=%d var=%d", r.Smoothed(), r.Var())
	}
	for i := 0; i < 100; i++ {
		r.Update(10_000)
	}
	if r.Smoothed() != 10_000 {
		t.Fatalf("converged srtt = %d", r.Smoothed())
	}
	if v := r.Var(); v > 100 {
		t.Fatalf("converged var = %d, want ≈0", v)
	}
	if got := r.RTO(); got < 10_000 || got > 10_500 {
		t.Fatalf("RTO = %d", got)
	}
	r.Update(0)  // ignored
	r.Update(-5) // ignored
	if r.Smoothed() != 10_000 {
		t.Fatal("non-positive samples must be ignored")
	}
}

func TestRTTConvergesUpward(t *testing.T) {
	r := NewRTT(1000)
	for i := 0; i < 400; i++ {
		r.Update(200_000)
	}
	if s := r.Smoothed(); s < 190_000 {
		t.Fatalf("srtt = %d, want ≈200000", s)
	}
}

func TestPropMedianFilterBounds(t *testing.T) {
	// The filtered average always lies within [min, max] of the samples and
	// within (median/8, median*8).
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		var lo, hi int64 = 1 << 62, 0
		for i, v := range raw {
			s := int64(v)
			if s < 0 {
				s = -s
			}
			s++ // strictly positive
			samples[i] = s
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		avg, kept := medianFiltered(samples)
		if kept == 0 {
			return true
		}
		return avg >= lo && avg <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropArrivalRatePositive(t *testing.T) {
	f := func(gaps []uint16) bool {
		w := NewArrivalWindow(16)
		now := int64(0)
		for _, g := range gaps {
			now += int64(g)
			w.OnArrival(now)
		}
		return w.Rate() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAckWindowGrowsLikeFixed drives an AckWindow — which holds nothing
// until the first Store and doubles toward its limit only while every held
// record is unacknowledged — beside the plain list it must be
// indistinguishable from: the last `limit` stored ACKs, cut back to those
// newer than the last match. Bursts of unanswered ACKs push it through
// every doubling and past the limit; answers arrive for fresh, stale,
// rotated-out and never-sent identifiers.
func TestAckWindowGrowsLikeFixed(t *testing.T) {
	type rec struct {
		id, seq int32
		ts      int64
	}
	for _, limit := range []int{1, 5, 16, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(limit)))
		w := NewAckWindow(limit)
		var live []rec // oldest first
		id, now := int32(0), int64(0)
		for op := 0; op < 20000; op++ {
			now += int64(rng.Intn(500))
			if rng.Intn(100) < 70 || (op/2000)%2 == 0 && rng.Intn(100) < 95 { // alternate droughts of answers
				id++
				r := rec{id: id, seq: id * 3, ts: now}
				w.Store(r.id, r.seq, r.ts)
				if live = append(live, r); len(live) > limit {
					live = live[1:]
				}
				continue
			}
			ask := id - int32(rng.Intn(limit+10)) + 2 // mostly recent, sometimes rotated out or not yet sent
			wantSeq, wantRTT, wantOK := int32(0), int64(0), false
			for i := len(live) - 1; i >= 0; i-- {
				if live[i].id == ask {
					wantSeq, wantRTT, wantOK = live[i].seq, max(now-live[i].ts, 1), true
					live = live[i+1:]
					break
				}
			}
			seq, rtt, ok := w.Acknowledge(ask, now)
			if seq != wantSeq || rtt != wantRTT || ok != wantOK {
				t.Fatalf("limit %d op %d: Acknowledge(%d) = %d,%d,%v; want %d,%d,%v", limit, op, ask, seq, rtt, ok, wantSeq, wantRTT, wantOK)
			}
		}
		if len(w.recs) > limit {
			t.Fatalf("limit %d: history grew to %d records", limit, len(w.recs))
		}
	}
}

// medianFilteredSort is medianFiltered as it was before it stopped sorting:
// the reference the allocation-free filter must match bit for bit.
func medianFilteredSort(samples []int64) (avg int64, kept int) {
	if len(samples) == 0 {
		return 0, 0
	}
	tmp := make([]int64, len(samples))
	copy(tmp, samples)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	median := tmp[len(tmp)/2]
	var sum int64
	for _, v := range tmp {
		if v < median<<3 && v > median>>3 {
			sum += v
			kept++
		}
	}
	if kept == 0 {
		return 0, 0
	}
	return sum / int64(kept), kept
}

// TestMedianFilteredMatchesSort compares the filter with its sorting
// reference over windows of every length the estimators use and longer
// (past the stack copy), with duplicates, zeros and values large enough
// that median<<3 and the sum overflow — which both must do identically.
func TestMedianFilteredMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for n := 0; n < 100000; n++ {
		samples := make([]int64, 1+rng.Intn(80))
		var draw func() int64
		switch rng.Intn(5) {
		case 0: // few distinct values: runs of duplicates around the median
			k := int64(1 + rng.Intn(4))
			draw = func() int64 { return rng.Int63n(k) }
		case 1: // microsecond gaps with idle-period outliers
			draw = func() int64 {
				if rng.Intn(8) == 0 {
					return rng.Int63n(1 << 30)
				}
				return 1 + rng.Int63n(200)
			}
		case 2: // up to 2^62
			draw = func() int64 { return rng.Int63n(1<<62 + 1) }
		case 3: // every magnitude
			draw = func() int64 { return rng.Int63() >> uint(rng.Intn(63)) }
		default: // sorted or reversed input
			step, v := int64(rng.Intn(3)), int64(rng.Intn(100))
			if rng.Intn(2) == 0 {
				step, v = -step, v+3*80
			}
			draw = func() int64 { v += step; return v }
		}
		for i := range samples {
			samples[i] = draw()
		}
		before := append([]int64(nil), samples...)
		avg, kept := medianFiltered(samples)
		wantAvg, wantKept := medianFilteredSort(samples)
		if avg != wantAvg || kept != wantKept {
			t.Fatalf("input %d %v: medianFiltered = (%d, %d), sort reference (%d, %d)", n, samples, avg, kept, wantAvg, wantKept)
		}
		if !slices.Equal(samples, before) {
			t.Fatalf("input %d: medianFiltered reordered its argument", n)
		}
	}
}

// TestEstimatorCacheInvalidates interleaves arrivals, pairs and queries on
// each estimator and on a twin whose cache is thrown away before every
// query: a result kept across an OnArrival or OnPair that changed the
// window would show as a difference.
func TestEstimatorCacheInvalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mk := range []func(int) *ArrivalWindow{NewArrivalWindow, NewBurstArrivalWindow} {
		w, twin := mk(DefaultArrivalWindow), mk(DefaultArrivalWindow)
		now := int64(0)
		for op := 0; op < 20000; op++ {
			switch rng.Intn(3) {
			case 0:
				switch rng.Intn(4) {
				case 0: // same microsecond: coalesced, or the 1 µs floor
				case 1:
					now += rng.Int63n(100000) // an idle gap
				default:
					now += 1 + rng.Int63n(50)
				}
				w.OnArrival(now)
				twin.OnArrival(now)
			default: // queries outnumber arrivals, so most hit the cache
				twin.cached = false
				if got, want := w.Rate(), twin.Rate(); got != want {
					t.Fatalf("burst=%v op %d: Rate = %d, uncached twin %d", w.burst, op, got, want)
				}
			}
		}
	}
	w, twin := NewProbeWindow(DefaultProbeWindow), NewProbeWindow(DefaultProbeWindow)
	for op := 0; op < 20000; op++ {
		if rng.Intn(3) == 0 {
			gap := rng.Int63n(400) - 2 // non-positive gaps clamp to 1
			if rng.Intn(16) == 0 {
				gap = rng.Int63n(1 << 20)
			}
			w.OnPair(gap)
			twin.OnPair(gap)
			continue
		}
		twin.cached = false
		if got, want := w.Capacity(), twin.Capacity(); got != want {
			t.Fatalf("op %d: Capacity = %d, uncached twin %d", op, got, want)
		}
	}
}

// TestEstimatorAllocs: the estimators are asked on every ACK, with their
// windows full; neither a fresh filter pass nor a cached answer may allocate.
func TestEstimatorAllocs(t *testing.T) {
	a, p := NewArrivalWindow(DefaultArrivalWindow), NewProbeWindow(DefaultProbeWindow)
	now := int64(0)
	for i := 0; i < 2*DefaultProbeWindow; i++ {
		now += 100
		a.OnArrival(now)
		p.OnPair(100)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		now += 100
		a.OnArrival(now)
		p.OnPair(90)
		if a.Rate() <= 0 || p.Capacity() <= 0 || a.Rate() <= 0 || p.Capacity() <= 0 {
			t.Fatal("estimators with full windows returned nothing")
		}
	}); avg != 0 {
		t.Fatalf("estimator queries allocate %.2f per ACK, want 0", avg)
	}
}
