package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, // not even a median
		{20, 50}, {99, 50},
		{100, 90}, {999, 90}, // 999 × 1 % = 9.99 samples beyond p99: one short
		{1000, 99}, {9999, 99},
		{10_000, 99.9}, {99_999, 99.9},
		{100_000, 99.99}, {5_000_000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(values, n=4);
// these expectations were produced by it.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianAndJain(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{9, 1, 5, 7}); got != 6 {
		t.Errorf("median even = %g", got)
	}
	if got := jain([]float64{3, 3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("jain equal shares = %g, want 1", got)
	}
	if got := jain([]float64{8, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("jain one taker of four = %g, want 0.25", got)
	}
}

// A window is cut where the work completes: the first tick opens it, every
// later slice edge takes one sample, the tick closing the last slice ends
// it; latencies are grouped by the slice they completed in.
func TestSamplerCutsSlicesAndGroupsLatencies(t *testing.T) {
	w := newSampler(3 * sliceLen)
	t0 := epoch.Add(time.Hour)
	lat := newLatLog(64)
	ops := int64(0)
	done := false
	for ms := 0; ms <= 3100 && !done; ms += 100 { // an operation completes every 100 ms
		now := t0.Add(time.Duration(ms) * time.Millisecond)
		ops++
		lat.add(now, time.Duration(1+ms/1000)*time.Millisecond) // 1 ms in slice 0, 2 ms in slice 1, …
		done = w.tick(now, ops)
	}
	if !done || len(w.samples) != 4 {
		t.Fatalf("window not closed after 3 slices: done=%v samples=%d", done, len(w.samples))
	}
	select {
	case <-w.done:
	default:
		t.Fatal("done channel not closed")
	}
	if got := w.totalOps(); got != 30 {
		t.Errorf("totalOps = %d, want 30", got)
	}
	rate, _ := w.perSlice()
	for i, r := range rate {
		if math.Abs(r-10) > 1e-9 {
			t.Errorf("slice %d rate = %g ops/s, want 10", i, r)
		}
	}
	p50, p90, all := w.latencies(lat)
	if len(all) != 30 || len(p50) != 3 {
		t.Fatalf("latencies kept %d samples in %d slices, want 30 in 3", len(all), len(p50))
	}
	for i := range p50 {
		if want := float64(1000 * (i + 1)); p50[i] != want || p90[i] != want {
			t.Errorf("slice %d p50/p90 = %g/%g µs, want %g", i, p50[i], p90[i], want)
		}
	}
	if w.tick(t0.Add(time.Minute), 99) != true || len(w.samples) != 4 {
		t.Error("a tick after the window closed must change nothing")
	}
}

// A slice nothing completed in has no CPU-per-operation and no latency: it
// is left out of the median instead of entering it as +Inf or 0.
func TestSliceWithoutOperationsIsLeftOut(t *testing.T) {
	w := newSampler(3 * sliceLen)
	w.tick(epoch, 0)
	w.tick(epoch.Add(sliceLen), 10)
	w.tick(epoch.Add(2*sliceLen), 10) // a stalled second
	w.tick(epoch.Add(3*sliceLen), 30)
	rate, cpu := w.perSlice()
	if len(rate) != 3 || rate[1] != 0 || !math.IsNaN(cpu[1]) || math.IsNaN(cpu[0]) || math.IsInf(cpu[0], 0) {
		t.Fatalf("perSlice = %v, %v; want rate 0 and CPU per operation NaN in the stalled slice", rate, cpu)
	}
	if got := sliceMedian([]float64{4, math.NaN(), 2}); got != 3 {
		t.Errorf("sliceMedian skipping a NaN = %g, want 3", got)
	}
	if got := sliceMedian([]float64{math.NaN()}); got != 0 {
		t.Errorf("sliceMedian of no values = %g, want 0", got)
	}
}
