package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sliceLen is the length of one measurement slice. A window is a whole
// number of slices and every metric of it is a median over slices, so one
// disturbed second moves the headline by nothing instead of by its share.
const sliceLen = time.Second

// warmFor is how long every set-up warms its workload up before it counts
// as done. A fixed time, not a fixed amount of work, and the reason setup_s
// can gate at all: what set-up really does (endpoints, handshakes, buffer
// allocation: 1–50 ms, udt.setup_work_ms) runs 1.5–2.5× slower while this
// box's neighbours are busy, and a set-up time made of that alone would
// move by more than any bound between two sets of runs of the same code.
// With the fixed part at least six times the real part the worst regime
// moves setup_s by well under its bound, and a change trips the gate when
// it adds about 80 ms of work to a set-up (README, "setup_s").
const warmFor = 300 * time.Millisecond

// cpuNow returns the process's user+system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// memSnap is the slice of runtime.MemStats the benchmark differences.
type memSnap struct {
	heapAlloc, totalAlloc, mallocs uint64
	numGC                          uint32
	gcCPU                          float64 // seconds
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	snap := memSnap{heapAlloc: ms.HeapAlloc, totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[0].Value.Float64()
	}
	return snap
}

// settledHeap collects twice (the second cycle frees what the first one's
// finalizers released) and returns the live heap.
func settledHeap() memSnap {
	runtime.GC()
	runtime.GC()
	return readMem()
}

// sample is one reading of a window's running totals.
type sample struct {
	t   time.Time
	ops int64
	cpu int64
}

// sampler cuts a measurement window into slices. The goroutine that
// completes operations calls tick after each one; the first tick opens the
// window and the tick that closes the last slice ends it. Reading the
// clock where the work completes keeps slice edges exact at GOMAXPROCS(1),
// where a separate timer goroutine would wait its turn for the P.
type sampler struct {
	slices  int
	next    time.Time
	samples []sample
	done    chan struct{}
	once    sync.Once
}

func newSampler(window time.Duration) *sampler {
	n := int(window / sliceLen)
	if n < 1 {
		n = 1
	}
	return &sampler{slices: n, samples: make([]sample, 0, n+1), done: make(chan struct{})}
}

// tick records a sample when a slice edge has passed. ops is the running
// total of completed operations. It reports whether the window is over.
func (w *sampler) tick(now time.Time, ops int64) bool {
	switch {
	case len(w.samples) > w.slices:
		return true
	case len(w.samples) == 0:
		w.next = now
	case now.Before(w.next):
		return false
	}
	w.samples = append(w.samples, sample{now, ops, cpuNow()})
	for !now.Before(w.next) {
		w.next = w.next.Add(sliceLen)
	}
	if len(w.samples) > w.slices {
		w.once.Do(func() { close(w.done) })
		return true
	}
	return false
}

// seconds is the measured window length.
func (w *sampler) seconds() float64 {
	return w.samples[len(w.samples)-1].t.Sub(w.samples[0].t).Seconds()
}

// totalOps and totalCPU are the window's operation count and CPU time.
func (w *sampler) totalOps() int64 { return w.samples[len(w.samples)-1].ops - w.samples[0].ops }
func (w *sampler) totalCPU() int64 { return w.samples[len(w.samples)-1].cpu - w.samples[0].cpu }

// latLog is a goroutine's log of operation latencies: when each operation
// completed and how long it took, in µs.
type latLog struct {
	at []int64 // ns since epoch; pointer-free, so a million samples cost the GC nothing
	us []float64
}

// epoch is the origin of latLog timestamps.
var epoch = time.Now()

func newLatLog(capacity int) *latLog {
	return &latLog{at: make([]int64, 0, capacity), us: make([]float64, 0, capacity)}
}

func (l *latLog) add(done time.Time, d time.Duration) {
	l.at = append(l.at, int64(done.Sub(epoch)))
	l.us = append(l.us, float64(d)/1e3)
}

// latencies groups the logged operations that completed inside the window
// by slice. It returns each slice's p50 and p90 (NaN for a slice nothing
// completed in) and the whole window's samples, sorted.
func (w *sampler) latencies(logs ...*latLog) (p50, p90, all []float64) {
	per := make([][]float64, len(w.samples)-1)
	edges := make([]int64, len(w.samples))
	for i, s := range w.samples {
		edges[i] = int64(s.t.Sub(epoch))
	}
	for _, l := range logs {
		for i, at := range l.at {
			if at < edges[0] || at >= edges[len(edges)-1] {
				continue
			}
			k := sort.Search(len(per), func(k int) bool { return at < edges[k+1] })
			per[k] = append(per[k], l.us[i])
			all = append(all, l.us[i])
		}
	}
	for _, s := range per {
		if len(s) == 0 {
			p50, p90 = append(p50, math.NaN()), append(p90, math.NaN())
			continue
		}
		sort.Float64s(s)
		p50 = append(p50, percentile(s, 50))
		p90 = append(p90, percentile(s, 90))
	}
	sort.Float64s(all)
	return p50, p90, all
}

// perSlice returns, for each slice, operations per second and CPU
// nanoseconds per operation (NaN for a slice without operations).
func (w *sampler) perSlice() (rate, cpuPerOp []float64) {
	for i := 1; i < len(w.samples); i++ {
		a, b := w.samples[i-1], w.samples[i]
		ops := float64(b.ops - a.ops)
		rate = append(rate, ops/b.t.Sub(a.t).Seconds())
		if ops == 0 {
			cpuPerOp = append(cpuPerOp, math.NaN())
			continue
		}
		cpuPerOp = append(cpuPerOp, float64(b.cpu-a.cpu)/ops)
	}
	return rate, cpuPerOp
}
