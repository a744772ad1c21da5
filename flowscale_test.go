package udt

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udt/fabric"
)

// This file is the flow-scale stress rig: many concurrent connections
// multiplexed over ONE in-memory socket pair (the fabric package's pipe
// adapter), exercising the shared scheduler (pool.go + internal/
// timerwheel) in the regime it was built for — goroutine count O(shards),
// not O(flows). TestFlowScaleSmall is the
// tier-1 gate (a few thousand flows, asserts the goroutine bound);
// BenchmarkFlowScale100k is the headline 100k-flow run, reporting goodput,
// p99 write→acked latency, allocs/packet and peak goroutines.
// EXPERIMENTS.md walks through running and reading it.

// flowScaleConfig is the stress rig's endpoint configuration: small
// packets and buffers so memory stays flat at 100k flows, telemetry off
// (a perfmon ring per flow would dominate the footprint), and a deep EXP
// floor so established-but-idle flows park on the wheel for seconds at a
// time — the regime the shared scheduler exists for.
func flowScaleConfig(minEXP time.Duration) *Config {
	return &Config{
		MSS:              256,
		SndBuf:           16,
		RcvBuf:           16,
		MaxFlowWindow:    16,
		BatchSize:        4,
		PerfHistory:      -1,
		MinEXPInterval:   minEXP,
		PeerDeathTimeout: 10 * minEXP,
	}
}

// flowScaleResult is one stress run's record.
type flowScaleResult struct {
	flows          int
	goodputMbps    float64
	p99AckLatency  time.Duration
	allocsPerPkt   float64
	peakGoroutines int
	drops          int64
	heapPerFlow    uint64 // live heap per flow, both ends, after the push, everything parked
}

// runFlowScale dials `flows` connections from one client Mux to one
// listener over a shared in-memory socket pair, with `dialers` worker
// goroutines each owning an equal slice of flows: dial, write one payload,
// wait until every byte is acknowledged, record the write→acked latency,
// then leave the flow open and idle. Established flows accumulate on the
// scheduler, so by the tail of the run the wheels hold (flows) parked
// state machines while new handshakes and transfers still make progress.
func runFlowScale(t testing.TB, flows, dialers int, minEXP time.Duration) flowScaleResult {
	return runFlowScaleConfig(t, flowScaleConfig(minEXP), flows, dialers)
}

// runFlowScaleConfig is runFlowScale with the endpoint configuration given.
func runFlowScaleConfig(t testing.TB, cfg *Config, flows, dialers int) flowScaleResult {
	cEnd, sEnd := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 16})
	ln, err := ListenOn(sEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(cEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var accepted sync.Map // *Conn -> struct{}
	var nAccepted atomic.Int64
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Store(c, struct{}{})
			nAccepted.Add(1)
		}
	}()

	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	conns := make([]*Conn, flows)
	lat := make([]time.Duration, flows)
	var setupErr atomic.Value

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var wg sync.WaitGroup
	per := (flows + dialers - 1) / dialers
	for d := 0; d < dialers; d++ {
		lo, hi := d*per, min((d+1)*per, flows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				c, err := m.Dial(fabric.Addr("pipe-b"))
				if err != nil {
					setupErr.Store(fmt.Errorf("dial %d: %w", i, err))
					return
				}
				conns[i] = c
				t0 := time.Now()
				if _, err := c.Write(payload); err != nil {
					setupErr.Store(fmt.Errorf("write %d: %w", i, err))
					return
				}
				if err := c.waitAcked(); err != nil {
					setupErr.Store(fmt.Errorf("drain %d: %w", i, err))
					return
				}
				lat[i] = time.Since(t0)
			}
		}(lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err, _ := setupErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Everything is parked now; the live goroutine count is the scheduler's
	// whole footprint: two pool shard sets, two read loops, the accept
	// drainer and the test harness — O(shards + sockets), not O(flows).
	liveGoroutines := runtime.NumGoroutine()
	res := flowScaleResult{flows: flows}
	res.peakGoroutines = int(peakGoroutines.Load())
	res.goodputMbps = float64(flows) * float64(len(payload)) * 8 / elapsed.Seconds() / 1e6
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.p99AckLatency = lat[flows*99/100]
	var pkts int64
	for _, c := range conns {
		pkts += c.ep.Eng.Stats.PktsSent + c.ep.Eng.Stats.PktsRecv
	}
	if pkts > 0 {
		res.allocsPerPkt = float64(ms1.Mallocs-ms0.Mallocs) / float64(pkts)
	}
	res.drops = cEnd.Drops() + sEnd.Drops()
	res.heapPerFlow = (liveHeap() - ms0.HeapAlloc) / uint64(flows)

	if liveGoroutines > 64+dialers {
		t.Errorf("flow scale: %d live goroutines with %d flows parked; want O(shards+sockets)",
			liveGoroutines, flows)
	}
	if got := int(nAccepted.Load()); got != flows {
		t.Errorf("accepted %d flows, dialed %d", got, flows)
	}

	// Spot-check integrity: the server side must hold every payload byte,
	// intact, in its receive buffers.
	check := flows / 100
	if check < 8 {
		check = 8
	}
	got := make([]byte, len(payload))
	checked := 0
	accepted.Range(func(k, _ any) bool {
		c := k.(*Conn)
		n, err := readFull(c, got)
		if err != nil || n != len(payload) || !bytes.Equal(got, payload) {
			t.Errorf("server flow payload mismatch: n=%d err=%v", n, err)
		}
		checked++
		return checked < check
	})

	for _, c := range conns {
		if c != nil {
			c.Close() //nolint:errcheck
		}
	}
	m.Close()  //nolint:errcheck
	ln.Close() //nolint:errcheck
	<-acceptDone
	return res
}

// readFull reads exactly len(p) bytes (the data is already buffered, so
// this does not block in practice).
func readFull(c *Conn, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := c.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestMuxDialTimeoutOnWheel pins the pendingDial rework: handshake
// retransmission and expiry now ride the scheduler shard's timing wheel
// (no per-dial runtime timer or ticker), and a burst of dials to a silent
// peer must all die with ErrTimeout at the configured deadline.
func TestMuxDialTimeoutOnWheel(t *testing.T) {
	cEnd, _ := fabric.NewPipe(fabric.PipeConfig{Depth: 8}) // server end never read: requests vanish
	cfg := &Config{HandshakeTimeout: 400 * time.Millisecond}
	m, err := NewMux(cEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck

	const dials = 16
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, dials)
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Dial(fabric.Addr("pipe-b"))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != ErrTimeout {
			t.Fatalf("dial %d: err = %v, want ErrTimeout", i, err)
		}
	}
	if elapsed < 350*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("dial burst timed out after %v, configured 400ms", elapsed)
	}
}

// TestMuxCloseAbortsPendingDial covers the detach-versus-pool-close race:
// a dial parked on the wheel must return ErrClosed promptly when its Mux
// closes underneath it, even though Close stops the shard workers the
// pending handshake is scheduled on.
func TestMuxCloseAbortsPendingDial(t *testing.T) {
	cEnd, _ := fabric.NewPipe(fabric.PipeConfig{Depth: 8})
	cfg := &Config{HandshakeTimeout: 30 * time.Second}
	m, err := NewMux(cEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Dial(fabric.Addr("pipe-b"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	m.Close() //nolint:errcheck
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending dial not aborted by Mux.Close")
	}
}

// TestFlowScaleSmall is the tier-1 slice of the stress rig: a few thousand
// flows over one socket pair, asserting the scheduler's goroutine bound
// and end-to-end integrity. The full 100k run lives in
// BenchmarkFlowScale100k.
func TestFlowScaleSmall(t *testing.T) {
	flows := 2000
	if testing.Short() {
		flows = 300
	}
	res := runFlowScale(t, flows, 32, time.Second)
	t.Logf("flows=%d goodput=%.1f Mbps p99(write→acked)=%v allocs/pkt=%.2f peak goroutines=%d drops=%d",
		res.flows, res.goodputMbps, res.p99AckLatency, res.allocsPerPkt, res.peakGoroutines, res.drops)
	if res.p99AckLatency <= 0 {
		t.Fatal("no latency samples recorded")
	}
}

// TestFlowScaleDefaultConfig is TestFlowScaleSmall with SndBuf, RcvBuf and
// PerfHistory left at their defaults: 8192-packet buffers both ways at both
// ends and a 512-record perf ring per end. The rig's own configuration
// shrinks all of those by hand because they used to be allocated whole with
// the connection (2000 such flows would have needed some 97 GB); now a flow
// that has pushed 1 KB holds two payload chunks, and the budget is 128 KiB
// of live heap per flow, both ends together.
func TestFlowScaleDefaultConfig(t *testing.T) {
	flows := 2000
	if testing.Short() {
		flows = 300
	}
	res := runFlowScaleConfig(t, &Config{}, flows, 32)
	t.Logf("flows=%d heap/flow=%d B goodput=%.1f Mbps p99(write→acked)=%v allocs/pkt=%.2f peak goroutines=%d drops=%d",
		res.flows, res.heapPerFlow, res.goodputMbps, res.p99AckLatency, res.allocsPerPkt, res.peakGoroutines, res.drops)
	if res.p99AckLatency <= 0 {
		t.Fatal("no latency samples recorded")
	}
	if res.heapPerFlow > 128<<10 {
		t.Errorf("a default-Config flow holds %d B of live heap after a 1 KB push, budget 128 KiB", res.heapPerFlow)
	}
}

// BenchmarkFlowScale100k is the headline 100k-concurrent-flow stress run.
// One iteration dials 100 000 flows over a single in-memory socket pair,
// pushes 1 KB through each, and reports the four scale metrics; see
// EXPERIMENTS.md ("The 100k-flow stress bench") for how to run and read
// it. It is deliberately heavyweight (tens of seconds on one CPU) — run
// it with -bench=FlowScale100k -benchtime=1x.
func BenchmarkFlowScale100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFlowScale(b, 100_000, 64, 2*time.Second)
		b.ReportMetric(res.goodputMbps, "goodput-Mbps")
		b.ReportMetric(float64(res.p99AckLatency.Microseconds()), "p99-ack-µs")
		b.ReportMetric(res.allocsPerPkt, "allocs/pkt")
		b.ReportMetric(float64(res.peakGoroutines), "peak-goroutines")
	}
}
