package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"udt"
	"udt/internal/timing"
)

// bulk_clear / bulk_aead: one flow over the host loopback (127.0.0.1, UDP,
// GSO/GRO as the kernel grants them), default Config, a writer streaming
// 1 MiB blocks closed-loop and a reader draining them with a 1 MiB buffer.
// This is the paper's Fig. 14 workload: socket I/O, engine and buffers do
// the work. bulk_aead adds PSK+AEAD, so internal/secure seals and opens
// every packet; bulk_clear is its must-not-move twin.

const (
	// bulkMaxBlocks bounds the blocks of one session (a ring of write-start
	// times): a minute at 8 Gb/s.
	bulkMaxBlocks = 1 << 16
)

// bulkPSK keys bulk_aead. A fixed key, not a seeded one: key bytes change
// no code path, and the seed's job is the payload and the ISNs.
var bulkPSK = []byte("bench/bulk_aead pre-shared key!!")

type bulkSession struct {
	ln             *udt.Listener
	client, server *udt.Conn
	pattern        []byte
	dialMallocs    uint64 // heap allocations across Listen, Dial and Accept, both ends
	ledger         *timing.Ledger

	began    time.Time // traffic started: the warm-up runs warmFor from here
	workMs   float64   // what set-up took up to that point: endpoints built, flow connected
	win      atomic.Pointer[sampler]
	warm     chan struct{}
	warmOnce sync.Once
	stop     atomic.Bool
	wg       sync.WaitGroup
	fails    failures

	wstart    []atomic.Int64 // block n%bulkMaxBlocks → when its Write began, ns since epoch
	delivered *latLog        // block Write began → reader holds the whole verified block
	writes    *latLog        // duration of each block Write call
	reads     *latLog        // time the reader spent inside Read per block

	mlog, wlog, rlog *spanLog // the set-up/tear-down goroutine's, the writer's, the reader's
}

// openBulk builds the endpoints, connects the flow and warms it up; its
// duration is one setup_s sample.
func openBulk(o runOpts, aead bool, pattern []byte, round int) (*bulkSession, error) {
	t0 := time.Now()
	s := &bulkSession{
		pattern: pattern, warm: make(chan struct{}), mlog: o.tr.log(), wlog: o.tr.log(), rlog: o.tr.log(),
		wstart: make([]atomic.Int64, bulkMaxBlocks), delivered: newLatLog(8192), writes: newLatLog(8192), reads: newLatLog(8192),
	}
	s.ledger = newLedger(o.tr)
	cfg := func(stream string) *udt.Config {
		c := &udt.Config{Rand: newRand(o.seed, fmt.Sprintf("%s/%d", stream, round)), Ledger: s.ledger}
		if aead {
			c.PSK, c.AEAD = bulkPSK, true
		}
		return c
	}
	before := readMem()
	ln, err := udt.Listen("127.0.0.1:0", cfg("listen"))
	if err != nil {
		return nil, err
	}
	s.ln = ln
	type accepted struct {
		c   *udt.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		h := s.rlog.begin("Accept", 0, 0)
		c, err := ln.Accept()
		s.rlog.end(h)
		acc <- accepted{c, err}
	}()
	h := s.mlog.begin("Dial", 0, 0)
	s.client, err = udt.Dial(ln.Addr().String(), cfg("dial"))
	s.mlog.end(h)
	if err != nil {
		ln.Close()
		return nil, err
	}
	a := <-acc
	if a.err != nil {
		s.client.Close()
		ln.Close()
		return nil, a.err
	}
	s.server = a.c
	s.dialMallocs = readMem().mallocs - before.mallocs

	s.began = time.Now()
	s.workMs = s.began.Sub(t0).Seconds() * 1e3
	s.wg.Add(2)
	go s.write()
	go s.read()
	<-s.warm
	return s, nil
}

func (s *bulkSession) write() {
	defer s.wg.Done()
	blk := append([]byte(nil), s.pattern...)
	for n := uint64(0); !s.stop.Load(); n++ {
		stampBlock(blk, n)
		t0 := time.Now()
		s.wstart[n%bulkMaxBlocks].Store(int64(t0.Sub(epoch)))
		h := s.wlog.begin("Write", 0, int64(n))
		_, err := s.client.Write(blk)
		s.wlog.end(h)
		if err != nil {
			if !s.stop.Load() {
				s.fails.add("write block %d: %v", n, err)
			}
			return
		}
		now := time.Now()
		s.writes.add(now, now.Sub(t0))
	}
}

func (s *bulkSession) read() {
	defer s.wg.Done()
	buf := make([]byte, blockSize)
	for n := uint64(0); ; n++ {
		t0 := time.Now()
		h := s.rlog.begin("Read", 0, int64(n))
		_, err := io.ReadFull(s.server, buf)
		s.rlog.end(h)
		if err != nil {
			if !s.stop.Load() {
				s.fails.add("read block %d: %v", n, err)
				s.abort()
			}
			return
		}
		if err := verifyBlock(buf, s.pattern, n); err != nil {
			s.fails.add("%v", err)
		}
		now := time.Now()
		s.reads.add(now, now.Sub(t0))
		s.delivered.add(now, time.Duration(int64(now.Sub(epoch))-s.wstart[n%bulkMaxBlocks].Load()))
		if now.Sub(s.began) >= warmFor {
			s.warmOnce.Do(func() { close(s.warm) })
		}
		if w := s.win.Load(); w != nil {
			w.tick(now, int64(n+1))
		}
	}
}

// abort unblocks whoever waits on a stream that died.
func (s *bulkSession) abort() {
	s.warmOnce.Do(func() { close(s.warm) })
	if w := s.win.Load(); w != nil {
		w.once.Do(func() { close(w.done) })
	}
}

func (s *bulkSession) close() {
	s.stop.Store(true)
	h := s.mlog.begin("Close", 0, 0)
	s.client.Close()
	s.mlog.end(h)
	s.server.Close()
	s.ln.Close()
	s.wg.Wait()
}

// bothEnds sums the two connections' counters.
func (s *bulkSession) bothEnds() udt.Stats {
	st := s.client.Stats()
	sumStats(&st, s.server.Stats())
	return st
}

// bulkRun is one bulk session measured over one window.
type bulkRun struct {
	w           *sampler
	s           *bulkSession
	st          udt.Stats // both ends, window only
	mem0, mem1  memSnap
	gso         bool
	rate, cpu   []float64 // per slice: Mb/s, ns/B
	dialMallocs []float64 // one per set-up
}

// measureBulk sets the flow up o.setups times and measures the last one.
func measureBulk(o runOpts, aead bool, out *outcome) (*bulkRun, error) {
	pattern := newPattern(o.seed)
	r := &bulkRun{w: newSampler(o.window)}
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if r.s != nil {
			r.s.close()
			r.s.fails.into(out)
		}
		t0 := time.Now()
		var err error
		if r.s, err = openBulk(o, aead, pattern, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		r.dialMallocs = append(r.dialMallocs, float64(r.s.dialMallocs))
	}
	out.e2e["setup_s"] = median(setupS)

	s := r.s
	st0 := s.bothEnds()
	r.mem0 = readMem()
	s.win.Store(r.w)
	<-r.w.done
	r.st, r.mem1 = diffStats(st0, s.bothEnds()), readMem()
	r.gso = s.client.Stats().GSOEnabled
	s.close()
	s.fails.into(out)
	if len(r.w.samples) <= r.w.slices {
		return nil, fmt.Errorf("stream ended %d slices into a %d-slice window", len(r.w.samples)-1, r.w.slices)
	}
	r.rate, r.cpu = r.w.perSlice()
	for i := range r.rate {
		r.rate[i] *= blockSize * 8 / 1e6
	}
	for i := range r.cpu {
		r.cpu[i] /= blockSize
	}
	return r, nil
}

// runBulk measures bulk_clear (aead false) or bulk_aead.
func runBulk(o runOpts, aead bool) (*outcome, error) {
	out := newOutcome()
	r, err := measureBulk(o, aead, out)
	if err != nil {
		return out, err
	}
	w, s := r.w, r.s
	out.attempted = w.totalOps()
	out.speed["goodput_mbps"] = sliceMedian(r.rate)
	out.speed["cpu_ns_per_byte"] = sliceMedian(r.cpu)
	out.speed["msgs_per_s"] = out.speed["goodput_mbps"] * 1e6 / 8 / blockSize
	latencySummary(out, w, "block Write began → block read and verified", s.delivered)
	countedWork(out, r.st, r.mem0, r.mem1, float64(w.totalOps()))
	out.headline = out.speed["goodput_mbps"]
	out.cpuNs = float64(w.totalCPU())
	out.notes = append(out.notes,
		fmt.Sprintf("fabric: host loopback 127.0.0.1 (UDP), not a real link; GSO probed %v", r.gso),
		fmt.Sprintf("window %.2fs in %d slices: %d blocks, whole-window goodput %.1f Mb/s, cpu %.3f ns/B",
			w.seconds(), w.slices, w.totalOps(),
			float64(w.totalOps())*blockSize*8/1e6/w.seconds(), float64(w.totalCPU())/float64(w.totalOps())/blockSize))

	if o.tr != nil {
		stackLayers(out, r.st, r.mem0, r.mem1, float64(w.totalOps()), 0)
		out.layer["go.allocs_per_conn"] = median(r.dialMallocs)
		spans := o.tr.all()
		dialUs := durationsUs(spans, "Dial")
		out.layer["udt.dial_p50_us"] = median(dialUs)
		out.layer["udt.close_p50_us"] = median(durationsUs(spans, "Close"))
		out.layer["udt.setup_work_ms"] = s.workMs
		_, _, writeUs := w.latencies(s.writes)
		out.layer["udt.write_block_p50_us"] = percentile(writeUs, 50)
		_, _, readUs := w.latencies(s.reads)
		var inRead float64
		for _, us := range readUs {
			inRead += us
		}
		out.layer["udt.read_blocked_share"] = inRead / 1e6 / w.seconds()
		ledgerLayers(out, s.ledger)
		out.calls["payload_kb"] = float64(w.totalOps()) * blockSize / 1024
		if aead {
			out.calls["seals"] = out.calls["data_pkts_sent"]
			out.calls["opens"] = out.calls["data_pkts_recv"]
			out.calls["ctrl_seals"] = out.calls["ctrl_pkts"]
		}
	}
	return out, nil
}
