package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"udt"
	"udt/fabric"
	"udt/internal/timing"
)

// rr_flows: 256 flows dialed by one udt.Mux over one in-memory fabric.Pipe
// to one ListenOn echo server; two closed-loop clients, each cycling its
// own 128 flows with one 512 B request → 512 B echo outstanding. One small
// packet per message, no kernel, no crypto: what is left is internal/mux
// dispatch, the pool's wake→runTask path and 512 resident flows' timers.
//
// Keep 256 flows. With two flows this Config leaves slow start and paces at
// the application-limited receive rate: p50 goes from 25 µs to 2.2 ms.

const (
	rrFlows   = 256
	rrClients = 2
	rrMsgLen  = 512
	rrSpanOne = 16 // the traced run records spans for one message in 16
)

func rrConfig(seed int64, stream string, ledger *timing.Ledger) *udt.Config {
	return &udt.Config{
		MSS: 1472, SndBuf: 32, RcvBuf: 32, MaxFlowWindow: 32, PerfHistory: -1,
		Rand: newRand(seed, stream), Ledger: ledger,
	}
}

// countingConn counts the datagrams written to an in-memory pipe end. It
// is only ever wrapped around a fabric.Pipe: around a UDP socket it would
// hide the socket from the stack and strip the sendmmsg/GSO path.
type countingConn struct {
	*fabric.Pipe
	writes atomic.Int64
}

func (c *countingConn) WriteTo(p []byte, a net.Addr) (int, error) {
	c.writes.Add(1)
	return c.Pipe.WriteTo(p, a)
}

// pipePair is the in-memory fabric of rr_flows and conn_churn.
type pipePair struct {
	a, b       *fabric.Pipe
	ca, cb     *countingConn // non-nil on the traced run
	cEnd, sEnd udt.PacketConn
}

func newPipePair(traced bool) *pipePair {
	p := &pipePair{}
	p.a, p.b = fabric.NewPipe(fabric.PipeConfig{Depth: 16384})
	p.cEnd, p.sEnd = p.a, p.b
	if traced {
		p.ca, p.cb = &countingConn{Pipe: p.a}, &countingConn{Pipe: p.b}
		p.cEnd, p.sEnd = p.ca, p.cb
	}
	return p
}

func (p *pipePair) datagrams() int64 {
	if p.ca == nil {
		return 0
	}
	return p.ca.writes.Load() + p.cb.writes.Load()
}

func (p *pipePair) drops() int64 { return p.a.Drops() + p.b.Drops() }

// echoServer accepts every connection on ln and echoes msgLen-byte
// messages until the peer goes away.
type echoServer struct {
	ln     *udt.Listener
	msgLen int
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[*udt.Conn]struct{} // open connections
	closed udt.Stats              // final counters of the connections that ended
	n      atomic.Int64           // connections accepted
}

func startEcho(ln *udt.Listener, msgLen int) *echoServer {
	e := &echoServer{ln: ln, msgLen: msgLen, conns: make(map[*udt.Conn]struct{})}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns[c] = struct{}{}
			e.mu.Unlock()
			e.n.Add(1)
			e.wg.Add(1)
			go e.serve(c)
		}
	}()
	return e
}

func (e *echoServer) serve(c *udt.Conn) {
	defer e.wg.Done()
	defer func() {
		st := c.Stats()
		c.Close()
		e.mu.Lock()
		delete(e.conns, c)
		sumStats(&e.closed, st)
		e.mu.Unlock()
	}()
	buf := make([]byte, e.msgLen)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// stats adds the counters of every connection accepted so far, open or
// ended, to into.
func (e *echoServer) stats(into *udt.Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sumStats(into, e.closed)
	for c := range e.conns {
		sumStats(into, c.Stats())
	}
}

// close stops accepting, which closes the accepted connections, and waits
// for every serving goroutine.
func (e *echoServer) close() {
	e.ln.Close()
	e.wg.Wait()
}

type rrSession struct {
	pipe    *pipePair
	srv     *echoServer
	mux     *udt.Mux
	flows   []*udt.Conn
	pattern []byte
	// What dialing the flows cost: heap allocations across the dials, and
	// the live heap with all of them open and idle minus before, both ends.
	dialMallocs, heapBytes uint64
	dialUs                 []float64
	workMs                 float64 // what set-up took before the warm-up: endpoints built, flows dialed, heap read
	ledger                 *timing.Ledger

	win   atomic.Pointer[sampler]
	total atomic.Int64 // verified echoes, both clients
	stop  atomic.Bool
	wg    sync.WaitGroup
	warm  sync.WaitGroup
	fails failures
	rtt   [rrClients]*latLog // request written → echo read, per client
	tr    *tracer
}

// openRR builds the fabric and both endpoints, dials the 256 flows and
// warms them up; its duration is one setup_s sample.
func openRR(o runOpts, pattern []byte, round int, rtt [rrClients]*latLog) (*rrSession, error) {
	t0 := time.Now()
	s := &rrSession{pipe: newPipePair(o.tr != nil), pattern: pattern, tr: o.tr, rtt: rtt, ledger: newLedger(o.tr)}
	ln, err := udt.ListenOn(s.pipe.sEnd, rrConfig(o.seed, fmt.Sprintf("listen/%d", round), s.ledger))
	if err != nil {
		return nil, err
	}
	s.srv = startEcho(ln, rrMsgLen)
	if s.mux, err = udt.NewMux(s.pipe.cEnd, rrConfig(o.seed, fmt.Sprintf("dial/%d", round), s.ledger)); err != nil {
		s.srv.close()
		return nil, err
	}
	before := settledHeap()
	log := o.tr.log()
	for i := 0; i < rrFlows; i++ {
		t0 := time.Now()
		h := log.begin("Dial", 0, int64(i))
		c, err := s.mux.Dial(s.pipe.b.LocalAddr())
		log.end(h)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial flow %d: %w", i, err)
		}
		s.dialUs = append(s.dialUs, float64(time.Since(t0))/1e3)
		s.flows = append(s.flows, c)
	}
	for s.srv.n.Load() < rrFlows { // the last accepts trail the last dial by one hop
		time.Sleep(100 * time.Microsecond)
	}
	s.dialMallocs = readMem().mallocs - before.mallocs
	open := settledHeap()
	s.heapBytes = open.heapAlloc - min(open.heapAlloc, before.heapAlloc)
	s.workMs = time.Since(t0).Seconds() * 1e3
	per := rrFlows / rrClients
	s.warm.Add(rrClients)
	s.wg.Add(rrClients)
	for k := 0; k < rrClients; k++ {
		go s.client(k, s.flows[k*per:(k+1)*per])
	}
	s.warm.Wait()
	return s, nil
}

// client is one closed-loop load generator: it owns flows and keeps one
// request outstanding, moving to its next flow after every echo.
func (s *rrSession) client(k int, flows []*udt.Conn) {
	defer s.wg.Done()
	log := s.tr.log()
	req, echo := make([]byte, rrMsgLen), make([]byte, rrMsgLen)
	began, warmed := time.Now(), false
	for i := uint64(0); !s.stop.Load(); i++ {
		c := flows[i%uint64(len(flows))]
		op := int64(i)*rrClients + int64(k)
		fillMessage(req, s.pattern, uint64(op))
		var lg *spanLog
		if i%rrSpanOne == 0 {
			lg = log
		}
		t0 := time.Now()
		hm := lg.begin("Message", 0, op)
		hw := lg.begin("Write", lg.id(hm), op)
		_, err := c.Write(req)
		lg.end(hw)
		if err == nil {
			hr := lg.begin("Read", lg.id(hm), op)
			_, err = io.ReadFull(c, echo)
			lg.end(hr)
		}
		lg.end(hm)
		now := time.Now()
		if err != nil {
			if !s.stop.Load() {
				s.fails.add("client %d message %d: %v", k, i, err)
				s.abort()
			}
			break
		}
		if !bytes.Equal(req, echo) {
			s.fails.add("client %d message %d: echo differs from request", k, i)
		}
		s.rtt[k].add(now, now.Sub(t0))
		if !warmed && now.Sub(began) >= warmFor {
			s.warm.Done()
			warmed = true
		}
		n := s.total.Add(1)
		if k == 0 {
			if w := s.win.Load(); w != nil {
				w.tick(now, n)
			}
		}
	}
	if !warmed {
		s.warm.Done()
	}
}

// abort ends a window whose flows died under it.
func (s *rrSession) abort() {
	s.stop.Store(true)
	if w := s.win.Load(); w != nil {
		w.once.Do(func() { close(w.done) })
	}
}

func (s *rrSession) close() {
	s.stop.Store(true)
	log := s.tr.log()
	h := log.begin("Close", 0, 0)
	s.mux.Close()
	log.end(h)
	s.wg.Wait()
	s.srv.close()
}

func (s *rrSession) bothEnds() udt.Stats {
	var st udt.Stats
	for _, c := range s.flows {
		sumStats(&st, c.Stats())
	}
	s.srv.stats(&st)
	return st
}

func runRR(o runOpts) (*outcome, error) {
	out := newOutcome()
	pattern := newPattern(o.seed)
	var rtt [rrClients]*latLog
	for k := range rtt {
		rtt[k] = newLatLog(40_000 * int(o.window/time.Second+4)) // ≈27 k messages per client per second, warm-ups included
	}
	var s *rrSession
	var setupS, heap, mallocs []float64
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
			s.fails.into(out)
		}
		t0 := time.Now()
		var err error
		if s, err = openRR(o, pattern, i, rtt); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heap = append(heap, float64(s.heapBytes)/rrFlows)
		mallocs = append(mallocs, float64(s.dialMallocs)/rrFlows)
	}

	w := newSampler(o.window)
	st0, mem0, dg0 := s.bothEnds(), readMem(), s.pipe.datagrams()
	s.win.Store(w)
	<-w.done
	st1, mem1, dg1 := s.bothEnds(), readMem(), s.pipe.datagrams()
	s.close()
	s.fails.into(out)
	if len(w.samples) <= w.slices {
		return out, fmt.Errorf("flows died %d slices into a %d-slice window", len(w.samples)-1, w.slices)
	}

	out.attempted = w.totalOps()
	rate, cpu := w.perSlice()
	const bytesPerMsg = 2 * rrMsgLen // the request delivered to the server, the echo to the client
	for i := range cpu {
		cpu[i] /= bytesPerMsg
	}
	out.speed["msgs_per_s"] = sliceMedian(rate)
	out.speed["goodput_mbps"] = out.speed["msgs_per_s"] * bytesPerMsg * 8 / 1e6
	out.speed["cpu_ns_per_byte"] = sliceMedian(cpu)
	sorted := latencySummary(out, w, "request written → echo read", s.rtt[:]...)
	out.e2e["heap_bytes_per_flow"] = median(heap)
	out.e2e["setup_s"] = median(setupS)
	out.headline = out.speed["msgs_per_s"]
	out.cpuNs = float64(w.totalCPU())
	out.notes = append(out.notes,
		"fabric: in-memory fabric.Pipe (depth 16384), no kernel, not a real link",
		fmt.Sprintf("window %.2fs in %d slices: %d echoes, whole-window %.0f msgs/s; pipe drops %d",
			w.seconds(), w.slices, w.totalOps(), float64(w.totalOps())/w.seconds(), s.pipe.drops()))

	if o.tr != nil {
		msgs := float64(w.totalOps())
		stackLayers(out, diffStats(st0, st1), mem0, mem1, msgs, 0)
		out.layer["go.allocs_per_conn"] = median(mallocs)
		out.layer["udt.msg_rtt_p99_us"] = percentile(sorted, 99)
		d := sortedCopy(s.dialUs)
		out.layer["udt.dial_p50_us"] = percentile(d, 50)
		out.layer["udt.conn_setup_p99_us"] = percentile(d, 99)
		spans := o.tr.all()
		out.layer["udt.close_p50_us"] = median(durationsUs(spans, "Close"))
		out.layer["udt.setup_work_ms"] = s.workMs
		out.layer["udt.write_block_p50_us"] = median(durationsUs(spans, "Write"))
		self := selfByName(spans)
		out.layer["udt.read_blocked_share"] = ratio(float64(self["Read"]), float64(self["Read"]+self["Write"]+self["Message"]))
		ledgerLayers(out, s.ledger)
		out.layer["fabric.datagrams_per_msg"] = float64(dg1-dg0) / msgs
		out.layer["fabric.drops"] = float64(s.pipe.drops())
		out.calls["payload_kb"] = msgs * bytesPerMsg / 1024
		out.calls["mux_dispatch"] = float64(dg1 - dg0)
		out.calls["pipe_hops"] = float64(dg1 - dg0)
	}
	return out, nil
}
