package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"udt"
	"udt/internal/timing"
)

// conn_churn: one client loop over Mux.Dial on an in-memory fabric.Pipe
// with the default Config: dial, 1 KiB request, 1 KiB echo, Close. The
// data path does nothing; what is measured is the connection lifecycle —
// handshake, core.NewConn's buffer allocation (48.56 MB and a GC cycle per
// connection today), mux register/release, pool attach/detach.

const churnMsgLen = 1024

type churnSession struct {
	pipe    *pipePair
	srv     *echoServer
	mux     *udt.Mux
	pattern []byte
	req     []byte
	echo    []byte
	log     *spanLog
	cycles  uint64
	fails   failures
	closed  udt.Stats // client-side counters of ended connections, read just before Close
	ledger  *timing.Ledger
	workMs  float64 // what set-up took before the warm-up: pipe, listener, mux
}

// cycleTimes is one dial-echo-close cycle as the client saw it.
type cycleTimes struct {
	dial, firstReply, close time.Duration
	end                     time.Time
}

func openChurn(o runOpts, pattern []byte, round int) (*churnSession, error) {
	t0 := time.Now()
	s := &churnSession{
		pipe: newPipePair(o.tr != nil), pattern: pattern, log: o.tr.log(),
		req: make([]byte, churnMsgLen), echo: make([]byte, churnMsgLen),
		ledger: newLedger(o.tr),
	}
	ln, err := udt.ListenOn(s.pipe.sEnd, &udt.Config{Rand: newRand(o.seed, fmt.Sprintf("listen/%d", round)), Ledger: s.ledger})
	if err != nil {
		return nil, err
	}
	s.srv = startEcho(ln, churnMsgLen)
	if s.mux, err = udt.NewMux(s.pipe.cEnd, &udt.Config{Rand: newRand(o.seed, fmt.Sprintf("dial/%d", round)), Ledger: s.ledger}); err != nil {
		s.srv.close()
		return nil, err
	}
	s.workMs = time.Since(t0).Seconds() * 1e3
	for began := time.Now(); time.Since(began) < warmFor; {
		if _, err := s.cycle(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// cycle runs one connection: dial, request, verified echo, close.
func (s *churnSession) cycle() (cycleTimes, error) {
	var ct cycleTimes
	op := int64(s.cycles)
	fillMessage(s.req, s.pattern, s.cycles)
	s.cycles++
	t0 := time.Now()
	hc := s.log.begin("Cycle", 0, op)
	defer func() { s.log.end(hc) }()
	h := s.log.begin("Dial", s.log.id(hc), op)
	c, err := s.mux.Dial(s.pipe.b.LocalAddr())
	s.log.end(h)
	if err != nil {
		return ct, fmt.Errorf("dial %d: %w", op, err)
	}
	ct.dial = time.Since(t0)
	h = s.log.begin("Write", s.log.id(hc), op)
	_, err = c.Write(s.req)
	s.log.end(h)
	if err == nil {
		h = s.log.begin("Read", s.log.id(hc), op)
		_, err = io.ReadFull(c, s.echo)
		s.log.end(h)
	}
	if err != nil {
		c.Close()
		return ct, fmt.Errorf("echo %d: %w", op, err)
	}
	t1 := time.Now()
	ct.firstReply = t1.Sub(t0)
	if !bytes.Equal(s.req, s.echo) {
		s.fails.add("connection %d: echo differs from request", op)
	}
	sumStats(&s.closed, c.Stats())
	h = s.log.begin("Close", s.log.id(hc), op)
	c.Close()
	s.log.end(h)
	ct.end = time.Now()
	ct.close = ct.end.Sub(t1)
	return ct, nil
}

// bothEnds sums the final counters of every connection that has ended.
func (s *churnSession) bothEnds() udt.Stats {
	st := s.closed
	s.srv.stats(&st)
	return st
}

func (s *churnSession) close() {
	s.mux.Close()
	s.srv.close()
}

func runChurn(o runOpts) (*outcome, error) {
	out := newOutcome()
	pattern := newPattern(o.seed)
	var s *churnSession
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
			s.fails.into(out)
		}
		t0 := time.Now()
		var err error
		if s, err = openChurn(o, pattern, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()

	w := newSampler(o.window)
	first := newLatLog(1024 * int(o.window/time.Second+2)) // Dial called → echo verified
	var dialUs, closeUs []float64
	st0, mem0, dg0 := s.bothEnds(), readMem(), s.pipe.datagrams()
	w.tick(time.Now(), 0)
	for n := int64(1); ; n++ {
		ct, err := s.cycle()
		if err != nil {
			s.fails.into(out)
			return out, err
		}
		first.add(ct.end, ct.firstReply)
		dialUs = append(dialUs, float64(ct.dial)/1e3)
		closeUs = append(closeUs, float64(ct.close)/1e3)
		if w.tick(ct.end, n) {
			break
		}
	}
	st1, mem1, dg1 := s.bothEnds(), readMem(), s.pipe.datagrams()
	s.fails.into(out)

	conns := float64(w.totalOps())
	out.attempted = w.totalOps()
	rate, cpu := w.perSlice()
	const bytesPerConn = 2 * churnMsgLen
	for i := range cpu {
		cpu[i] /= bytesPerConn
	}
	out.speed["msgs_per_s"] = sliceMedian(rate)
	out.speed["goodput_mbps"] = out.speed["msgs_per_s"] * bytesPerConn * 8 / 1e6
	out.speed["cpu_ns_per_byte"] = sliceMedian(cpu)
	firstUs := latencySummary(out, w, "Dial called → echo verified", first)
	out.e2e["alloc_bytes_per_conn"] = float64(mem1.totalAlloc-mem0.totalAlloc) / conns
	out.e2e["setup_s"] = median(setupS)
	countedWork(out, diffStats(st0, st1), mem0, mem1, conns)
	out.headline = out.speed["msgs_per_s"]
	out.cpuNs = float64(w.totalCPU())
	out.notes = append(out.notes,
		"fabric: in-memory fabric.Pipe (depth 16384), no kernel, not a real link",
		fmt.Sprintf("window %.2fs in %d slices: %d connections, whole-window %.1f conns/s; pipe drops %d",
			w.seconds(), w.slices, w.totalOps(), conns/w.seconds(), s.pipe.drops()))

	if o.tr != nil {
		stackLayers(out, diffStats(st0, st1), mem0, mem1, conns, conns)
		d := sortedCopy(dialUs)
		out.layer["udt.conns_per_s"] = out.headline
		out.layer["udt.dial_p50_us"] = percentile(d, 50)
		out.layer["udt.conn_setup_p99_us"] = percentile(d, 99)
		out.layer["udt.close_p50_us"] = median(closeUs)
		out.layer["udt.setup_work_ms"] = s.workMs
		out.layer["udt.msg_rtt_p99_us"] = percentile(firstUs, 99)
		spans := o.tr.all()
		out.layer["udt.write_block_p50_us"] = median(durationsUs(spans, "Write"))
		self := selfByName(spans)
		out.layer["udt.read_blocked_share"] = ratio(float64(self["Read"]), float64(self["Cycle"]+self["Dial"]+self["Write"]+self["Read"]+self["Close"]))
		ledgerLayers(out, s.ledger)
		out.layer["fabric.datagrams_per_conn"] = float64(dg1-dg0) / conns
		out.layer["fabric.drops"] = float64(s.pipe.drops())
		out.calls["conns"] = conns
		out.calls["payload_kb"] = conns * bytesPerConn / 1024
		out.calls["mux_dispatch"] = float64(dg1 - dg0)
		out.calls["pipe_hops"] = float64(dg1 - dg0)
	}
	return out, nil
}
