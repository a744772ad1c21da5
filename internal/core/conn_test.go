package core

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"udt/internal/flow"
	"udt/internal/packet"
	"udt/internal/seqno"
)

// ---- deterministic two-endpoint harness -------------------------------
//
// testLink couples two Conns through delayed, optionally lossy, in-memory
// pipes driven by a virtual microsecond clock. It doubles as executable
// documentation of how a transport drives the engine; internal/udtsim is
// the full-fidelity version of the same loop.

type testMsg struct {
	at   int64
	to   int // endpoint index
	data bool
	seq  int32
	plen int
	out  Out
}

type msgHeap []testMsg

func (h msgHeap) Len() int            { return len(h) }
func (h msgHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h msgHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x interface{}) { *h = append(*h, x.(testMsg)) }
func (h *msgHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type testEnd struct {
	conn *Conn
	snd  *SndBuffer
	rcv  *RcvBuffer
	got  []byte
}

type testLink struct {
	now   int64
	delay int64 // one-way, µs
	drop  func(from int, seq int32) bool
	// dropCtrl, when set, loses control packets the same way.
	dropCtrl func(from int, k OutKind) bool
	q        msgHeap
	ends     [2]*testEnd
	rng      *rand.Rand
}

func newTestLink(delay int64, cfg Config) *testLink {
	l := &testLink{delay: delay, rng: rand.New(rand.NewSource(7))}
	payload := cfg.MSS
	if payload == 0 {
		payload = 1500
	}
	payload -= packet.DataHeaderSize
	for i := range l.ends {
		c := cfg
		c.ISN = int32(1000 * (i + 1))
		peer := int32(1000 * (2 - i))
		conn := NewConn(c, peer)
		bufPkts := int(conn.Config().RecvBufPkts)
		e := &testEnd{
			conn: conn,
			snd:  NewSndBuffer(bufPkts, payload, c.ISN),
			rcv:  NewRcvBuffer(bufPkts, payload, peer),
		}
		rcv := e.rcv
		conn.AvailBuf = func() int32 { return rcv.Free() }
		conn.Start(0)
		l.ends[i] = e
	}
	return l
}

// pump advances virtual time until `until`, delivering messages, firing
// timers, and letting both endpoints send whenever the engine permits.
func (l *testLink) pump(until int64) {
	for l.now < until {
		// Next interesting instant. Send times only matter when a send could
		// actually happen; a window- or data-blocked endpoint must not pin
		// virtual time.
		next := until
		if len(l.q) > 0 && l.q[0].at < next {
			next = l.q[0].at
		}
		for i, e := range l.ends {
			if !e.conn.Closed() {
				if d := e.conn.NextTimer(); d < next {
					next = d
				}
				if st := e.conn.NextSendTime(); l.sendable(i) && st < next && st > l.now {
					next = st
				}
			}
		}
		if next < l.now {
			next = l.now
		}
		l.now = next
		// Deliver due messages.
		for len(l.q) > 0 && l.q[0].at <= l.now {
			m := heap.Pop(&l.q).(testMsg)
			l.deliver(m)
		}
		// Timers.
		for _, e := range l.ends {
			e.conn.Advance(l.now)
		}
		// Data path.
		for i := range l.ends {
			l.trySend(i)
		}
		// Control path.
		for i, e := range l.ends {
			for {
				o, ok := e.conn.PopOut()
				if !ok {
					break
				}
				if l.dropCtrl != nil && l.dropCtrl(i, o.Kind) {
					continue
				}
				heap.Push(&l.q, testMsg{at: l.now + l.delay, to: 1 - i, out: o})
			}
		}
		if l.now == next && next == until {
			break
		}
		if l.now == next && len(l.q) == 0 {
			// Nothing scheduled: jump to the earliest timer.
			jump := until
			for _, e := range l.ends {
				if !e.conn.Closed() {
					if d := e.conn.NextTimer(); d < jump && d > l.now {
						jump = d
					}
				}
			}
			l.now = jump
		}
	}
}

func (l *testLink) sendable(i int) bool {
	e := l.ends[i]
	return e.snd.Pending() > 0 || e.conn.sndLoss.Len() > 0
}

func (l *testLink) trySend(i int) {
	e := l.ends[i]
	for n := 0; n < 1000; n++ {
		newAvail := seqno.Cmp(e.snd.NextWriteSeq(), seqno.Inc(e.conn.CurSeq())) > 0
		seq, d := e.conn.NextSend(l.now, newAvail)
		if d != SendData && d != SendRetrans {
			return
		}
		pl, ok := e.snd.Packet(seq)
		plen := 0
		if ok {
			plen = len(pl)
		}
		if l.drop != nil && l.drop(i, seq) {
			continue // lost on the wire
		}
		heap.Push(&l.q, testMsg{at: l.now + l.delay, to: 1 - i, data: true, seq: seq, plen: plen})
	}
}

func (l *testLink) deliver(m testMsg) {
	e := l.ends[m.to]
	if m.data {
		if e.conn.HandleData(l.now, m.seq) {
			// Fetch payload from the sender's buffer (the "wire" carries
			// only metadata in this harness).
			peer := l.ends[1-m.to]
			if pl, ok := peer.snd.Packet(m.seq); ok {
				e.rcv.Store(m.seq, pl)
			}
		}
		l.drain(m.to)
		return
	}
	switch m.out.Kind {
	case OutACK:
		newly := e.conn.HandleACK(l.now, m.out.ACK)
		if newly > 0 {
			e.snd.Release(e.conn.SndLastAck())
		}
	case OutNAK:
		e.conn.HandleNAK(l.now, m.out.Losses)
	case OutACK2:
		e.conn.HandleACK2(l.now, m.out.AckID)
	case OutKeepAlive:
		e.conn.HandleKeepAlive(l.now)
	case OutShutdown:
		e.conn.HandleShutdown(l.now)
	}
}

func (l *testLink) drain(i int) {
	e := l.ends[i]
	buf := make([]byte, 4096)
	for {
		n := e.rcv.Read(buf)
		if n == 0 {
			return
		}
		e.got = append(e.got, buf[:n]...)
	}
}

// ---- tests -------------------------------------------------------------

func TestConnBulkTransferLossless(t *testing.T) {
	l := newTestLink(5000, Config{MSS: 1500}) // 10 ms RTT
	want := make([]byte, 200*1472)
	rand.New(rand.NewSource(1)).Read(want)
	l.ends[0].snd.Write(want)
	l.pump(3_000_000)
	if !bytes.Equal(l.ends[1].got, want) {
		t.Fatalf("delivered %d bytes, want %d (equal=%v)", len(l.ends[1].got), len(want), bytes.Equal(l.ends[1].got, want))
	}
	st := &l.ends[0].conn.Stats
	if st.PktsRetrans != 0 {
		t.Fatalf("lossless run retransmitted %d packets", st.PktsRetrans)
	}
	if l.ends[0].conn.Unacked() != 0 {
		t.Fatalf("unacked after completion: %d", l.ends[0].conn.Unacked())
	}
}

func TestConnTransferWithLoss(t *testing.T) {
	l := newTestLink(5000, Config{MSS: 1500})
	rng := rand.New(rand.NewSource(2))
	l.drop = func(from int, seq int32) bool {
		return from == 0 && rng.Intn(50) == 0 // 2% data loss
	}
	want := make([]byte, 300*1472)
	rand.New(rand.NewSource(3)).Read(want)
	l.ends[0].snd.Write(want)
	l.pump(20_000_000)
	if !bytes.Equal(l.ends[1].got, want) {
		t.Fatalf("delivered %d bytes, want %d", len(l.ends[1].got), len(want))
	}
	st0 := &l.ends[0].conn.Stats
	st1 := &l.ends[1].conn.Stats
	if st0.PktsRetrans == 0 {
		t.Fatal("loss run needs retransmissions")
	}
	if st1.NAKsSent == 0 || st0.NAKsRecv == 0 {
		t.Fatal("loss must trigger NAKs")
	}
	if st1.LossDetected == 0 {
		t.Fatal("receiver must detect losses")
	}
}

func TestConnBurstLossRecovered(t *testing.T) {
	l := newTestLink(2000, Config{MSS: 1500})
	dropped := 0
	l.drop = func(from int, seq int32) bool {
		// Drop a contiguous burst of 40 packets once.
		if from == 0 && seq >= 1100 && seq < 1140 && dropped < 40 {
			dropped++
			return true
		}
		return false
	}
	want := make([]byte, 500*1472)
	rand.New(rand.NewSource(4)).Read(want)
	l.ends[0].snd.Write(want)
	l.pump(30_000_000)
	if !bytes.Equal(l.ends[1].got, want) {
		t.Fatalf("delivered %d bytes, want %d", len(l.ends[1].got), len(want))
	}
	if l.ends[1].conn.Stats.LossEvents == 0 {
		t.Fatal("burst must register as loss event(s)")
	}
}

func TestConnDuplicateDelivery(t *testing.T) {
	l := newTestLink(1000, Config{MSS: 1500})
	c := l.ends[1].conn
	if !c.HandleData(10_000, 1000) {
		t.Fatal("first copy must be fresh")
	}
	if c.HandleData(10_050, 1000) {
		t.Fatal("duplicate must be rejected")
	}
	if c.Stats.PktsDup != 1 {
		t.Fatalf("dup count = %d", c.Stats.PktsDup)
	}
}

func TestConnWindowLimit(t *testing.T) {
	cfg := Config{MSS: 1500, MaxFlowWindow: 64}
	l := newTestLink(50_000, cfg) // 100 ms RTT: window binds before first ACK
	want := make([]byte, 2000*1472)
	rand.New(rand.NewSource(5)).Read(want)
	l.ends[0].snd.Write(want[:l.ends[0].snd.Free()*1472])
	l.pump(40_000)
	// Before any ACK returns (RTT = 100 ms), in-flight may not exceed the
	// initial slow-start window.
	if un := l.ends[0].conn.Unacked(); un > slowStartCwnd {
		t.Fatalf("unacked = %d, exceeds initial window %d", un, slowStartCwnd)
	}
	l.pump(5_000_000)
	if got := l.ends[1].got; len(got) == 0 {
		t.Fatal("nothing delivered")
	}
	if l.ends[0].conn.Stats.WindowLimited == 0 {
		t.Fatal("expected window-limited stalls on a high-BDP window-capped run")
	}
}

func TestConnFreezeAfterNAK(t *testing.T) {
	cfg := Config{MSS: 1500}
	c := NewConn(cfg, 500)
	c.Start(0)
	c.CC().SetPeriod(100)
	// Pretend we sent 100 packets.
	for i := 0; i < 100; i++ {
		c.NextSend(int64(i)*100, true)
	}
	now := int64(20_000)
	c.HandleNAK(now, []packet.Range{{Start: c.Config().ISN + 5, End: c.Config().ISN + 7}})
	if _, d := c.NextSend(now+1, true); d != WaitFrozen {
		t.Fatalf("decision = %v, want WaitFrozen", d)
	}
	if c.Stats.SndFreezes != 1 {
		t.Fatalf("freezes = %d", c.Stats.SndFreezes)
	}
	// After one SYN the retransmission must go first.
	seq, d := c.NextSend(now+DefaultSYN+1, true)
	if d != SendRetrans || seq != c.Config().ISN+5 {
		t.Fatalf("post-freeze send = %d,%v; want retrans of first loss", seq, d)
	}
}

func TestConnEXPBreaksDeadPeer(t *testing.T) {
	cfg := Config{MSS: 1500, MinEXP: 10_000, PeerDeathTime: 500_000}
	c := NewConn(cfg, 500)
	c.Start(0)
	c.NextSend(0, true) // one unacked packet, no peer response ever
	for now := int64(0); now < 60_000_000 && !c.Broken(); now += 5_000 {
		c.Advance(now)
	}
	if !c.Broken() {
		t.Fatal("connection must break after a silent peer")
	}
	if c.Stats.Timeouts == 0 {
		t.Fatal("EXP timeouts must fire before breaking")
	}
	// Broken connection refuses to send.
	if _, d := c.NextSend(61_000_000, true); d != WaitClosed {
		t.Fatalf("broken conn decision = %v", d)
	}
}

func TestConnEXPRetransmitsUnacked(t *testing.T) {
	cfg := Config{MSS: 1500, MinEXP: 10_000}
	c := NewConn(cfg, 500)
	c.Start(0)
	seq0, _ := c.NextSend(0, true)
	// The EXP interval is floored by the initial RTO (300 ms with the
	// 100 ms RTT seed), not by MinEXP.
	c.Advance(320_000)
	if c.Stats.Timeouts != 1 {
		t.Fatalf("timeouts = %d", c.Stats.Timeouts)
	}
	// The timeout freezes the sender for one SYN; afterwards the lost
	// packet must be retransmitted first.
	seq, d := c.NextSend(320_000+DefaultSYN+1, true)
	if d != SendRetrans || seq != seq0 {
		t.Fatalf("after EXP: %d,%v; want retrans of %d", seq, d, seq0)
	}
}

func TestConnKeepAliveWhenIdle(t *testing.T) {
	cfg := Config{MSS: 1500, MinEXP: 10_000}
	c := NewConn(cfg, 500)
	c.Start(0)
	c.Advance(320_000) // past the RTO-floored EXP interval
	found := false
	for {
		o, ok := c.PopOut()
		if !ok {
			break
		}
		if o.Kind == OutKeepAlive {
			found = true
		}
	}
	if !found {
		t.Fatal("idle EXP must emit a keep-alive")
	}
}

// TestKeepAliveDoesNotPostponeTailRescue pins the keep-alive livelock fix.
// The sender's last packet is lost, and so is every ACK2 after it, so the
// receiver last heard the sender before it sent its final ACK: the
// receiver's EXP deadline precedes the sender's. From then on the only
// packets the sender hears are the idle receiver's keep-alives. They prove
// the receiver alive, but they must not push back the sender's EXP
// deadline: that expiration is the only thing that retransmits a lost tail
// (no later packet exists to trigger a NAK). When keep-alives moved the
// deadline, each one landed on it — the receiver's keep-alive period is the
// sender's EXP interval, MinEXP on a short path — the sender stayed silent,
// and the receiver declared it dead after PeerDeathTime.
func TestKeepAliveDoesNotPostponeTailRescue(t *testing.T) {
	l := newTestLink(2_000, Config{MSS: 1500})
	snd, rcv := l.ends[0], l.ends[1]
	const pkts = 64 // several round trips: both RTT estimates converge first
	tail := snd.conn.Config().ISN + pkts - 1
	dropAt := int64(-1)
	l.drop = func(from int, seq int32) bool {
		if from == 0 && seq == tail && dropAt < 0 {
			dropAt = l.now
			return true
		}
		return false
	}
	l.dropCtrl = func(from int, k OutKind) bool { return from == 0 && k == OutACK2 && dropAt >= 0 }
	want := make([]byte, pkts*1472)
	rand.New(rand.NewSource(11)).Read(want)
	snd.snd.Write(want)

	for l.now < 10_000_000 && snd.conn.Stats.PktsRetrans == 0 && !rcv.conn.Broken() {
		l.pump(l.now + 1_000)
	}
	if rcv.conn.Broken() {
		t.Fatalf("receiver declared the sender dead at %dµs; the tail lost at %dµs was never retransmitted",
			l.now, dropAt)
	}
	// Two EXP intervals: the first expiration after the last ACK requeues
	// the tail; the second is slack for the deadline the ACK set.
	if limit := dropAt + 2*snd.conn.expInterval(); l.now > limit {
		t.Fatalf("tail lost at %dµs retransmitted at %dµs, after two EXP intervals (%dµs)", dropAt, l.now, limit)
	}
	l.pump(l.now + 100_000)
	if !bytes.Equal(rcv.got, want) {
		t.Fatalf("delivered %d of %d bytes after the rescue", len(rcv.got), len(want))
	}
}

// TestIdlePairStaysAlive pins the other half of the keep-alive fix: after a
// transfer both sides are idle and probe each other with keep-alives. When
// a keep-alive moved the EXP deadline, the side whose deadline came first
// kept postponing its peer's, so only that side ever sent one — and heard
// nothing back, and declared a live peer dead after PeerDeathTime.
func TestIdlePairStaysAlive(t *testing.T) {
	l := newTestLink(2_000, Config{MSS: 1500})
	l.ends[0].snd.Write(make([]byte, 10*1472))
	l.pump(20_000_000) // ≈ 4 × PeerDeathTime of idleness after the transfer
	for i, e := range l.ends {
		if e.conn.Broken() {
			t.Fatalf("idle end %d declared its live peer dead", i)
		}
	}
}

func TestConnACKAdvancesAndACK2Emitted(t *testing.T) {
	c := NewConn(Config{MSS: 1500}, 500)
	c.Start(0)
	for i := 0; i < 10; i++ {
		c.NextSend(int64(i), true)
	}
	isn := c.Config().ISN
	newly := c.HandleACK(1000, packet.ACK{AckID: 7, Seq: seqno.Add(isn, 4), RTT: 5000, AvailBuf: 100})
	if newly != 4 {
		t.Fatalf("newlyAcked = %d, want 4", newly)
	}
	if c.SndLastAck() != seqno.Add(isn, 4) {
		t.Fatalf("sndLastAck = %d", c.SndLastAck())
	}
	var gotACK2 bool
	for {
		o, ok := c.PopOut()
		if !ok {
			break
		}
		if o.Kind == OutACK2 && o.AckID == 7 {
			gotACK2 = true
		}
	}
	if !gotACK2 {
		t.Fatal("ACK must be answered with ACK2")
	}
	// Duplicate ACK: no further advance.
	if n := c.HandleACK(1100, packet.ACK{AckID: 8, Seq: seqno.Add(isn, 4)}); n != 0 {
		t.Fatalf("dup ACK acked %d", n)
	}
	// ACK beyond what was sent: ignored.
	if n := c.HandleACK(1200, packet.ACK{AckID: 9, Seq: seqno.Add(isn, 1000)}); n != 0 {
		t.Fatalf("rogue ACK acked %d", n)
	}
}

func TestConnNAKClampsRogueRanges(t *testing.T) {
	c := NewConn(Config{MSS: 1500}, 500)
	c.Start(0)
	for i := 0; i < 5; i++ {
		c.NextSend(int64(i), true)
	}
	isn := c.Config().ISN
	// Range reaching far beyond curSeq must be clamped to what was sent.
	c.HandleNAK(100, []packet.Range{{Start: seqno.Add(isn, 2), End: seqno.Add(isn, 500)}})
	seqs := map[int32]bool{}
	now := int64(1_000_000)
	for {
		s, ok := c.NextSend(now, false)
		if ok == WaitPacing {
			now = c.NextSendTime()
			continue
		}
		if ok != SendRetrans {
			break
		}
		seqs[s] = true
		now++
	}
	if len(seqs) != 3 { // isn+2, isn+3, isn+4
		t.Fatalf("retransmit set = %v, want 3 members", seqs)
	}
	// Entirely invalid range: ignored.
	c.HandleNAK(200, []packet.Range{{Start: seqno.Add(isn, 100), End: seqno.Add(isn, 200)}})
	if _, d := c.NextSend(now+2_000_000, false); d == SendRetrans {
		t.Fatal("invalid NAK queued retransmissions")
	}
}

func TestConnPacketPairSchedule(t *testing.T) {
	c := NewConn(Config{MSS: 1500, ISN: 15}, 500)
	c.Start(0)
	c.CC().SetPeriod(1000)
	var times []int64
	var seqs []int32
	now := int64(0)
	for len(seqs) < 4 {
		seq, d := c.NextSend(now, true)
		if d == SendData {
			seqs = append(seqs, seq)
			times = append(times, c.NextSendTime())
		}
		now = c.NextSendTime()
		if d != SendData {
			now++
		}
	}
	// seq 16 (multiple of 16) must not delay its successor.
	for i, s := range seqs {
		if s%16 == 0 && i+1 < len(times) {
			if times[i] > times[i-1] {
				t.Fatalf("pair start %d advanced the schedule: %v", s, times)
			}
		}
	}
}

func TestConnRTTMeasuredViaACKACK2(t *testing.T) {
	l := newTestLink(25_000, Config{MSS: 1500}) // 50 ms RTT
	want := make([]byte, 500*1472)
	rand.New(rand.NewSource(6)).Read(want)
	l.ends[0].snd.Write(want)
	l.pump(8_000_000)
	// The data receiver measures RTT from its ACKs' ACK2 echoes.
	rtt := l.ends[1].conn.RTT()
	if rtt < 40_000 || rtt > 80_000 {
		t.Fatalf("receiver RTT estimate = %d µs, want ≈50000", rtt)
	}
	// The sender learns RTT from the ACK field.
	rtt = l.ends[0].conn.RTT()
	if rtt < 40_000 || rtt > 80_000 {
		t.Fatalf("sender RTT estimate = %d µs, want ≈50000", rtt)
	}
}

func TestConnCloseEmitsShutdown(t *testing.T) {
	c := NewConn(Config{MSS: 1500}, 500)
	c.Start(0)
	c.Close()
	o, ok := c.PopOut()
	if !ok || o.Kind != OutShutdown {
		t.Fatalf("close emitted %v,%v", o, ok)
	}
	if !c.Closed() {
		t.Fatal("not closed")
	}
	c.Close() // idempotent
	if _, ok := c.PopOut(); ok {
		t.Fatal("second close emitted again")
	}
}

func TestConnShutdownFromPeer(t *testing.T) {
	l := newTestLink(1000, Config{MSS: 1500})
	l.ends[0].conn.Close()
	l.pump(100_000)
	if !l.ends[1].conn.Closed() {
		t.Fatal("peer did not observe shutdown")
	}
}

func TestConnBidirectional(t *testing.T) {
	l := newTestLink(5000, Config{MSS: 1500})
	a := make([]byte, 100*1472)
	b := make([]byte, 150*1472)
	rand.New(rand.NewSource(8)).Read(a)
	rand.New(rand.NewSource(9)).Read(b)
	l.ends[0].snd.Write(a)
	l.ends[1].snd.Write(b)
	l.pump(5_000_000)
	if !bytes.Equal(l.ends[1].got, a) {
		t.Fatalf("0→1 delivered %d/%d", len(l.ends[1].got), len(a))
	}
	if !bytes.Equal(l.ends[0].got, b) {
		t.Fatalf("1→0 delivered %d/%d", len(l.ends[0].got), len(b))
	}
}

func TestConnStatsConsistency(t *testing.T) {
	l := newTestLink(5000, Config{MSS: 1500})
	rng := rand.New(rand.NewSource(10))
	l.drop = func(from int, seq int32) bool { return from == 0 && rng.Intn(30) == 0 }
	want := make([]byte, 400*1472)
	rand.New(rand.NewSource(11)).Read(want)
	l.ends[0].snd.Write(want)
	l.pump(30_000_000)
	// The whole stream must arrive.
	if !bytes.Equal(l.ends[1].got, want) {
		t.Fatalf("delivered %d/%d bytes", len(l.ends[1].got), len(want))
	}
	// New-data sends = number of packets the stream packs into (payload is
	// MSS minus the data header).
	payload := 1500 - packet.DataHeaderSize
	wantPkts := int64((len(want) + payload - 1) / payload)
	st := &l.ends[0].conn.Stats
	if st.PktsSent != wantPkts {
		t.Fatalf("PktsSent = %d, want %d (new data only)", st.PktsSent, wantPkts)
	}
	if got := l.ends[1].conn.Stats.PktsRecv; got < wantPkts {
		t.Fatalf("receiver saw %d packets, want >= %d", got, wantPkts)
	}
}

// TestConnSoakRandomImpairment drives full transfers through random drop
// rates, delays and sizes, asserting the reliability invariant: every byte
// arrives intact and in order, no matter the loss pattern.
func TestConnSoakRandomImpairment(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			delay := int64(1000 + rng.Intn(50_000)) // 2-100 ms RTT
			dropPct := rng.Intn(8)                  // 0-7% loss
			size := (50 + rng.Intn(300)) * 1472     // 70-515 KB
			l := newTestLink(delay, Config{MSS: 1500, MinEXP: 50_000})
			dropRng := rand.New(rand.NewSource(seed + 100))
			l.drop = func(from int, seq int32) bool {
				return dropPct > 0 && dropRng.Intn(100) < dropPct
			}
			want := make([]byte, size)
			rand.New(rand.NewSource(seed + 200)).Read(want)
			l.ends[0].snd.Write(want)
			l.pump(120_000_000) // 2 virtual minutes
			if !bytes.Equal(l.ends[1].got, want) {
				t.Fatalf("drop=%d%% rtt=%dus size=%d: delivered %d/%d bytes",
					dropPct, 2*delay, size, len(l.ends[1].got), size)
			}
		})
	}
}

func TestZeroGapProbePairsClampToClockFloor(t *testing.T) {
	// Both halves of a §3.4 packet pair delivered in the same microsecond
	// — a batched read, or a genuinely fast virtual link — clamp to the
	// 1 µs clock floor: capacity reads as an upper bound (~1e6 pkts/s).
	// The arrival-speed window's burst amortization, not the pair probe,
	// is what keeps batched delivery from inflating the flow window.
	c := NewConn(Config{ISN: 5000}, 0)
	c.Start(0)
	c.HandleData(1000, 0)
	c.HandleData(1000, 1)
	if got := c.probe.Capacity(); got != 1e6 {
		t.Fatalf("zero-gap pair capacity = %d, want 1000000", got)
	}
}

// TestAckEmissionAllocs crosses the ACK paths with the arrival, burst and
// probe windows full — the state every flow is in after its first thousand
// packets, and the one in which the estimators' median filters used to sort
// on the heap three times per ACK: the periodic ACK with progress to report,
// the light ACK that HandleData emits every 64 packets, and the periodic
// tick with nothing to report.
func TestAckEmissionAllocs(t *testing.T) {
	const peerISN = 500
	c := NewConn(Config{}, peerISN)
	c.Start(0)
	syn := c.Config().SYN
	now, seq := int64(0), int32(peerISN)
	arrive := func(n int, gap int64) {
		for i := 0; i < n; i++ {
			now += gap
			if !c.HandleData(now, seq) {
				t.Fatalf("in-order packet %d not fresh", seq)
			}
			seq = seqno.Inc(seq)
		}
	}
	// drain answers every ACK with its ACK2, as a live peer would (an
	// unanswered ACK history grows toward its limit), and counts them.
	drain := func() (acks int) {
		for {
			o, ok := c.PopOut()
			if !ok {
				return acks
			}
			if o.Kind == OutACK {
				acks++
				c.HandleACK2(now, o.ACK.AckID)
			}
		}
	}
	periodic := func() {
		arrive(16, syn/16)
		c.Advance(now)
		if drain() != 1 {
			t.Fatal("periodic ACK with progress not emitted")
		}
	}
	for i := 0; i < 2*flow.DefaultProbeWindow; i++ {
		periodic() // one packet pair each: fills the probe window twice over
	}
	if c.arrival.Rate() <= 0 || c.burstArr.Rate() <= 0 || c.probe.Capacity() <= 0 {
		t.Fatalf("windows not warm: rate %d burst %d capacity %d", c.arrival.Rate(), c.burstArr.Rate(), c.probe.Capacity())
	}
	gate := func(name string, f func()) {
		t.Helper()
		a := testing.AllocsPerRun(200, f)
		t.Logf("%s: %.2f allocs/ACK tick", name, a)
		if a != 0 {
			t.Errorf("%s allocates, want 0", name)
		}
	}
	gate("periodic ACK with progress", periodic)
	light := func() {
		arrive(64, 1)
		if drain() != 1 {
			t.Fatal("light ACK not emitted on the 64th packet")
		}
	}
	gate("light ACK from HandleData", light)
	idle := func() {
		now += syn
		c.HandleKeepAlive(now) // the peer stays alive; EXP never fires
		c.Advance(now)
		if drain() != 0 {
			t.Fatal("ACK emitted with nothing to report")
		}
	}
	gate("ACK tick without progress", idle)
}
