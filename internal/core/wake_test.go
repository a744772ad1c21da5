package core

import (
	"fmt"
	"testing"

	"udt/internal/packet"
)

// wakeTarget names which deadline a wake-table row must wake at.
type wakeTarget int

const (
	wakeNow       wakeTarget = iota // a packet was claimed: service again at once
	wakeTimer                       // the earliest of the four timers (NextTimer)
	wakeEXP                         // parked: the EXP deadline alone
	wakeSendTime                    // the pacing schedule (NextSendTime)
	wakeFreezeEnd                   // the end of the loss-event freeze
)

// TestWakeRule is the one wake rule as a table: every SendDecision ×
// quiescent or not × unsent data or not that the engine can reach, and the
// deadline Endpoint.ClaimBurst returns for it — the deadline every shell
// sleeps on. Only a quiescent flow with nothing unsent parks past its next
// SYN tick; a paced or frozen sender with unsent data is woken for its §3.3
// rate tick even with nothing in flight.
func TestWakeRule(t *testing.T) {
	const (
		isn    = int32(100)
		period = 50_000 // pacing gap well past the first SYN tick
	)
	// Builders put a fresh endpoint (started at 0, timers at SYN = 10 ms,
	// EXP ≈ 310 ms) into a state and return the instant to claim at.
	write := func(e *Endpoint, pkts int) {
		e.Snd.Write(make([]byte, pkts*(e.mss-packet.DataHeaderSize)))
	}
	claim := func(e *Endpoint, now int64, pkts int) {
		scratch, lens := make([]byte, e.mss), make([]int, 1)
		for i := 0; i < pkts; i++ {
			if n, _, d := e.ClaimBurst(now, 0, scratch, lens); n != 1 {
				t.Fatalf("setup claim %d: decision %v", i, d)
			}
		}
	}
	drain := func(e *Endpoint) {
		for _, ok := e.Eng.PopOut(); ok; _, ok = e.Eng.PopOut() {
		}
	}
	ackAll := func(e *Endpoint, now int64) {
		e.Eng.HandleACK(now, packet.ACK{AckID: 1, Seq: e.Eng.CurSeq() + 1, AvailBuf: 64})
		e.Snd.Release(e.Eng.SndLastAck())
		drain(e) // the ACK2
	}
	paced := func(e *Endpoint, inFlight, queued int, acked bool) int64 {
		write(e, inFlight+queued)
		e.Eng.CC().SetPeriod(period)
		claim(e, 1_000, inFlight)
		if acked {
			ackAll(e, 2_000)
		}
		return 3_000
	}
	frozen := func(e *Endpoint, inFlight, queued int, acked bool) int64 {
		write(e, inFlight+queued)
		claim(e, 1_000, inFlight)
		e.Eng.HandleNAK(1_000, []packet.Range{{Start: isn, End: isn}}) // freezes to 1 000 + SYN
		if acked {
			ackAll(e, 2_000)
		}
		return 3_000
	}
	closed := func(e *Endpoint, queued int) int64 {
		write(e, queued)
		e.Eng.Close()
		drain(e) // the Shutdown
		return 3_000
	}
	retrans := func(e *Endpoint, queued int) int64 {
		frozen(e, 2, queued, false)
		return 1_000 + DefaultSYN // the freeze is over; the loss goes first
	}

	rows := []struct {
		d         SendDecision
		quiescent bool
		unsent    bool
		setup     func(e *Endpoint) int64
		want      wakeTarget
	}{
		{SendData, true, true, func(e *Endpoint) int64 { write(e, 1); return 1_000 }, wakeNow},
		{SendData, false, true, func(e *Endpoint) int64 { write(e, 2); claim(e, 1_000, 1); return 1_000 }, wakeNow},
		{SendRetrans, false, true, func(e *Endpoint) int64 { return retrans(e, 1) }, wakeNow},
		{SendRetrans, false, false, func(e *Endpoint) int64 { return retrans(e, 0) }, wakeNow},
		{WaitPacing, true, true, func(e *Endpoint) int64 { return paced(e, 1, 1, true) }, wakeTimer},
		{WaitPacing, true, false, func(e *Endpoint) int64 { return paced(e, 1, 0, true) }, wakeSendTime},
		{WaitPacing, false, true, func(e *Endpoint) int64 { return paced(e, 1, 1, false) }, wakeTimer},
		{WaitPacing, false, false, func(e *Endpoint) int64 { return paced(e, 1, 0, false) }, wakeTimer},
		{WaitWindow, false, true, func(e *Endpoint) int64 { write(e, slowStartCwnd+1); claim(e, 1_000, slowStartCwnd); return 1_000 }, wakeTimer},
		{WaitWindow, false, false, func(e *Endpoint) int64 { write(e, slowStartCwnd); claim(e, 1_000, slowStartCwnd); return 1_000 }, wakeTimer},
		{WaitData, true, false, func(e *Endpoint) int64 { return 1_000 }, wakeEXP},
		{WaitData, false, false, func(e *Endpoint) int64 { write(e, 1); claim(e, 1_000, 1); return 1_000 }, wakeTimer},
		{WaitFrozen, true, true, func(e *Endpoint) int64 { return frozen(e, 2, 1, true) }, wakeTimer},
		{WaitFrozen, true, false, func(e *Endpoint) int64 { return frozen(e, 2, 0, true) }, wakeFreezeEnd},
		{WaitFrozen, false, true, func(e *Endpoint) int64 { return frozen(e, 2, 1, false) }, wakeTimer},
		{WaitFrozen, false, false, func(e *Endpoint) int64 { return frozen(e, 2, 0, false) }, wakeTimer},
		{WaitClosed, false, true, func(e *Endpoint) int64 { return closed(e, 1) }, wakeTimer},
		{WaitClosed, false, false, func(e *Endpoint) int64 { return closed(e, 0) }, wakeTimer},
	}
	// The other ten combinations cannot occur: SendData needs unsent data
	// and WaitData its absence; a retransmission, a full window or a closed
	// engine is never quiescent.
	unreachable := func(d SendDecision, q, u bool) bool {
		return (d == SendData && !u) || (d == WaitData && u) ||
			(q && (d == SendRetrans || d == WaitWindow || d == WaitClosed))
	}
	covered := map[string]bool{}
	for _, r := range rows {
		covered[fmt.Sprint(r.d, r.quiescent, r.unsent)] = true
	}
	for d := SendData; d <= WaitClosed; d++ {
		for _, q := range []bool{false, true} {
			for _, u := range []bool{false, true} {
				if covered[fmt.Sprint(d, q, u)] == unreachable(d, q, u) {
					t.Errorf("decision %v quiescent=%v unsent=%v: covered=%v, unreachable=%v",
						d, q, u, covered[fmt.Sprint(d, q, u)], unreachable(d, q, u))
				}
			}
		}
	}

	for _, r := range rows {
		name := fmt.Sprintf("d=%v/quiescent=%v/unsent=%v", r.d, r.quiescent, r.unsent)
		t.Run(name, func(t *testing.T) {
			ep := NewEndpoint(EndpointConfig{Engine: Config{ISN: isn}, PeerISN: 500, SndBufPkts: 64, RcvBufPkts: 64})
			e := &ep
			e.Eng.Start(0)
			now := r.setup(e)
			e.Eng.Advance(now) // as every shell does before it claims
			unsent := e.Snd.NextWriteSeq() != e.Eng.CurSeq()+1
			quiescent := e.Eng.Quiescent()
			exp, timer := e.Eng.tEXP, e.Eng.NextTimer()
			n, wake, d := e.ClaimBurst(now, 0, make([]byte, e.mss), make([]int, 1))
			if d != r.d || quiescent != r.quiescent || unsent != r.unsent {
				t.Fatalf("setup reached d=%v quiescent=%v unsent=%v", d, quiescent, unsent)
			}
			if sends := d == SendData || d == SendRetrans; sends != (n == 1) {
				t.Fatalf("claimed %d packets on %v", n, d)
			}
			want := map[wakeTarget]int64{
				wakeNow: now, wakeTimer: timer, wakeEXP: exp,
				wakeSendTime: e.Eng.NextSendTime(), wakeFreezeEnd: e.Eng.Controller().FreezeEnd(),
			}[r.want]
			if wake != want {
				t.Fatalf("wake = %d, want %d (timers %d, EXP %d, send time %d, freeze end %d)",
					wake, want, timer, exp, e.Eng.NextSendTime(), e.Eng.Controller().FreezeEnd())
			}
			// What the rule is for: only a quiescent flow with nothing unsent
			// sleeps through its next rate tick.
			if (!quiescent || unsent) && wake > e.Eng.tSYN {
				t.Fatalf("wake %d skips the SYN tick at %d", wake, e.Eng.tSYN)
			}
		})
	}
}

// TestNoSendBeforeStart: an engine that has not been started transmits
// nothing, whatever the application queued — a campaign flow whose arrival
// is scheduled later must not send its slow-start window at construction.
// Start releases it.
func TestNoSendBeforeStart(t *testing.T) {
	ep := NewEndpoint(EndpointConfig{Engine: Config{ISN: 7}, PeerISN: 9, SndBufPkts: 16, RcvBufPkts: 16})
	ep.Snd.Write(make([]byte, 4*(ep.mss-packet.DataHeaderSize)))
	scratch, lens := make([]byte, 4*ep.mss), make([]int, 4)
	if n, _, d := ep.ClaimBurst(0, 0, scratch, lens); n != 0 || d != WaitClosed {
		t.Fatalf("before Start: claimed %d packets, decision %v; want 0, WaitClosed", n, d)
	}
	if s := ep.Eng.Stats; s.PktsSent != 0 || ep.Eng.CurSeq() != 6 {
		t.Fatalf("before Start the engine committed sequence numbers: sent=%d cur=%d", s.PktsSent, ep.Eng.CurSeq())
	}
	ep.Eng.Start(1_000)
	if n, _, _ := ep.ClaimBurst(1_000, 0, scratch, lens); n == 0 {
		t.Fatal("Start did not release the queued data")
	}
}
