package udt_test

import (
	"math"
	"testing"
	"time"

	"udt"
	"udt/internal/core"
	"udt/internal/mux"
	"udt/internal/netem/chaos"
	"udt/internal/packet"
)

// TestPeerSleepsLikeRunTask: the virtual-clock harness and the shipped
// scheduler get the same wake from the same engine state. Each row puts a
// connection's endpoint into a state, runs one udt.Conn sender service
// (runTask) and then one chaos.Peer service over that same endpoint, and
// compares where each would sleep until. With a 1 s SYN every deadline is
// at least the ≈300 ms EXP floor away, so the microseconds of wall clock
// between the two services cannot cross one.
func TestPeerSleepsLikeRunTask(t *testing.T) {
	const syn = time.Second
	write := func(ep *core.Endpoint, pkts int) {
		ep.Snd.Write(make([]byte, pkts*(1472-packet.DataHeaderSize)))
	}
	claim := func(ep *core.Endpoint, now int64, pkts int) {
		scratch, lens := make([]byte, mux.DestPrefix+1472), make([]int, 1)
		for i := 0; i < pkts; i++ {
			if n, _, d := ep.ClaimBurst(now, 0, scratch, lens); n != 1 {
				t.Fatalf("setup claim %d: decision %v", i, d)
			}
		}
	}
	ackAll := func(ep *core.Endpoint, now int64) {
		ep.Eng.HandleACK(now, packet.ACK{AckID: 1, Seq: ep.Eng.CurSeq() + 1, AvailBuf: 64})
		ep.Snd.Release(ep.Eng.SndLastAck())
	}
	nak := func(ep *core.Endpoint, now int64) {
		ep.Eng.HandleNAK(now, []packet.Range{{Start: ep.Eng.SndLastAck(), End: ep.Eng.SndLastAck()}})
	}
	rows := []struct {
		name  string
		setup func(ep *core.Endpoint, now int64)
	}{
		{"never sent", func(ep *core.Endpoint, now int64) {}},
		{"idle after an exchange", func(ep *core.Endpoint, now int64) {
			write(ep, 1)
			claim(ep, now, 1)
			ackAll(ep, now)
		}},
		{"in flight, nothing unsent", func(ep *core.Endpoint, now int64) {
			write(ep, 1)
			claim(ep, now, 1)
		}},
		{"window full", func(ep *core.Endpoint, now int64) {
			write(ep, 17)
			claim(ep, now, 16)
		}},
		// Sequence 0 heads a packet pair, so the pacing gap opens after
		// the second packet.
		{"paced, unsent data, nothing in flight", func(ep *core.Endpoint, now int64) {
			write(ep, 3)
			ep.Eng.CC().SetPeriod(float64(3 * syn.Microseconds()))
			claim(ep, now, 2)
			ackAll(ep, now)
		}},
		{"paced, unsent data, in flight", func(ep *core.Endpoint, now int64) {
			write(ep, 3)
			ep.Eng.CC().SetPeriod(float64(3 * syn.Microseconds()))
			claim(ep, now, 2)
		}},
		{"frozen, unsent data, nothing in flight", func(ep *core.Endpoint, now int64) {
			write(ep, 3)
			claim(ep, now, 2)
			nak(ep, now)
			ackAll(ep, now)
		}},
		{"frozen, in flight", func(ep *core.Endpoint, now int64) {
			write(ep, 2)
			claim(ep, now, 2)
			nak(ep, now)
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			c := udt.NewParkedConn(udt.Config{SYN: syn})
			ep := c.Endpoint()
			r.setup(ep, c.ClockNow())
			conn := c.RunTask()

			p := chaos.NewPeer(chaos.PeerOptions{Headroom: mux.DestPrefix, Out: func([]byte) {}})
			p.Endpoint = *ep // the same engine, buffers and sealing state
			now := c.ClockNow()
			p.Service(now)
			peer := p.NextWake(math.MaxInt64)
			if conn != peer {
				t.Fatalf("runTask parks until %d, Peer sleeps until %d", conn, peer)
			}
			if peer <= now {
				t.Fatalf("wake %d is not in the future of %d: a wait state was expected", peer, now)
			}
		})
	}
}
