package chaos

import (
	"fmt"
	"math/rand"
	"net"

	"udt/internal/mux"
	"udt/internal/netem"
	"udt/internal/seqno"
)

// MuxConfig parameterizes one deterministic multiplexed chaos run: Flows
// bidirectional flow pairs share a single netem path, demultiplexed by
// pre-assigned socket IDs through one mux.Core per side — the same demux
// the production udt.Mux uses, driven under a virtual clock.
type MuxConfig struct {
	// Seed drives every random choice: payloads, ISNs, impairment draws.
	Seed int64
	// Flows is the number of concurrent flow pairs. Default 64.
	Flows int
	// PayloadPerFlow is how many bytes each side of each flow sends.
	// Default 2048.
	PayloadPerFlow int
	// MSS is the UDT packet size; the socket-ID prefix rides in front of
	// it on the wire. Default 576 (many engines → small buffers).
	MSS int
	// SndBufPkts and RcvBufPkts size each flow's buffers. Default 64.
	SndBufPkts, RcvBufPkts int
	// Link is applied to both directions before the run starts.
	Link netem.LinkConfig
	// MinEXP and PeerDeathTime tune failure detection, in µs; zero keeps
	// the core defaults.
	MinEXP, PeerDeathTime int64
	// Events are scripted faults, fired in At order.
	Events []Event
	// MaxVirtualTime aborts the run after this much virtual time, µs.
	// Default 120 s.
	MaxVirtualTime int64
	// CCs assigns congestion controllers per flow pair, cycled: flow i
	// (both directions) runs CCs[i%len(CCs)]. Empty means every flow runs
	// the native law. This is what lets one cell race two different laws
	// over the same impaired path under deterministic replay.
	CCs []string
}

func (c *MuxConfig) fill() {
	if c.Flows == 0 {
		c.Flows = 64
	}
	if c.PayloadPerFlow == 0 {
		c.PayloadPerFlow = 2048
	}
	if c.MSS == 0 {
		c.MSS = 576
	}
	if c.SndBufPkts == 0 {
		c.SndBufPkts = 64
	}
	if c.RcvBufPkts == 0 {
		c.RcvBufPkts = 64
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = 120_000_000
	}
}

// FlowResult is one flow pair's outcome.
type FlowResult struct {
	A, B PeerResult
	// CC names the congestion controller both directions of the flow ran
	// ("" = native).
	CC string
	// GoodputAMbps and GoodputBMbps are each direction's delivered rate
	// over the whole run (RecvBytes·8/Elapsed) — the per-flow share of the
	// link, which is what the controller-vs-controller fairness cells
	// compare.
	GoodputAMbps, GoodputBMbps float64
}

// MuxResult is the outcome of one multiplexed chaos run. Under the virtual
// clock it is a pure function of the MuxConfig — compare two same-seed
// MuxResults with reflect.DeepEqual to verify determinism.
type MuxResult struct {
	// OK reports every flow finished with matching checksums in both
	// directions.
	OK bool
	// TimedOut reports the run hit MaxVirtualTime before finishing.
	TimedOut bool
	// Elapsed is the virtual duration of the run, µs.
	Elapsed int64
	// FlowsOK counts flows whose both directions verified.
	FlowsOK int
	// Flows are the per-flow outcomes, in flow order.
	Flows []FlowResult
	// UnknownDestA/B and ShortA/B are each side's demultiplexer drop
	// counters; nonzero UnknownDest under impairment-free links indicates
	// a routing bug.
	UnknownDestA, ShortA uint64
	UnknownDestB, ShortB uint64
	// PathAB and PathBA are the fabric's impairment counters per direction.
	PathAB, PathBA netem.PathStats
}

// muxFlowPeer adapts one chaos peer to the demultiplexer: a dispatched
// datagram goes straight through the flow's endpoint at the clock's current
// instant (Dispatch's buffer is reused, and Deliver keeps nothing of it).
type muxFlowPeer struct {
	*Peer
	vc *netem.VirtualClock
}

// HandleDatagram implements mux.Flow.
func (f *muxFlowPeer) HandleDatagram(raw []byte) {
	if !f.Eng.Broken() {
		f.Deliver(f.vc.Now(), raw)
	}
}

// prefixedWriter returns an out hook that stamps dest into the socket-ID
// prefix the peer reserved ahead of every datagram — the multiplexed wire
// format.
func prefixedWriter(ep *netem.Endpoint, to net.Addr, dest int32) func([]byte) {
	return func(b []byte) {
		mux.PutDest(b, dest)
		ep.WriteTo(b, to) //nolint:errcheck // losses are the point
	}
}

// RunMux executes one multiplexed chaos run under a virtual clock: every
// flow's packets traverse the same impaired path, interleaved, and each
// side's mux.Core routes them back to the right engine by socket ID. It is
// fully deterministic: same MuxConfig, same MuxResult.
//
// Socket IDs are pre-assigned (side a's flow i speaks to side b's flow i),
// standing in for the extended-handshake exchange the production Mux
// performs; the run exercises the data-plane demux, not connection setup.
func RunMux(cfg MuxConfig) MuxResult {
	cfg.fill()
	vc := netem.NewVirtualClock(0)
	nw := netem.New(cfg.Seed, vc)
	rng := rand.New(rand.NewSource(cfg.Seed)) //nolint:gosec // reproducibility, not crypto

	epA, err := nw.Endpoint("a")
	if err != nil {
		panic(err) // fresh fabric: cannot collide
	}
	epB, _ := nw.Endpoint("b")
	nw.SetLink("a", "b", cfg.Link)

	// Every datagram in this harness is socket-ID-prefixed and there are no
	// handshakes: one that misses its flow is counted by the core, and the
	// result surfaces the counters.
	coreA := mux.NewCore(func([]byte, net.Addr) {})
	coreB := mux.NewCore(func([]byte, net.Addr) {})

	base := PeerOptions{
		MSS:           cfg.MSS,
		SndBufPkts:    cfg.SndBufPkts,
		RcvBufPkts:    cfg.RcvBufPkts,
		MinEXP:        cfg.MinEXP,
		PeerDeathTime: cfg.PeerDeathTime,
		Headroom:      mux.DestPrefix,
	}
	flowsA := make([]*Peer, cfg.Flows)
	flowsB := make([]*Peer, cfg.Flows)
	flowCC := make([]string, cfg.Flows)
	for i := 0; i < cfg.Flows; i++ {
		if len(cfg.CCs) > 0 {
			flowCC[i] = cfg.CCs[i%len(cfg.CCs)]
		}
		base.CC = flowCC[i]
		payA := make([]byte, cfg.PayloadPerFlow)
		rng.Read(payA) //nolint:errcheck // never fails
		payB := make([]byte, cfg.PayloadPerFlow)
		rng.Read(payB) //nolint:errcheck
		isnA := rng.Int31() & seqno.Max
		isnB := rng.Int31() & seqno.Max
		idA := mux.MakeID(int32(0x1000_0000 + i))
		idB := mux.MakeID(int32(0x2000_0000 + i))
		base.ISN, base.PeerISN, base.Payload, base.Expect = isnA, isnB, payA, payB
		base.Name, base.Out = fmt.Sprintf("a%d", i), prefixedWriter(epA, epB.LocalAddr(), idB)
		flowsA[i] = NewPeer(base)
		base.ISN, base.PeerISN, base.Payload, base.Expect = isnB, isnA, payB, payA
		base.Name, base.Out = fmt.Sprintf("b%d", i), prefixedWriter(epB, epA.LocalAddr(), idA)
		flowsB[i] = NewPeer(base)
		if !coreA.Register(idA, &muxFlowPeer{flowsA[i], vc}) || !coreB.Register(idB, &muxFlowPeer{flowsB[i], vc}) {
			panic(fmt.Sprintf("chaos: socket ID collision at flow %d", i))
		}
	}
	peers := append(append([]*Peer(nil), flowsA...), flowsB...)
	for _, p := range peers {
		p.Start(vc.Now())
	}

	res := MuxResult{Flows: make([]FlowResult, cfg.Flows)}
	rbuf := make([]byte, 65536)
	sides := [2]struct {
		ep    *netem.Endpoint
		core  *mux.Core
		flows []*Peer
	}{
		{epA, coreA, flowsA},
		{epB, coreB, flowsB},
	}
	res.TimedOut = Driver{
		Clock: vc, Net: nw, Events: cfg.Events, MaxVirtualTime: cfg.MaxVirtualTime,
		Pump: func(now int64) (progress bool) {
			for _, s := range sides {
				for {
					n, from, ok := s.ep.TryReadFrom(rbuf)
					if !ok {
						break
					}
					s.core.Dispatch(rbuf[:n], from)
					progress = true
				}
				for _, f := range s.flows {
					if f.Service(now) {
						progress = true
					}
				}
			}
			return progress
		},
		Done:     func(now int64) bool { return allDone(now, peers) },
		NextWake: func(bound int64) int64 { return nextWake(bound, peers) },
	}.Run()

	res.Elapsed = vc.Now()
	res.OK = !res.TimedOut
	for i := range res.Flows {
		fr := FlowResult{A: flowsA[i].Result(), B: flowsB[i].Result(), CC: flowCC[i]}
		if res.Elapsed > 0 {
			fr.GoodputAMbps = float64(fr.A.RecvBytes) * 8 / float64(res.Elapsed)
			fr.GoodputBMbps = float64(fr.B.RecvBytes) * 8 / float64(res.Elapsed)
		}
		res.Flows[i] = fr
		flowOK := flowsA[i].Finished() && flowsB[i].Finished() && fr.A.RecvOK && fr.B.RecvOK
		if flowOK {
			res.FlowsOK++
		} else {
			res.OK = false
		}
	}
	res.UnknownDestA, res.ShortA = coreA.Counters()
	res.UnknownDestB, res.ShortB = coreB.Counters()
	res.PathAB = nw.PathStats("a", "b")
	res.PathBA = nw.PathStats("b", "a")
	epA.Close() //nolint:errcheck
	epB.Close() //nolint:errcheck
	return res
}
