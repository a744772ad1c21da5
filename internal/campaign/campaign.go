package campaign

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"udt/internal/netem"
	"udt/internal/netem/chaos"
	"udt/internal/seqno"
	"udt/internal/trace"
)

// routerInboxPkts sizes router endpoints' receive queues: big enough that
// the bounded tail-drop queues of the rate-capped links — not the emulated
// socket buffer — are where congestion shows up.
const routerInboxPkts = 65536

// FlowSpec is one unidirectional transfer: Src opens a connection to Dst,
// sends Payload bytes under the named congestion-control law, starting at
// StartAt µs of virtual time.
type FlowSpec struct {
	// Src and Dst are leaf node names in the topology.
	Src, Dst string
	// CC names the congestion controller ("native", "ctcp", "bbrlite", ...);
	// empty selects the native law.
	CC string
	// Payload is the transfer size in bytes.
	Payload int
	// StartAt is the flow's arrival time, µs of virtual time.
	StartAt int64
}

// Spec declares one campaign: a topology, the flows crossing it, and the
// engine/measurement parameters. Run(spec) is a pure function of the Spec —
// same seed, same Report bytes.
type Spec struct {
	// Name labels the campaign in reports and metric keys.
	Name string
	// Seed drives every random draw: payload bytes, ISNs, impairments.
	Seed int64
	// Topology is the node graph the flows run over.
	Topology *Topology
	// Flows are the transfers; index is the flow ID in reports.
	Flows []FlowSpec
	// MSS is the UDT packet size (the routing header rides outside it).
	// Default 576 — many engines, small buffers, like the mux harness.
	MSS int
	// SndBufPkts and RcvBufPkts size each flow's buffers. Default 64.
	SndBufPkts, RcvBufPkts int
	// MinEXP and PeerDeathTime tune failure detection, µs (0 = defaults).
	MinEXP, PeerDeathTime int64
	// MaxVirtualTime aborts the campaign after this much virtual time, µs.
	// Default 120 s.
	MaxVirtualTime int64
	// SampleEveryUs is the link queue-occupancy sampling period. Default
	// 10 000 (one SYN).
	SampleEveryUs int64
	// PerfEverySYN is the engine telemetry cadence in SYN ticks. Default 1
	// (every SYN — short flows still get a few samples).
	PerfEverySYN int
	// Events are scripted mid-campaign faults, fired in At order.
	Events []chaos.Event
}

func (s *Spec) fill() {
	if s.MSS == 0 {
		s.MSS = 576
	}
	if s.SndBufPkts == 0 {
		s.SndBufPkts = 64
	}
	if s.RcvBufPkts == 0 {
		s.RcvBufPkts = 64
	}
	if s.MaxVirtualTime == 0 {
		s.MaxVirtualTime = 120_000_000
	}
	if s.SampleEveryUs == 0 {
		s.SampleEveryUs = 10_000
	}
	if s.PerfEverySYN == 0 {
		s.PerfEverySYN = 1
	}
}

// FlashCrowd sets every flow's arrival to the same instant.
func FlashCrowd(flows []FlowSpec, at int64) []FlowSpec {
	for i := range flows {
		flows[i].StartAt = at
	}
	return flows
}

// Staggered spaces arrivals evenly: flow i starts at start + i·gap.
func Staggered(flows []FlowSpec, start, gap int64) []FlowSpec {
	for i := range flows {
		flows[i].StartAt = start + int64(i)*gap
	}
	return flows
}

// PoissonArrivals draws exponentially distributed inter-arrival gaps with
// the given mean (µs) from a dedicated seeded source, so arrival patterns
// replay deterministically and independently of the campaign's other draws.
func PoissonArrivals(flows []FlowSpec, seed int64, start, meanGap int64) []FlowSpec {
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // reproducibility, not crypto
	at := start
	for i := range flows {
		flows[i].StartAt = at
		at += int64(rng.ExpFloat64() * float64(meanGap))
	}
	return flows
}

// AssignCC cycles the given law names across the flows: flow i runs
// ccs[i%len(ccs)] — the mixed-law population of a fairness campaign.
func AssignCC(flows []FlowSpec, ccs ...string) []FlowSpec {
	if len(ccs) == 0 {
		return flows
	}
	for i := range flows {
		flows[i].CC = ccs[i%len(ccs)]
	}
	return flows
}

// AssignPayload sets every flow's transfer size.
func AssignPayload(flows []FlowSpec, bytes int) []FlowSpec {
	for i := range flows {
		flows[i].Payload = bytes
	}
	return flows
}

// flowState is one running flow: the initiating (sending) peer at Src, the
// responding (receiving) peer at Dst, and the bookkeeping the driver needs.
type flowState struct {
	spec      FlowSpec
	initiator *chaos.Peer
	responder *chaos.Peer
	started   bool
	doneAt    int64 // first instant both sides were finished; -1 while running
}

// leaf binds a peer to the endpoint it drains and the wire index it
// accepts datagrams for.
type leaf struct {
	peer *chaos.Peer
	ep   *netem.Endpoint
	idx  uint16
}

// Run executes one campaign under a virtual clock and returns its Report
// (plus the Monitor holding the full per-flow/per-link series). It is fully
// deterministic: same Spec, byte-identical Report.
func Run(spec Spec) (*Report, *Monitor, error) {
	spec.fill()
	topo := spec.Topology
	if topo == nil {
		return nil, nil, fmt.Errorf("campaign: nil topology")
	}
	if err := topo.validate(spec.Flows); err != nil {
		return nil, nil, err
	}
	if len(topo.nodes) > 1<<16 {
		return nil, nil, fmt.Errorf("campaign: %d nodes exceed the %d-node header space", len(topo.nodes), 1<<16)
	}

	vc := netem.NewVirtualClock(0)
	nw := netem.New(spec.Seed, vc)
	rng := rand.New(rand.NewSource(spec.Seed)) //nolint:gosec // reproducibility, not crypto

	// Endpoints: leaves (flow endpoints) get the default inbox, routers get
	// deep ones so queueing concentrates in the link queues under test.
	isLeaf := make(map[string]bool, 2*len(spec.Flows))
	for _, f := range spec.Flows {
		isLeaf[f.Src] = true
		isLeaf[f.Dst] = true
	}
	eps := make(map[string]*netem.Endpoint, len(topo.nodes))
	for _, n := range topo.nodes {
		buf := 0 // default
		if !isLeaf[n] {
			buf = routerInboxPkts
		}
		ep, err := nw.EndpointBuf(n, buf)
		if err != nil {
			return nil, nil, err
		}
		eps[n] = ep
	}
	for _, l := range topo.links {
		nw.SetLink(l.a, l.b, l.cfg)
	}
	hops := topo.routes()

	monitor := newMonitor(len(spec.Flows), topo)

	// Build the flows. All random draws happen here, in flow order, so the
	// draw sequence is a function of the Spec alone.
	flows := make([]*flowState, len(spec.Flows))
	var leaves []leaf
	for i, f := range spec.Flows {
		payload := make([]byte, f.Payload)
		rng.Read(payload) //nolint:errcheck // never fails
		isnI := rng.Int31() & seqno.Max
		isnR := rng.Int31() & seqno.Max
		base := chaos.PeerOptions{
			MSS:           spec.MSS,
			SndBufPkts:    spec.SndBufPkts,
			RcvBufPkts:    spec.RcvBufPkts,
			MinEXP:        spec.MinEXP,
			PeerDeathTime: spec.PeerDeathTime,
			CC:            f.CC,
			Headroom:      hdrSize,
		}
		iOpts := base
		iOpts.Name = fmt.Sprintf("%s→%s#%d", f.Src, f.Dst, i)
		iOpts.ISN, iOpts.PeerISN = isnI, isnR
		iOpts.Payload = payload
		iOpts.TrackAckLatency = true
		initiator := chaos.NewPeer(iOpts)
		rOpts := base
		rOpts.Name = fmt.Sprintf("%s←%s#%d", f.Dst, f.Src, i)
		rOpts.ISN, rOpts.PeerISN = isnR, isnI
		rOpts.Expect = payload
		responder := chaos.NewPeer(rOpts)

		initiator.SetOut(hopWriter(eps[f.Src], eps[hops[f.Src][f.Dst]], uint16(topo.index[f.Dst])))
		responder.SetOut(hopWriter(eps[f.Dst], eps[hops[f.Dst][f.Src]], uint16(topo.index[f.Src])))
		initiator.AttachPerf(monitor, spec.PerfEverySYN, int32(i), f.CC, trace.RoleSender)
		responder.AttachPerf(monitor, spec.PerfEverySYN, int32(i), f.CC, trace.RoleReceiver)

		flows[i] = &flowState{spec: f, initiator: initiator, responder: responder, doneAt: -1}
		leaves = append(leaves,
			leaf{peer: initiator, ep: eps[f.Src], idx: uint16(topo.index[f.Src])},
			leaf{peer: responder, ep: eps[f.Dst], idx: uint16(topo.index[f.Dst])},
		)
	}

	// Routers forward in sorted-name order each round — deterministic.
	var routers []string
	for _, n := range topo.nodes {
		if !isLeaf[n] {
			routers = append(routers, n)
		}
	}
	sort.Strings(routers)

	// Arrival schedule: indices of flows not yet started, in StartAt order.
	arrivals := make([]int, len(flows))
	for i := range arrivals {
		arrivals[i] = i
	}
	sort.SliceStable(arrivals, func(a, b int) bool {
		return flows[arrivals[a]].spec.StartAt < flows[arrivals[b]].spec.StartAt
	})

	rep := &Report{Name: spec.Name, Seed: spec.Seed}
	rbuf := make([]byte, 65536)
	var misrouted, unroutable int64
	nextSample := int64(0)
	pump := func(now int64) (progress bool) {
		for len(arrivals) > 0 && flows[arrivals[0]].spec.StartAt <= now {
			fl := flows[arrivals[0]]
			arrivals = arrivals[1:]
			fl.initiator.Start(now)
			fl.responder.Start(now)
			fl.started = true
			progress = true
		}
		// Router hop: re-offer each queued datagram onto its next link, so
		// it picks up that link's delay/loss/queue on the way.
		for _, rt := range routers {
			ep := eps[rt]
			for {
				n, _, ok := ep.TryReadFrom(rbuf)
				if !ok {
					break
				}
				progress = true
				if n < hdrSize {
					unroutable++
					continue
				}
				dst := binary.BigEndian.Uint16(rbuf)
				if int(dst) >= len(topo.nodes) {
					unroutable++
					continue
				}
				nh, ok := hops[rt][topo.nodes[dst]]
				if !ok {
					unroutable++
					continue
				}
				ep.WriteTo(rbuf[:n], eps[nh].LocalAddr()) //nolint:errcheck // losses are the point
			}
		}
		// Leaf drains + engine service.
		for _, lf := range leaves {
			for {
				n, _, ok := lf.ep.TryReadFrom(rbuf)
				if !ok {
					break
				}
				progress = true
				if n < hdrSize || binary.BigEndian.Uint16(rbuf) != lf.idx {
					misrouted++
					continue
				}
				lf.peer.Deliver(now, rbuf[hdrSize:n])
			}
			if lf.peer.Service(now) {
				progress = true
			}
		}
		// Measurement tick.
		for now >= nextSample {
			monitor.sampleLinks(now, nw)
			nextSample += spec.SampleEveryUs
		}
		return progress
	}
	done := func(now int64) bool {
		done := len(arrivals) == 0
		for _, fl := range flows {
			if !fl.started {
				continue
			}
			iDead := fl.initiator.NoteBroken(now)
			rDead := fl.responder.NoteBroken(now)
			if fl.doneAt < 0 {
				switch {
				case fl.initiator.Finished() && fl.responder.Finished():
					fl.doneAt = now
				case iDead && rDead:
					// both ends gave up: over, unsuccessfully
				default:
					done = false // still running, or the survivor must still detect the death
				}
			}
		}
		return done
	}
	nextWake := func(wake int64) int64 {
		if len(arrivals) > 0 && flows[arrivals[0]].spec.StartAt < wake {
			wake = flows[arrivals[0]].spec.StartAt
		}
		if nextSample < wake {
			wake = nextSample
		}
		for _, fl := range flows {
			if !fl.started || fl.doneAt >= 0 {
				continue
			}
			wake = fl.initiator.NextWake(wake)
			wake = fl.responder.NextWake(wake)
		}
		return wake
	}
	rep.TimedOut = chaos.Driver{
		Clock: vc, Net: nw, Events: spec.Events, MaxVirtualTime: spec.MaxVirtualTime,
		Pump: pump, Done: done, NextWake: nextWake,
	}.Run()

	rep.ElapsedUs = vc.Now()
	rep.Misrouted = misrouted
	rep.Unroutable = unroutable
	buildFlowReports(rep, flows)
	buildLinkReports(rep, monitor, nw)
	summarize(rep)
	rep.OK = !rep.TimedOut && rep.Summary.FlowsOK == len(rep.Flows) && misrouted == 0 && unroutable == 0
	for _, n := range topo.nodes {
		eps[n].Close() //nolint:errcheck
	}
	return rep, monitor, nil
}

// hopWriter returns a Peer out hook that stamps the destination node index
// into the header the peer reserved and offers the datagram to the first
// hop — the origin half of the campaign routing shim.
func hopWriter(ep *netem.Endpoint, firstHop *netem.Endpoint, dst uint16) func([]byte) {
	to := firstHop.LocalAddr()
	return func(b []byte) {
		binary.BigEndian.PutUint16(b, dst)
		ep.WriteTo(b, to) //nolint:errcheck // losses are the point
	}
}

// buildFlowReports fills rep.Flows from the final peer states.
func buildFlowReports(rep *Report, flows []*flowState) {
	rep.Flows = make([]FlowReport, len(flows))
	for i, fl := range flows {
		ir := fl.initiator.Result()
		rr := fl.responder.Result()
		fr := FlowReport{
			ID:        i,
			Src:       fl.spec.Src,
			Dst:       fl.spec.Dst,
			CC:        ccName(fl.spec.CC),
			StartAtUs: fl.spec.StartAt,
			DoneAtUs:  fl.doneAt,
			SentBytes: ir.SentBytes,
			RecvBytes: rr.RecvBytes,
			RecvOK:    rr.RecvOK,
			Retrans:   ir.Stats.PktsRetrans,
			Timeouts:  ir.Stats.Timeouts,
			Broken:    ir.Broken || rr.Broken,
		}
		if fl.doneAt > fl.spec.StartAt && rr.RecvOK {
			fr.GoodputMbps = float64(rr.RecvBytes) * 8 / float64(fl.doneAt-fl.spec.StartAt) // bits/µs ≡ Mb/s
		}
		fr.P99AckUs = p99(fl.initiator.AckLatencies())
		rep.Flows[i] = fr
	}
}

// ccName maps the empty controller name to its effective law.
func ccName(cc string) string {
	if cc == "" {
		return "native"
	}
	return cc
}

// buildLinkReports fills rep.Links from the fabric counters and the
// monitor's queue series, in the monitor's sorted direction order.
func buildLinkReports(rep *Report, m *Monitor, nw *netem.Net) {
	rep.Links = make([]LinkReport, len(m.links))
	for i := range m.links {
		ls := &m.links[i]
		st := nw.PathStats(ls.from, ls.to)
		rep.Links[i] = LinkReport{
			From:             ls.from,
			To:               ls.to,
			Offered:          st.Offered,
			Delivered:        st.Delivered,
			Lost:             st.Lost,
			DroppedQueue:     st.DroppedQueue,
			DroppedInboxFull: st.DroppedInboxFull,
			MaxQueuePkts:     ls.maxQueue,
			Samples:          len(ls.samples),
		}
	}
}

// p99 returns the 99th-percentile of the latency series, µs (0 if empty).
func p99(lat []int64) int64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(99*(len(s)-1))/100]
}
