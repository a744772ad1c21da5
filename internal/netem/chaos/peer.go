package chaos

import (
	"udt/internal/congestion"
	"udt/internal/core"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/trace"
)

// Peer is one driver-pumped flow: the shared core.Endpoint — the same
// engine, buffers, dispatch, control drain and burst claim udt.Conn runs —
// plus an application model: a payload to feed, a checksum over what
// arrives, and write→acked latency bookkeeping. The chaos drivers (Run,
// RunMux) and the campaign harness (internal/campaign) all schedule Peers
// the same way: deliver queued datagrams, call Service, sleep to NextWake,
// repeat.
type Peer struct {
	core.Endpoint
	name string
	out  func(b []byte) // transmit one datagram, hr bytes of headroom first
	hr   int

	payload  []byte // stream this peer sends
	sendOff  int
	wantLen  int // bytes expected from the other side
	wantHash uint64

	recvBytes int
	recvHash  hashState

	lastDecision core.SendDecision
	brokenAt     int64

	// Write→acked latency tracking (campaign monitor): first-transmission
	// times per sequence and the resulting per-packet ack latencies.
	trackAck  bool
	sendTimes map[int32]int64
	ackLat    []int64
	ackedTo   int32 // SndLastAck already folded into ackLat

	ctrl    core.SendBatch
	scratch []byte // one-packet burst arena
	lens    [1]int
	rbuf    []byte
}

// PeerOptions parameterizes one driver-pumped protocol endpoint.
type PeerOptions struct {
	// Name labels the peer for debugging.
	Name string
	// MSS is the UDT packet size in bytes. Default 1472.
	MSS int
	// SndBufPkts and RcvBufPkts size the peer buffers. Default 4096.
	SndBufPkts, RcvBufPkts int
	// MinEXP and PeerDeathTime tune failure detection, in µs; zero keeps
	// the core defaults (300 ms floor, 5 s death).
	MinEXP, PeerDeathTime int64
	// CC names the congestion controller ("native", "ctcp", "bbrlite", ...).
	// Empty selects the native law with a nil factory — the exact
	// pre-pluggable construction path.
	CC string
	// ISN and PeerISN are the two sides' initial sequence numbers.
	ISN, PeerISN int32
	// Payload is the stream this peer sends (may be empty).
	Payload []byte
	// Expect is the stream the other side sends to this peer; the peer
	// verifies it byte-for-byte (FNV-64a over length and content).
	Expect []byte
	// Headroom is how many bytes Out wants reserved ahead of each packet
	// for its own routing header (socket-ID prefix, campaign hop index).
	Headroom int
	// Out transmits one datagram, Headroom bytes of routing header first;
	// drivers that route datagrams stamp that header in place. Nil peers
	// must install one via SetOut before the first Service call.
	Out func(b []byte)
	// Secure runs the peer over the sealed AEAD channel.
	Secure *secure.Session
	// TrackAckLatency records per-packet write→acked latencies
	// (AckLatencies); costs one map entry per in-flight packet, so it is
	// off on the hot chaos matrix and on for campaign monitoring.
	TrackAckLatency bool
}

// NewPeer builds a driver-pumped protocol endpoint from options. The caller
// owns scheduling: call Start once, then Deliver incoming datagrams and
// Service at each virtual instant.
func NewPeer(o PeerOptions) *Peer {
	if o.MSS == 0 {
		o.MSS = 1472
	}
	if o.SndBufPkts == 0 {
		o.SndBufPkts = 4096
	}
	if o.RcvBufPkts == 0 {
		o.RcvBufPkts = 4096
	}
	p := &Peer{
		Endpoint: core.NewEndpoint(core.EndpointConfig{
			Engine: core.Config{
				MSS:           o.MSS,
				ISN:           o.ISN,
				RecvBufPkts:   int32(o.RcvBufPkts),
				MinEXP:        o.MinEXP,
				PeerDeathTime: o.PeerDeathTime,
				CC:            ccFactory(o.CC),
			},
			PeerISN:    o.PeerISN,
			SndBufPkts: o.SndBufPkts,
			RcvBufPkts: o.RcvBufPkts,
			Headroom:   o.Headroom,
			Sec:        o.Secure,
		}),
		name:     o.Name,
		out:      o.Out,
		hr:       o.Headroom,
		payload:  o.Payload,
		wantLen:  len(o.Expect),
		wantHash: hashOf(o.Expect),
		recvHash: newHash(),
		trackAck: o.TrackAckLatency,
		scratch:  make([]byte, o.Headroom+o.MSS),
		rbuf:     make([]byte, 65536),
	}
	if p.trackAck {
		p.sendTimes = make(map[int32]int64)
		p.ackedTo = p.Eng.SndLastAck()
	}
	return p
}

// ccFactory resolves a controller name for the engine config; the empty
// name maps to nil so default runs take the engine's own native path.
func ccFactory(name string) congestion.Factory {
	if name == "" {
		return nil
	}
	return congestion.MustNew(name)
}

// hashState is an incremental FNV-64a.
type hashState uint64

func newHash() hashState { return hashState(14695981039346656037) }

func (h *hashState) write(p []byte) {
	x := uint64(*h)
	for _, b := range p {
		x ^= uint64(b)
		x *= 1099511628211
	}
	*h = hashState(x)
}

func hashOf(p []byte) uint64 {
	h := newHash()
	h.write(p)
	return uint64(h)
}

// SetOut installs the transmit hook (routing/prefixing drivers).
func (p *Peer) SetOut(out func(b []byte)) { p.out = out }

// Start arms the engine's timers at virtual time now; call exactly once
// before the first Service.
func (p *Peer) Start(now int64) { p.Eng.Start(now) }

// NoteBroken records the first virtual instant the engine was observed
// broken and reports whether it is. Drivers call it once per scheduling
// round so PeerResult.BrokenAt is the detection time, not the wrap-up time.
func (p *Peer) NoteBroken(now int64) bool {
	if !p.Eng.Broken() {
		return false
	}
	if p.brokenAt == 0 {
		p.brokenAt = now
	}
	return true
}

// Finished reports this peer has nothing left to do: everything it wrote
// is acknowledged and everything it expected has arrived.
func (p *Peer) Finished() bool {
	sentAll := p.sendOff == len(p.payload) && p.Snd.Pending() == 0 && p.Eng.Unacked() == 0
	return sentAll && p.recvBytes >= p.wantLen
}

// NextWake folds the peer's next timer deadline — and, when the sender is
// pacing-blocked, its next permitted send time — into bound, returning the
// earlier of the two. Broken peers never wake.
func (p *Peer) NextWake(bound int64) int64 {
	if p.Eng.Broken() {
		return bound
	}
	if t := p.Eng.NextTimer(); t < bound {
		bound = t
	}
	if p.lastDecision == core.WaitPacing {
		if t := p.Eng.NextSendTime(); t < bound {
			bound = t
		}
	}
	return bound
}

// AttachPerf hooks the engine's telemetry sampler to sink: every everySYN
// SYN ticks one trace.PerfRecord stamped with the given flow id and label is
// recorded. Sampling adds no events and consumes no randomness, so attaching
// a monitor never perturbs the deterministic replay.
func (p *Peer) AttachPerf(sink trace.Sink, everySYN int, flow int32, label string, role trace.Role) {
	p.Eng.SetPerfSink(sink, everySYN, flow, label, role)
}

// AckLatencies returns the recorded per-packet write→acked latencies in µs,
// in acknowledgement order (empty unless TrackAckLatency was set).
func (p *Peer) AckLatencies() []int64 { return p.ackLat }

// Deliver runs one arriving datagram through the endpoint at virtual time
// now (raw is opened in place on a secure peer).
func (p *Peer) Deliver(now int64, raw []byte) {
	if in, ok := p.Decode(raw); ok && p.Dispatch(&in, now) == core.EvAcked && p.trackAck {
		p.recordAcked(now)
	}
}

// Service runs the non-I/O half of a scheduling round: timers, control
// emissions, pacing-gated data sends, and buffer movement.
func (p *Peer) Service(now int64) (progress bool) {
	if p.Eng.Broken() {
		return false
	}
	p.Eng.Advance(now)
	p.DrainOutbox(&p.ctrl, int32(now))
	for _, m := range p.ctrl.Msgs {
		p.out(m)
		progress = true
	}
	// Feed the send buffer.
	if p.sendOff < len(p.payload) {
		if n := p.Snd.Write(p.payload[p.sendOff:]); n > 0 {
			p.sendOff += n
			progress = true
		}
	}
	// Data path: lost packets first, then new data, as pacing allows. The
	// virtual link charges nothing per send (sendCost 0), so each claim is
	// the one packet the engine's schedule permits at this instant.
	for {
		first := seqno.Inc(p.Eng.CurSeq())
		n, _, d := p.ClaimBurst(now, 0, p.scratch, p.lens[:])
		p.lastDecision = d
		if n == 0 {
			break
		}
		if p.trackAck && p.Eng.CurSeq() == first {
			// CurSeq moved, so this is a first transmission: ack latency is
			// measured from the original send, and retransmit delay counts
			// against it.
			p.sendTimes[first] = now
		}
		p.out(p.scratch[:p.hr+p.lens[0]])
		progress = true
	}
	// Drain received stream bytes into the running checksum.
	for p.Rcv.Available() > 0 {
		n := p.Rcv.Read(p.rbuf)
		if n == 0 {
			break
		}
		p.recvHash.write(p.rbuf[:n])
		p.recvBytes += n
		progress = true
	}
	return progress
}

// recordAcked folds every sequence newly covered by the cumulative ACK into
// the latency series: latency = ack arrival − first transmission.
func (p *Peer) recordAcked(now int64) {
	last := p.Eng.SndLastAck()
	for seqno.Cmp(p.ackedTo, last) < 0 {
		if t, ok := p.sendTimes[p.ackedTo]; ok {
			p.ackLat = append(p.ackLat, now-t)
			delete(p.sendTimes, p.ackedTo)
		}
		p.ackedTo = seqno.Inc(p.ackedTo)
	}
}

// Result snapshots the peer's outcome.
func (p *Peer) Result() PeerResult {
	r := PeerResult{
		SentBytes: p.sendOff,
		RecvBytes: p.recvBytes,
		RecvOK:    p.recvBytes == p.wantLen && uint64(p.recvHash) == p.wantHash,
		RecvHash:  uint64(p.recvHash),
		Broken:    p.Eng.Broken(),
		BrokenAt:  p.brokenAt,
		Stats:     p.Eng.Stats,
	}
	if p.Sec != nil {
		r.AuthFails, r.ReplayDrops = p.Sec.Drops()
	}
	return r
}
