package core

import (
	"udt/internal/congestion"
	"udt/internal/flow"
	"udt/internal/losslist"
	"udt/internal/packet"
	"udt/internal/seqno"
)

// Config carries the negotiable parameters of a UDT connection.
type Config struct {
	// MSS is the fixed packet size in bytes on the wire (UDT header +
	// payload), the paper's maximum segment size. Default 1500.
	MSS int
	// SYN is the rate-control / acknowledgement interval in µs. Default
	// 10000 (0.01 s). Changing it trades efficiency against TCP friendliness
	// and stability (§3.7); the ablation benchmark sweeps it.
	SYN int64
	// ISN is this side's initial data sequence number.
	ISN int32
	// MaxFlowWindow bounds the number of unacknowledged packets. Default 25600.
	MaxFlowWindow int32
	// RecvBufPkts is the receiver buffer advertised before the transport
	// installs an AvailBuf callback. Default MaxFlowWindow.
	RecvBufPkts int32
	// NAKReportLimit caps loss ranges carried per NAK packet. Default 128.
	NAKReportLimit int
	// MinEXP is the floor of the EXP (expiration) timer in µs. Default 300 ms.
	MinEXP int64
	// PeerDeathTime is how long without any peer packet before the
	// connection is declared broken. Default 5 s (with ≥16 expirations).
	PeerDeathTime int64
	// SockID names this endpoint on a shared (multiplexed) socket; zero
	// means the connection has a private socket. The engine never acts on
	// it — it is carried through for telemetry and debugging, so transports
	// and tools can correlate engine state with demultiplexer entries.
	SockID int32
	// CC constructs the connection's congestion controller. Nil selects
	// the native UDT AIMD (§3.3). The engine calls the factory once in
	// NewConn and Init's the controller with the connection constants.
	CC congestion.Factory
}

func (c *Config) fill() {
	if c.MSS == 0 {
		c.MSS = 1500
	}
	if c.SYN == 0 {
		c.SYN = DefaultSYN
	}
	if c.MaxFlowWindow == 0 {
		c.MaxFlowWindow = 25600
	}
	if c.RecvBufPkts == 0 {
		c.RecvBufPkts = c.MaxFlowWindow
	}
	if c.NAKReportLimit == 0 {
		c.NAKReportLimit = 128
	}
	if c.MinEXP == 0 {
		c.MinEXP = 300_000
	}
	if c.PeerDeathTime == 0 {
		c.PeerDeathTime = 5_000_000
	}
}

// OutKind discriminates queued control emissions.
type OutKind int

// Control emissions produced by the engine for the transport to serialize.
const (
	OutACK OutKind = iota
	OutNAK
	OutACK2
	OutKeepAlive
	OutShutdown
)

// Out is one control packet the engine asks the transport to send.
type Out struct {
	Kind   OutKind
	ACK    packet.ACK     // valid for OutACK
	Losses []packet.Range // valid for OutNAK
	AckID  int32          // valid for OutACK2
}

// Stats counts protocol events; all fields are owned by the engine and may
// be read between calls.
type Stats struct {
	PktsSent       int64
	PktsRetrans    int64
	PktsRecv       int64
	PktsDup        int64
	ACKsSent       int64
	ACKsRecv       int64
	NAKsSent       int64
	NAKsRecv       int64
	LossDetected   int64 // packets the receiver detected missing
	LossEvents     int64 // loss bursts (one per detection gap)
	Timeouts       int64
	SndFreezes     int64
	WindowLimited  int64 // send attempts blocked by the flow window
	PacingDeferred int64 // send attempts blocked by the sending period
}

// Conn is the duplex UDT protocol engine for one established connection:
// sender and receiver roles plus the four timers — ACK, NAK, SYN (rate
// control) and EXP (§4.8). It owns no I/O and no clock; the transport feeds
// packets and the current time in, polls NextSend for data-path permission,
// and drains the Outbox of control emissions.
type Conn struct {
	cfg Config
	cc  congestion.Controller

	// AvailBuf reports the receiver buffer space in packets for flow
	// control advertisements. Installed by the transport.
	AvailBuf func() int32

	// Sender state.
	sndLoss      *losslist.Sender
	curSeq       int32 // largest data sequence sent
	sndLastAck   int32 // everything before this is acknowledged
	peerWindow   int32 // flow window advertised by the peer: min(W = AS·(SYN+RTT), its free buffer)
	forcedWindow int32 // ablation override; see ForceWindow
	sendSchedule float64
	sentAny      bool

	// Receiver state.
	rcvLoss       *losslist.Receiver
	peerISN       int32
	lrsn          int32 // largest received sequence number
	gotAnyData    bool
	prevSeq       int32 // immediately previous arrival, for packet-pair spotting
	prevArrival   int64
	arrival       *flow.ArrivalWindow
	burstArr      *flow.ArrivalWindow
	probe         *flow.ProbeWindow
	ackWin        *flow.AckWindow
	rtt           *flow.RTT
	lastAckSeq    int32 // cumulative position of the last ACK we sent
	lastAdvWindow int32 // last advertised flow window
	ackID         int32
	sinceACK      int32 // fresh packets since the last ACK emission
	dupSinceACK   int32 // duplicate packets since the last ACK emission

	// Timers: absolute deadlines in µs.
	tACK, tNAK, tSYN, tEXP int64
	expCount               int64
	lastRsp                int64 // when we last heard from the peer

	started bool
	closed  bool
	broken  bool

	outbox []Out

	// Telemetry sampler; inert until SetPerfSink attaches a sink.
	perf perfState

	// Stats accumulates event counters.
	Stats Stats
}

// NewConn returns an engine for a connection whose outgoing stream starts at
// cfg.ISN and whose peer's stream starts at peerISN (from the handshake).
func NewConn(cfg Config, peerISN int32) *Conn {
	cfg.fill()
	// The receiver loss list grows on demand (losslist.Receiver.grow
	// re-inserts every node, so its size never shows in what it reports):
	// it starts at rcvLossSlots whatever the window, and only a flow that
	// actually loses packets across a wider span pays for more.
	var ctrl congestion.Controller
	if cfg.CC != nil {
		ctrl = cfg.CC()
	} else {
		ctrl = congestion.NewNative()
	}
	ctrl.Init(congestion.Params{SYN: cfg.SYN, MSS: cfg.MSS, MaxWindow: int(cfg.MaxFlowWindow)})
	c := &Conn{
		cfg:        cfg,
		cc:         ctrl,
		sndLoss:    losslist.NewSender(),
		rcvLoss:    losslist.NewReceiver(rcvLossSlots),
		curSeq:     seqno.Dec(cfg.ISN),
		sndLastAck: cfg.ISN,
		peerWindow: slowStartCwnd,
		peerISN:    peerISN,
		lrsn:       seqno.Dec(peerISN),
		prevSeq:    -1,
		arrival:    flow.NewArrivalWindow(flow.DefaultArrivalWindow),
		burstArr:   flow.NewBurstArrivalWindow(flow.DefaultArrivalWindow),
		probe:      flow.NewProbeWindow(flow.DefaultProbeWindow),
		ackWin:     flow.NewAckWindow(ackWindowSize(cfg.RecvBufPkts)),
		rtt:        flow.NewRTT(100_000),
		lastAckSeq: peerISN,
	}
	c.AvailBuf = func() int32 { return c.cfg.RecvBufPkts }
	return c
}

// rcvLossSlots is the receiver loss list's initial slot count (28 B each).
const rcvLossSlots = 64

// ackWindowSize bounds the ACK↔ACK2 matching history by the receive
// buffer: outstanding ACK records are bounded by how much the peer can
// have in flight, so a small-buffer flow forgets old ACKs as early as it
// always did, and default-sized flows keep exactly the UDT constant of
// 1024 entries. It is a limit, not a size: flow.AckWindow holds nothing
// until the first ACK is sent and grows with the ACKs actually outstanding
// (16 B each, ~16 KB at the limit).
func ackWindowSize(recvBufPkts int32) int {
	n := int(recvBufPkts)
	if n > 1024 {
		n = 1024
	}
	if n < 64 {
		n = 64
	}
	return n
}

// Start arms the timers; call once when the connection is established.
func (c *Conn) Start(now int64) {
	c.started = true
	c.lastRsp = now
	c.tACK = now + c.cfg.SYN
	c.tNAK = now + c.cfg.SYN
	c.tSYN = now + c.cfg.SYN
	c.tEXP = now + c.expInterval()
	c.sendSchedule = float64(now)
}

// CC exposes the native UDT rate controller when it is the installed law
// (read-mostly; used by experiments and ablations), or nil when Config.CC
// selected a different controller. Generic access goes through Controller.
func (c *Conn) CC() *CC {
	n, _ := c.cc.(*CC)
	return n
}

// Controller exposes the installed congestion controller, whichever law
// it runs. Callers must not invoke its mutating callbacks; the engine owns
// the callback schedule.
func (c *Conn) Controller() congestion.Controller { return c.cc }

// RTT returns the smoothed round-trip time estimate in µs.
func (c *Conn) RTT() int64 { return c.rtt.Smoothed() }

// Config returns the (filled) connection configuration.
func (c *Conn) Config() Config { return c.cfg }

// SockID returns this endpoint's socket ID on a shared (multiplexed)
// socket, or zero for a private socket. See Config.SockID.
func (c *Conn) SockID() int32 { return c.cfg.SockID }

// Closed reports whether the connection was shut down locally or by the peer.
func (c *Conn) Closed() bool { return c.closed }

// Broken reports whether the peer stopped responding (EXP death, §4.8).
func (c *Conn) Broken() bool { return c.broken }

// CurSeq returns the largest data sequence number sent so far.
func (c *Conn) CurSeq() int32 { return c.curSeq }

// SndLastAck returns the first unacknowledged sequence number.
func (c *Conn) SndLastAck() int32 { return c.sndLastAck }

// LRSN returns the largest received sequence number.
func (c *Conn) LRSN() int32 { return c.lrsn }

// Unacked returns the number of packets in flight.
func (c *Conn) Unacked() int32 {
	return seqno.Off(c.sndLastAck, c.curSeq) + 1
}

// ForceWindow pins the effective flow window to w packets, overriding the
// peer's advertisements and the slow-start window. Zero restores normal
// operation. It exists for the paper's flow-control ablation (Fig. 7):
// "UDT without FC" is UDT with the window pinned at the maximum.
func (c *Conn) ForceWindow(w int32) { c.forcedWindow = w }

// FlowWindow returns the current effective send window in packets: the
// peer-advertised min(W, buffer) bounded by the local slow-start window.
func (c *Conn) FlowWindow() int32 {
	if c.forcedWindow > 0 {
		return c.forcedWindow
	}
	w := c.peerWindow
	if ccw := int32(c.cc.Window()); ccw < w {
		w = ccw
	}
	if w < 1 {
		w = 1
	}
	return w
}

// emit queues a control packet for the transport.
func (c *Conn) emit(o Out) { c.outbox = append(c.outbox, o) }

// PopOut removes and returns the next queued control emission.
func (c *Conn) PopOut() (Out, bool) {
	if len(c.outbox) == 0 {
		return Out{}, false
	}
	o := c.outbox[0]
	copy(c.outbox, c.outbox[1:])
	c.outbox = c.outbox[:len(c.outbox)-1]
	return o, true
}

// PendingOut reports how many control emissions are queued.
func (c *Conn) PendingOut() int { return len(c.outbox) }

// nakInterval is the per-node re-report spacing: time for a retransmission
// round trip plus one pacing interval; re-reports back off linearly on top
// of it (losslist.Receiver.Report, §3.5).
func (c *Conn) nakInterval() int64 {
	iv := c.rtt.RTO() + c.cfg.SYN
	if iv < 2*c.cfg.SYN {
		iv = 2 * c.cfg.SYN
	}
	return iv
}

func (c *Conn) expInterval() int64 {
	n := c.expCount
	if n < 1 {
		n = 1
	}
	iv := n*c.rtt.RTO() + c.cfg.SYN
	// Ceiling the linear backoff at PeerDeathTime/16 so the 16 expirations
	// death detection requires fit within the configured limit. Without it,
	// an unconverged RTO (initial 300 ms) pushes detection to 136·RTO ≈
	// 40 s — unbounded by PeerDeathTime, which is the knob operators set.
	if ceil := c.cfg.PeerDeathTime / 16; iv > ceil {
		iv = ceil
	}
	if iv < c.cfg.MinEXP {
		iv = c.cfg.MinEXP
	}
	return iv
}

// peerAlive resets expiration tracking; called on every packet from the peer.
func (c *Conn) peerAlive(now int64) {
	c.lastRsp = now
	c.expCount = 0
	c.tEXP = now + c.expInterval()
}

// Advance fires every timer whose deadline has passed. The transport calls
// it whenever the clock may have crossed NextTimer (after receives, sends,
// or timeout wakeups).
func (c *Conn) Advance(now int64) {
	if !c.started || c.closed {
		return
	}
	// Periodic timers catch up arithmetically: after an idle stretch the
	// deadline jumps to the first multiple of SYN past now in O(1), and the
	// handler still runs exactly once per Advance — identical behavior to
	// stepping the deadline in a loop, without O(gap/SYN) iterations when a
	// long-quiescent connection finally wakes.
	if now >= c.tSYN {
		c.cc.OnRateTick()
		c.tSYN += ((now-c.tSYN)/c.cfg.SYN + 1) * c.cfg.SYN
		if c.perf.sink != nil {
			c.perfTick(now)
		}
	}
	if now >= c.tACK {
		c.sendACK(now)
		c.tACK += ((now-c.tACK)/c.cfg.SYN + 1) * c.cfg.SYN
	}
	if now >= c.tNAK {
		c.sendNAK(now)
		c.tNAK += ((now-c.tNAK)/c.cfg.SYN + 1) * c.cfg.SYN
	}
	if now >= c.tEXP {
		c.onEXP(now)
	}
}

// NextTimer returns the earliest control-timer deadline.
func (c *Conn) NextTimer() int64 {
	d := c.tACK
	if c.tNAK < d {
		d = c.tNAK
	}
	if c.tSYN < d {
		d = c.tSYN
	}
	if c.tEXP < d {
		d = c.tEXP
	}
	return d
}

// Quiescent reports whether the engine has no protocol work pending:
// nothing in flight, no loss to repair or report, no control output
// queued, and every byte the peer sent acknowledged. A quiescent engine's
// periodic ACK/NAK handlers are provably no-ops (sendACK has no progress,
// duplicate, or reopening to report; sendNAK has an empty loss list), so
// the only deadline that still matters is EXP — keep-alive and peer-death
// detection. The caller must separately ensure it has no unsent data
// buffered; the engine cannot see the transport's send queue.
//
// A tick of a flow that is not quiescent but has nothing to report is
// cheap too: sendACK reads the burst arrival rate (its "reopened" test
// needs the window) from the estimator's cache and returns; the achieved
// rate and the link capacity are read only for an ACK that is emitted.
//
// Quiescence is a transport-side scheduling hint: the shared scheduler
// parks idle flows until NextWake instead of waking them every SYN. It is
// deliberately not consulted by the deterministic simulator, whose driver
// wakes engines at NextTimer, so scheduling-policy changes cannot perturb
// the chaos oracle.
func (c *Conn) Quiescent() bool {
	return c.started && !c.closed && !c.broken &&
		c.Unacked() == 0 &&
		c.sndLoss.Len() == 0 &&
		c.rcvLoss.Len() == 0 &&
		len(c.outbox) == 0 &&
		c.dupSinceACK == 0 &&
		(!c.gotAnyData || c.lastAckSeq == seqno.Inc(c.lrsn))
}

// NextWake returns the deadline the transport scheduler should wake this
// engine at: EXP for a quiescent flow (its other periodic handlers would
// do nothing — see Quiescent), the earliest of all four timers otherwise.
// With the default 10 ms SYN and a ~300 ms minimum EXP interval this cuts
// an idle flow's wakeups by ~30×, which is what makes parking 100k idle
// flows on one worker pool tractable.
func (c *Conn) NextWake() int64 {
	if c.Quiescent() {
		return c.tEXP
	}
	return c.NextTimer()
}

// sendACK builds the periodic selective acknowledgement (§3.1) carrying the
// receiver's flow-control and estimation feedback (§3.2, §3.4).
//
// An ACK is emitted only when the cumulative position advanced, or when the
// advertised window reopened substantially after a stall. Re-ACKing without
// progress would keep resetting the sender's EXP timer and defeat its
// tail-loss rescue: if every in-flight packet died, no later packet exists
// to trigger a NAK, and only EXP-driven silence detection can recover.
func (c *Conn) sendACK(now int64) {
	if !c.gotAnyData {
		return
	}
	ack := seqno.Inc(c.lrsn)
	if first, ok := c.rcvLoss.First(); ok {
		ack = first
	}
	// Window: W = AS·(SYN + RTT), §3.2, where AS is the burst (peak)
	// arrival-speed estimate — how fast packets CAN arrive, so that a
	// window-limited sender's bursts grow the window toward the bandwidth-
	// delay product. The achieved-rate estimate must not be used here: a
	// window derived from the rate the sender actually achieved is a fixed
	// point it can never grow past (see NewBurstArrivalWindow). Before AS
	// is measurable, stay at the slow-start floor.
	w := float64(slowStartCwnd)
	if br := c.burstArr.Rate(); br > 0 {
		w = float64(br) * float64(c.cfg.SYN+c.rtt.Smoothed()) / 1e6
		if w < slowStartCwnd {
			w = slowStartCwnd
		}
	}
	avail := c.AvailBuf()
	adv := int32(w)
	if avail < adv {
		adv = avail
	}
	if adv < 2 {
		adv = 2 // never advertise a dead window; two packets keep feedback alive
	}
	advanced := seqno.Cmp(ack, c.lastAckSeq) > 0
	reopened := adv > c.lastAdvWindow && adv-c.lastAdvWindow >= c.cfg.RecvBufPkts/16
	// A duplicate arrival means the peer is retransmitting data we already
	// acknowledged — our cumulative ACK must have been lost. Re-emit it even
	// without progress, or the peer retransmits that window forever. This
	// cannot defeat the EXP tail-loss rescue above: duplicates only arrive
	// while packets are flowing, and silence is what EXP detects.
	if !advanced && !reopened && c.dupSinceACK == 0 {
		return
	}
	c.dupSinceACK = 0
	c.lastAdvWindow = adv
	c.ackID++
	a := packet.ACK{
		AckID:    c.ackID,
		Seq:      ack,
		RTT:      int32(c.rtt.Smoothed()),
		RTTVar:   int32(c.rtt.Var()),
		AvailBuf: adv,
		RecvRate: c.arrival.Rate(),
		Capacity: c.probe.Capacity(),
	}
	c.ackWin.Store(c.ackID, ack, now)
	c.lastAckSeq = ack
	c.sinceACK = 0
	c.Stats.ACKsSent++
	c.emit(Out{Kind: OutACK, ACK: a})
}

// sendNAK re-reports unrepaired losses on their increasing schedule (§3.5).
func (c *Conn) sendNAK(now int64) {
	ranges := c.rcvLoss.Report(now, c.nakInterval(), c.cfg.NAKReportLimit)
	if len(ranges) == 0 {
		return
	}
	c.Stats.NAKsSent++
	c.emit(Out{Kind: OutNAK, Losses: ranges})
}

// onEXP handles an expiration: no packet from the peer for the whole
// interval. Unacknowledged data is queued for retransmission (the NAK or
// the ACK that would have repaired it may itself have been lost) and the
// controller decreases; with nothing in flight a keep-alive probes the peer.
func (c *Conn) onEXP(now int64) {
	c.expCount++
	if c.expCount >= 16 && now-c.lastRsp > c.cfg.PeerDeathTime {
		c.broken = true
		c.closed = true
		c.cc.Close()
		c.emit(Out{Kind: OutShutdown})
		return
	}
	if c.Unacked() > 0 {
		c.Stats.Timeouts++
		if c.sndLoss.Len() == 0 {
			// First expiration since the peer was last heard: assume the
			// repair feedback (ACK or NAK) was lost and requeue the whole
			// unacknowledged window. On consecutive expirations the full
			// requeue has already gone unanswered once — repeating it every
			// time just floods a drowning receiver with duplicates
			// (retransmissions bypass the window check, so each expiration
			// would pump the entire window again). Requeue a probe chunk
			// that doubles per consecutive expiration instead: the
			// duplicates it produces trigger a re-ACK if the receiver had
			// the data, or fresh delivery plus a NAK if it did not; either
			// response resets expCount and restores full repair, and the
			// doubling guarantees the chunk reaches the whole window again
			// even if no response ever comes.
			end := c.curSeq
			if n := c.expCount - 2; n >= 0 {
				chunk := int32(slowStartCwnd)
				for ; n > 0 && chunk < c.cfg.MaxFlowWindow; n-- {
					chunk *= 2
				}
				if probe := seqno.Add(c.sndLastAck, chunk-1); seqno.Cmp(probe, end) < 0 {
					end = probe
				}
			}
			c.sndLoss.Insert(c.sndLastAck, end)
		}
		c.cc.OnTimeout(now, c.curSeq)
	} else {
		c.emit(Out{Kind: OutKeepAlive})
	}
	c.tEXP = now + c.expInterval()
}

// HandleData processes an arriving data packet and reports whether the
// payload is fresh (the transport should store it) — false for duplicates.
func (c *Conn) HandleData(now int64, seq int32) (fresh bool) {
	if !seqno.Valid(seq) || c.closed {
		return false
	}
	c.peerAlive(now)
	c.Stats.PktsRecv++
	c.gotAnyData = true

	c.arrival.OnArrival(now)
	c.burstArr.OnArrival(now)
	// Packet-pair probe: the packet after a seq%16 == 0 packet was sent
	// back-to-back with it (§3.4); consecutive arrival spots the pair. A
	// zero gap clamps to 1 µs inside OnPair — "faster than the clock
	// resolves" — which on batched receive paths makes the capacity
	// estimate an upper bound rather than a measurement; the arrival-speed
	// window (whose honest burst amortization bounds the flow window and
	// the slow-start exit rate) is what keeps that optimism from
	// overdriving the link.
	if c.prevSeq >= 0 && c.prevSeq%flow.ProbeInterval == 0 && seq == seqno.Inc(c.prevSeq) {
		c.probe.OnPair(now - c.prevArrival)
	}
	c.prevSeq, c.prevArrival = seq, now

	off := seqno.Off(seqno.Inc(c.lrsn), seq)
	switch {
	case off > 0:
		// A gap: packets [lrsn+1, seq-1] are missing. Report immediately so
		// the sender reacts to congestion as fast as possible (§3.1).
		c.rcvLoss.Insert(seqno.Inc(c.lrsn), seqno.Dec(seq))
		c.Stats.LossDetected += int64(off)
		c.Stats.LossEvents++
		c.lrsn = seq
		if ranges := c.rcvLoss.Report(now, c.nakInterval(), c.cfg.NAKReportLimit); len(ranges) > 0 {
			c.Stats.NAKsSent++
			c.emit(Out{Kind: OutNAK, Losses: ranges})
		}
		return true
	case off == 0:
		c.lrsn = seq
		// Light-ACK rule: at very high packet rates the SYN-periodic ACK
		// leaves the sender blind for thousands of packets; acknowledge
		// every 64 arrivals as well (reference implementation behaviour).
		c.sinceACK++
		if c.sinceACK >= 64 {
			c.sendACK(now)
		}
		return true
	default:
		// Belated packet: fresh only if it repairs a recorded loss.
		if c.rcvLoss.Remove(seq) {
			return true
		}
		c.Stats.PktsDup++
		c.dupSinceACK++
		return false
	}
}

// HandleACK processes a cumulative acknowledgement, returning the number of
// packets newly acknowledged so the transport can release its send buffer.
func (c *Conn) HandleACK(now int64, a packet.ACK) (newlyAcked int32) {
	if c.closed {
		return 0
	}
	c.peerAlive(now)
	c.Stats.ACKsRecv++
	// Acknowledge the ACK for the peer's RTT measurement (§3.1).
	c.emit(Out{Kind: OutACK2, AckID: a.AckID})

	if a.AvailBuf > 0 {
		c.peerWindow = a.AvailBuf
	}
	// Ignore positions beyond what we sent (corrupt or hostile peer).
	if seqno.Cmp(a.Seq, seqno.Inc(c.curSeq)) > 0 {
		return 0
	}
	if seqno.Cmp(a.Seq, c.sndLastAck) > 0 {
		newlyAcked = seqno.Off(c.sndLastAck, a.Seq)
		c.sndLastAck = a.Seq
		c.sndLoss.RemoveUpTo(a.Seq)
	}
	if a.RTT > 0 {
		c.rtt.Update(int64(a.RTT))
	}
	c.cc.OnACK(int(newlyAcked), a.RecvRate, a.Capacity, a.RTT)
	return newlyAcked
}

// HandleNAK queues the reported losses for retransmission and applies the
// multiplicative decrease (formula 3) when the report names a fresh loss.
func (c *Conn) HandleNAK(now int64, losses []packet.Range) {
	if c.closed {
		return
	}
	c.peerAlive(now)
	c.Stats.NAKsRecv++
	var largest int32 = -1
	for _, r := range losses {
		// Clamp to the valid in-flight span.
		s, e := r.Start, r.End
		if seqno.Cmp(s, c.sndLastAck) < 0 {
			s = c.sndLastAck
		}
		if seqno.Cmp(e, c.curSeq) > 0 {
			e = c.curSeq
		}
		if seqno.Cmp(s, e) > 0 {
			continue
		}
		c.sndLoss.Insert(s, e)
		if largest == -1 || seqno.Cmp(e, largest) > 0 {
			largest = e
		}
	}
	if largest >= 0 {
		wasFrozen := c.cc.Frozen(now)
		c.cc.OnNAK(now, largest, c.curSeq)
		if !wasFrozen && c.cc.Frozen(now) {
			c.Stats.SndFreezes++
		}
	}
}

// HandleACK2 matches the peer's ACK-of-ACK against the ACK history to
// produce an RTT sample (§3.1).
func (c *Conn) HandleACK2(now int64, ackID int32) {
	if c.closed {
		return
	}
	c.peerAlive(now)
	if _, sample, ok := c.ackWin.Acknowledge(ackID, now); ok {
		c.rtt.Update(sample)
	}
}

// HandleKeepAlive refreshes peer liveness.
func (c *Conn) HandleKeepAlive(now int64) {
	if !c.closed {
		c.peerAlive(now)
	}
}

// HandleShutdown closes the connection at the peer's request.
func (c *Conn) HandleShutdown(now int64) {
	if !c.closed {
		c.closed = true
		c.cc.Close()
	}
}

// Close shuts the connection down locally and queues a Shutdown for the peer.
func (c *Conn) Close() {
	if !c.closed {
		c.closed = true
		c.cc.Close()
		c.emit(Out{Kind: OutShutdown})
	}
}

// SendDecision is NextSend's verdict.
type SendDecision int

// NextSend outcomes.
const (
	SendData    SendDecision = iota // send a new data packet with the returned sequence
	SendRetrans                     // retransmit the returned sequence
	WaitPacing                      // too early: wait until NextSendTime
	WaitWindow                      // flow window full: wait for an ACK
	WaitData                        // nothing to send: wait for application data
	WaitFrozen                      // loss-event freeze: wait one SYN (§3.3)
	WaitClosed                      // connection closed
)

// NextSendTime returns the earliest time the next data packet may leave (µs).
func (c *Conn) NextSendTime() int64 { return int64(c.sendSchedule) }

// NextSend decides what the sender may transmit at time now, given whether
// the application has new data queued. Lost packets always go first (§4.8).
// On SendData/SendRetrans the engine has already committed the sequence
// number; the transport must transmit it and then call Sent.
func (c *Conn) NextSend(now int64, newDataAvail bool) (seq int32, d SendDecision) {
	if c.closed {
		return 0, WaitClosed
	}
	if c.cc.Frozen(now) {
		return 0, WaitFrozen
	}
	if now < int64(c.sendSchedule) {
		c.Stats.PacingDeferred++
		return 0, WaitPacing
	}
	if s, ok := c.sndLoss.PopFirst(); ok {
		c.Stats.PktsRetrans++
		c.schedule(now, s)
		return s, SendRetrans
	}
	if c.Unacked() >= c.FlowWindow() {
		c.Stats.WindowLimited++
		return 0, WaitWindow
	}
	if !newDataAvail {
		return 0, WaitData
	}
	c.curSeq = seqno.Inc(c.curSeq)
	c.Stats.PktsSent++
	c.schedule(now, c.curSeq)
	return c.curSeq, SendData
}

// schedule advances the pacing schedule after transmitting seq. A packet
// whose sequence is a multiple of the probe interval starts a packet pair:
// its successor leaves with no inter-packet delay (§3.4).
func (c *Conn) schedule(now int64, seq int32) {
	c.cc.OnPktSent(now, seq)
	if !c.sentAny {
		c.sentAny = true
		c.sendSchedule = float64(now)
	}
	if seq%flow.ProbeInterval == 0 {
		return // successor goes back-to-back
	}
	p := c.cc.Period()
	c.sendSchedule += p
	// After an idle stretch the schedule must not release a burst of
	// "overdue" packets: resynchronize to the present.
	if float64(now)-c.sendSchedule > float64(c.cfg.SYN) {
		c.sendSchedule = float64(now)
	}
}
