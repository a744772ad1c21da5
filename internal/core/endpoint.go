package core

import (
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/timing"
)

// EndpointConfig parameterizes one flow endpoint.
type EndpointConfig struct {
	// Engine is the protocol engine's configuration. Its MSS is the wire size
	// of a full data packet: header, payload and — under AEAD — the tag.
	Engine Config
	// PeerISN is the peer's initial sequence number, from the handshake.
	PeerISN int32
	// SndBufPkts and RcvBufPkts size the stream buffers, in packets.
	SndBufPkts, RcvBufPkts int
	// Headroom is the number of bytes the transport wants reserved at the
	// front of every datagram the endpoint encodes (a multiplexed flow stamps
	// the destination socket ID there).
	Headroom int
	// Sec is the Secure UDT sealing state; nil on a clear flow.
	Sec *secure.Session
	// Ledger receives the per-function CPU attribution; nil disables it.
	Ledger *timing.Ledger
}

// Endpoint is everything between datagrams and the engine that needs no
// lock, no socket and no wall clock: the engine with its stream buffers, the
// secure open rules, datagram → engine dispatch, outbox → sealed control
// datagrams, and burst claiming with data encode and seal. Two shells run
// it: udt.Conn adds locks, the socket tiers and the scheduler seat;
// chaos.Peer adds a payload model under a virtual clock. Time is always a
// parameter, so a replay of the same inputs takes the same path through the
// code that ships. An Endpoint is not safe for concurrent use, except that
// Decode touches only receive-side sealing state and may run beside the
// sending methods as long as one goroutine delivers.
type Endpoint struct {
	// Eng is the protocol engine.
	Eng *Conn
	// Snd and Rcv are the stream buffers either side of it.
	Snd *SndBuffer
	Rcv *RcvBuffer
	// Sec is the sealing state, nil on a clear flow.
	Sec *secure.Session
	// BytesRecv counts the wire bytes of fresh data packets, as opened.
	BytesRecv int64

	aead   bool
	hr     int
	mss    int
	ledger *timing.Ledger
}

// NewEndpoint builds the engine and its buffers. The caller starts the
// engine (Eng.Start) once its clock is known.
func NewEndpoint(cfg EndpointConfig) Endpoint {
	cfg.Engine.fill()
	e := Endpoint{
		Sec:    cfg.Sec,
		aead:   cfg.Sec != nil && cfg.Sec.AEAD(),
		hr:     cfg.Headroom,
		mss:    cfg.Engine.MSS,
		ledger: cfg.Ledger,
	}
	// A NAK is one datagram: cap its ranges (two words each at worst) so
	// header, loss list and control seal fit the MSS. Losses past the cap
	// stay on the receiver's list and go out with the next NAK timer.
	room := e.mss - packet.CtrlHeaderSize
	if e.Sec != nil {
		room -= secure.CtrlOverhead
	}
	if cfg.Engine.NAKReportLimit > room/8 {
		cfg.Engine.NAKReportLimit = room / 8
	}
	e.Eng = NewConn(cfg.Engine, cfg.PeerISN)
	payload := e.mss - packet.DataHeaderSize
	if e.aead {
		// The AEAD tag rides inside the packet's payload budget, so a
		// sealed full packet is still exactly MSS on the wire (GSO trains
		// stay uniform).
		payload -= secure.Overhead
	}
	e.Snd = NewSndBuffer(cfg.SndBufPkts, payload, cfg.Engine.ISN)
	e.Rcv = NewRcvBuffer(cfg.RcvBufPkts, payload, cfg.PeerISN)
	e.Eng.AvailBuf = e.Rcv.Free
	return e
}

// SendBatch accumulates encoded control datagrams in a reusable arena.
// Once the arena and message list have grown to their working-set size, a
// drain-and-send pass allocates nothing.
type SendBatch struct {
	arena []byte
	// Msgs aliases into the arena, one slice per datagram, headroom included.
	Msgs [][]byte
}

// grab reserves n bytes of arena. If the arena must grow, messages already
// recorded keep aliasing the old block — they remain valid until the next
// drain.
func (b *SendBatch) grab(n int) []byte {
	off := len(b.arena)
	if off+n > cap(b.arena) {
		grown := make([]byte, off, 2*(off+n)+64)
		copy(grown, b.arena)
		b.arena = grown
	}
	b.arena = b.arena[:off+n]
	return b.arena[off : off+n]
}

// DrainOutbox empties b, keeping its storage, and encodes all queued
// control emissions into it, each sized exactly per emission kind (a bare control header for
// ACK2/keep-alive/shutdown, header+24 for a full ACK, the compressed
// loss-list length for a NAK) plus the transport's headroom, and sealed
// when the flow is secure. now32 is the timestamp the packets carry. The
// caller transmits b.Msgs afterwards — in udt.Conn after dropping its lock,
// so the socket write never runs under it.
func (e *Endpoint) DrainOutbox(b *SendBatch, now32 int32) {
	hr := e.hr
	b.arena, b.Msgs = b.arena[:0], b.Msgs[:0]
	for {
		o, ok := e.Eng.PopOut()
		if !ok {
			return
		}
		var size int
		switch o.Kind {
		case OutACK:
			size = packet.CtrlHeaderSize + packet.FullACKBody
		case OutNAK:
			size = packet.NAKSize(o.Losses)
		default: // ACK2, keep-alive, shutdown: bare control header
			size = packet.CtrlHeaderSize
		}
		if e.Sec != nil {
			size += secure.CtrlOverhead
		}
		buf := b.grab(hr + size)
		var n int
		var err error
		switch o.Kind {
		case OutACK:
			n, err = packet.EncodeACK(buf[hr:], &o.ACK, now32)
		case OutNAK:
			n, err = packet.EncodeNAK(buf[hr:], o.Losses, now32)
		case OutACK2:
			n, err = packet.EncodeACK2(buf[hr:], o.AckID, now32)
		case OutKeepAlive:
			n, err = packet.EncodeSimple(buf[hr:], packet.TypeKeepAlive, now32)
		case OutShutdown:
			n, err = packet.EncodeSimple(buf[hr:], packet.TypeShutdown, now32)
		}
		if err == nil && n > 0 {
			end := hr + n
			if e.Sec != nil {
				// Seal in place; the grab above reserved the trailer room.
				// The full-capacity reslice is load-bearing: buf's spare
				// capacity aliases the arena's free tail.
				end = hr + len(e.Sec.SealCtrl(buf[hr:end:len(buf)]))
			}
			b.Msgs = append(b.Msgs, buf[:end])
		}
	}
}

// ClaimBurst claims and encodes up to len(lens) data packets into scratch
// (packet i at offset i*(headroom+MSS), encoded after the headroom bytes, encoded
// length in lens[i]). The first packet follows §4.1's
// one-packet-per-iteration rule; further packets are claimed only while the
// pacing schedule is already due within sendCost, the shell's measured µs
// per socket send — at that point the syscall, not the pacer, is the
// bottleneck, and splitting the burst across lock round-trips would only
// add overhead. It returns the claim count, the next wakeup deadline and
// the last engine decision (meaningful when n == 0).
func (e *Endpoint) ClaimBurst(now int64, sendCost float64, scratch []byte, lens []int) (n int, wake int64, d SendDecision) {
	stride := e.hr + e.mss
	for n < len(lens) {
		newAvail := seqno.Cmp(e.Snd.NextWriteSeq(), seqno.Inc(e.Eng.CurSeq())) > 0
		seq, decision := e.Eng.NextSend(now, newAvail)
		d = decision
		if decision != SendData && decision != SendRetrans {
			// NextWake, not NextTimer: a quiescent flow with nothing unsent
			// parks until its EXP keep-alive deadline instead of every
			// ACK/NAK/SYN period — the ~30× wakeup reduction that lets one
			// shard hold tens of thousands of idle flows. Any event that ends
			// quiescence (app write, arriving packet) kicks the connection,
			// which re-derives an earlier wake here.
			wake = e.Eng.NextWake(newAvail)
			switch decision {
			case WaitPacing:
				if t := e.Eng.NextSendTime(); t < wake {
					wake = t
				}
			case WaitFrozen:
				if t := e.Eng.Controller().FreezeEnd(); t < wake {
					wake = t
				}
			}
			return n, wake, decision
		}
		pl, ok := e.Snd.Packet(seq)
		if !ok {
			// The engine committed seq but the buffer cannot serve it;
			// reconsider immediately.
			return n, now, decision
		}
		buf := scratch[n*stride+e.hr : (n+1)*stride]
		e.ledger.Time(timing.BucketPack, func() {
			m, _ := packet.EncodeData(buf, &packet.Data{Seq: seq, Timestamp: int32(now), Payload: pl})
			if e.aead {
				// Seal in the burst arena: payload encrypted in place, tag
				// appended. A full packet grows back to exactly MSS, so the
				// GSO all-MSS train check downstream is unaffected; a
				// retransmission re-seals byte-identically (the timestamp is
				// outside AEAD coverage), so the reused nonce carries the
				// same message.
				m = len(e.Sec.SealData(buf[:m]))
			}
			lens[n] = m
		})
		n++
		if e.Eng.NextSendTime() > now+int64(sendCost) {
			return n, now, decision
		}
	}
	return n, now, d
}

// Event is what one arriving datagram did, as far as a shell must react.
type Event uint8

// Datagram outcomes.
const (
	// EvDropped: the datagram never reached the engine — it failed to open
	// or decode, or the receive buffer was full.
	EvDropped Event = iota
	// EvHandled: the engine consumed it; nothing for the shell to do.
	EvHandled
	// EvFreshData: a new payload was stored; Rcv may have bytes to read.
	EvFreshData
	// EvAcked: send-buffer space was released.
	EvAcked
	// EvShutdown: the peer closed the connection.
	EvShutdown
)

// Inbound is one opened and parsed datagram, between Decode and Dispatch.
type Inbound struct {
	data packet.Data
	ctrl packet.Control
	n    int // opened length; zero for control
}

// Decode opens raw in place under the flow's secure rules and parses it.
// A datagram that fails to open is dead: GCM zeroes what it refuses.
func (e *Endpoint) Decode(raw []byte) (in Inbound, ok bool) {
	if e.Sec != nil {
		// Open before the engine sees anything. Data packets are sealed
		// only in AEAD mode; control packets are always sealed and
		// replay-checked on a secure connection — except handshakes, which
		// predate the session (a duplicate response is ignored in Dispatch
		// anyway). Failures drop the datagram and count in Sec.Drops.
		if packet.IsControl(raw) {
			if !packet.IsHandshake(raw) {
				if raw, ok = e.Sec.OpenCtrl(raw); !ok {
					return in, false
				}
			}
		} else if e.aead {
			if raw, ok = e.Sec.OpenData(raw); !ok {
				return in, false
			}
		}
	}
	var err error
	if packet.IsControl(raw) {
		in.ctrl, err = packet.DecodeControl(raw)
	} else {
		in.n = len(raw)
		e.ledger.Time(timing.BucketUnpack, func() { in.data, err = packet.DecodeData(raw) })
	}
	return in, err == nil
}

// Dispatch runs a decoded datagram, arrived at time now, through the
// engine and buffers and reports what the shell must react to. It queues
// control emissions but does not drain them.
func (e *Endpoint) Dispatch(in *Inbound, now int64) (ev Event) {
	if in.n > 0 {
		// A packet the receive buffer has no slot for — it is full, or the
		// packet lies past the end of its window — means flow control was
		// overrun (or the reader is stuck): treat it as lost on the wire,
		// before the engine counts it; the protocol will retransmit it once
		// space reopens (§3.2). An honest peer overruns by one: a light ACK
		// goes out from inside HandleData, before the packet that triggered
		// it is stored, so it advertises one slot more than is free. Were
		// the engine to take such a packet it would acknowledge bytes the
		// reader can never get, and the stream would stall for good.
		if e.Rcv.Free() == 0 || e.Rcv.Beyond(in.data.Seq) {
			return EvDropped
		}
		var fresh bool
		e.ledger.Time(timing.BucketMeasure, func() { fresh = e.Eng.HandleData(now, in.data.Seq) })
		if !fresh {
			return EvHandled
		}
		e.Rcv.Store(in.data.Seq, in.data.Payload)
		e.BytesRecv += int64(in.n)
		return EvFreshData
	}
	ev = EvHandled
	e.ledger.Time(timing.BucketProcessCtrl, func() {
		switch in.ctrl.Type {
		case packet.TypeACK:
			if a, err := packet.DecodeACK(in.ctrl); err == nil {
				if newly := e.Eng.HandleACK(now, a); newly > 0 {
					e.Snd.Release(e.Eng.SndLastAck())
					ev = EvAcked
				}
			}
		case packet.TypeNAK:
			if nak, err := packet.DecodeNAK(in.ctrl); err == nil {
				e.ledger.Time(timing.BucketLossProc, func() { e.Eng.HandleNAK(now, nak.Losses) })
			}
		case packet.TypeACK2:
			e.Eng.HandleACK2(now, in.ctrl.Extra)
		case packet.TypeKeepAlive:
			e.Eng.HandleKeepAlive(now)
		case packet.TypeShutdown:
			e.Eng.HandleShutdown(now)
			ev = EvShutdown
		case packet.TypeHandshake:
			// Duplicate handshake response (our ACK of it was lost): ignore;
			// the listener answers duplicates for accepted conns.
		}
	})
	return ev
}
