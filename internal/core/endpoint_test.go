package core

import (
	"encoding/binary"
	"testing"

	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
)

// testSessions returns the two ends of one sealed channel whose local side
// sends from isn and whose peer sends from peerISN.
func testSessions(isn, peerISN int32, aead bool) (local, peer *secure.Session) {
	k := secure.DeriveKeys([]byte("endpoint-test pre-shared key 32b"))
	cn, sn := []byte("client-nonce-16b"), []byte("server-nonce-16b")
	return secure.NewSession(k, cn, sn, true, isn, peerISN, aead),
		secure.NewSession(k, cn, sn, false, peerISN, isn, aead)
}

// TestEndpointDispatch feeds the shared receive path one datagram per row,
// in each security mode, and checks the event the shell would react to, the
// engine counters and the sealing drop counters — the coverage that needed
// sockets while the path lived in udt.Conn.
func TestEndpointDispatch(t *testing.T) {
	const isn, peerISN, now = int32(1000), int32(5000), int64(1_000_000)
	const dataLen = 100

	// Builders for the packets a peer would put on the wire, unsealed, each
	// with spare capacity for a seal.
	buf := func() []byte { return make([]byte, 256, 320) }
	data := func(seq int32) []byte {
		b := buf()
		n, err := packet.EncodeData(b, &packet.Data{Seq: seq, Payload: make([]byte, dataLen)})
		if err != nil {
			t.Fatal(err)
		}
		return b[:n]
	}
	simple := func(typ packet.ControlType) []byte {
		b := buf()
		n, _ := packet.EncodeSimple(b, typ, 0)
		return b[:n]
	}
	ack := func() []byte {
		b := buf()
		n, _ := packet.EncodeACK(b, &packet.ACK{AckID: 1, Seq: isn + 1, RTT: 1000, RTTVar: 100, AvailBuf: 8}, 0)
		return b[:n]
	}
	nak := func() []byte {
		b := buf()
		n, _ := packet.EncodeNAK(b, []packet.Range{{Start: isn, End: isn}}, 0)
		return b[:n]
	}
	ack2 := func() []byte {
		b := buf()
		n, _ := packet.EncodeACK2(b, 7, 0)
		return b[:n]
	}
	handshake := func() []byte {
		b := buf()
		n, err := packet.EncodeHandshake(b, &packet.Handshake{Version: packet.Version, InitSeq: peerISN, MSS: 576, FlowWindow: 16, ReqType: packet.HSResponse, SockID: -0x7ff70000, PeerSockID: -0x7ff6ffff}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b[:n]
	}
	badType := func() []byte {
		b := simple(packet.TypeKeepAlive)
		binary.BigEndian.PutUint32(b, 1<<31|0x7fff<<16)
		return b
	}
	flip := func(b []byte) []byte { b[len(b)-1] ^= 1; return b }

	type probe struct {
		e     *Endpoint
		seal  func([]byte) []byte // as the peer would seal it in this mode
		stash []byte              // a wire image prep keeps for raw
	}
	// sendOne puts one data packet in flight so ACK and NAK have a target.
	sendOne := func(p *probe) {
		p.e.Snd.Write(make([]byte, dataLen))
		var lens [1]int
		if n, _, _ := p.e.ClaimBurst(now, 0, make([]byte, 576), lens[:]); n != 1 {
			t.Fatalf("claimed %d packets, want 1", n)
		}
	}
	deliver := func(p *probe, raw []byte) Event {
		in, ok := p.e.Decode(raw)
		if !ok {
			return EvDropped
		}
		return p.e.Dispatch(&in, now)
	}

	rows := []struct {
		name     string
		secure   bool                  // row applies to sealed modes only
		aead     bool                  // row applies to AEAD only
		prep     func(p *probe)        // state before the datagram
		raw      func(p *probe) []byte // the datagram as it arrives
		want     Event
		check    func(t *testing.T, e *Endpoint)
		authFail uint64 // expected in sealed modes
		replays  uint64
	}{
		{name: "data fresh",
			raw:  func(p *probe) []byte { return p.seal(data(peerISN)) },
			want: EvFreshData,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.PktsRecv != 1 || e.Rcv.Available() != dataLen || e.BytesRecv != packet.DataHeaderSize+dataLen {
					t.Fatalf("recv=%d avail=%d bytes=%d", e.Eng.Stats.PktsRecv, e.Rcv.Available(), e.BytesRecv)
				}
			}},
		{name: "data duplicate",
			prep: func(p *probe) { deliver(p, p.seal(data(peerISN))) },
			raw:  func(p *probe) []byte { return p.seal(data(peerISN)) },
			want: EvHandled,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.PktsDup != 1 || e.BytesRecv != packet.DataHeaderSize+dataLen {
					t.Fatalf("dup=%d bytes=%d", e.Eng.Stats.PktsDup, e.BytesRecv)
				}
			}},
		{name: "data receive buffer full",
			prep: func(p *probe) {
				deliver(p, p.seal(data(peerISN)))
				deliver(p, p.seal(data(peerISN+1)))
			},
			raw:  func(p *probe) []byte { return p.seal(data(peerISN + 2)) },
			want: EvDropped,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.PktsRecv != 2 || e.Eng.LRSN() != peerISN+1 {
					t.Fatalf("engine saw the overrun packet: recv=%d lrsn=%d", e.Eng.Stats.PktsRecv, e.Eng.LRSN())
				}
			}},
		// One slot is still free — the head packet is missing — but the
		// arrival lies past the two-packet window: the engine must not count
		// (and later acknowledge) a packet the buffer cannot hold.
		{name: "data beyond receive window",
			prep: func(p *probe) { deliver(p, p.seal(data(peerISN+1))) },
			raw:  func(p *probe) []byte { return p.seal(data(peerISN + 2)) },
			want: EvDropped,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.PktsRecv != 1 || e.Eng.LRSN() != peerISN+1 || e.Rcv.Free() != 1 {
					t.Fatalf("engine saw the overrun packet: recv=%d lrsn=%d free=%d", e.Eng.Stats.PktsRecv, e.Eng.LRSN(), e.Rcv.Free())
				}
			}},
		{name: "ack", prep: sendOne,
			raw:  func(p *probe) []byte { return p.seal(ack()) },
			want: EvAcked,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.ACKsRecv != 1 || e.Snd.Pending() != 0 || e.Eng.PendingOut() == 0 {
					t.Fatalf("acks=%d pending=%d out=%d (want an ACK2 queued)", e.Eng.Stats.ACKsRecv, e.Snd.Pending(), e.Eng.PendingOut())
				}
			}},
		{name: "ack short body", prep: sendOne,
			raw:  func(p *probe) []byte { b := ack(); return p.seal(b[:packet.CtrlHeaderSize+2]) },
			want: EvHandled,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.ACKsRecv != 0 || e.Snd.Pending() != 1 {
					t.Fatalf("malformed ACK reached the engine: acks=%d pending=%d", e.Eng.Stats.ACKsRecv, e.Snd.Pending())
				}
			}},
		{name: "nak", prep: sendOne,
			raw:  func(p *probe) []byte { return p.seal(nak()) },
			want: EvHandled,
			check: func(t *testing.T, e *Endpoint) {
				if e.Eng.Stats.NAKsRecv != 1 {
					t.Fatalf("naks=%d", e.Eng.Stats.NAKsRecv)
				}
			}},
		{name: "ack2", raw: func(p *probe) []byte { return p.seal(ack2()) }, want: EvHandled},
		{name: "keep-alive", raw: func(p *probe) []byte { return p.seal(simple(packet.TypeKeepAlive)) }, want: EvHandled},
		{name: "shutdown",
			raw:  func(p *probe) []byte { return p.seal(simple(packet.TypeShutdown)) },
			want: EvShutdown,
			check: func(t *testing.T, e *Endpoint) {
				if !e.Eng.Closed() {
					t.Fatal("engine still open after peer shutdown")
				}
			}},
		// Handshakes predate the session: never sealed, never opened.
		{name: "duplicate handshake", raw: func(*probe) []byte { return handshake() }, want: EvHandled},
		{name: "truncated header",
			raw:  func(*probe) []byte { return simple(packet.TypeKeepAlive)[:8] },
			want: EvDropped, authFail: 1},
		{name: "unknown control type", raw: func(p *probe) []byte { return p.seal(badType()) }, want: EvDropped},
		{name: "tampered control", secure: true,
			raw:  func(p *probe) []byte { return flip(p.seal(simple(packet.TypeKeepAlive))) },
			want: EvDropped, authFail: 1},
		{name: "replayed control", secure: true,
			prep: func(p *probe) {
				// Every seal draws the next control sequence number, so the
				// replay is the first keep-alive's bytes again.
				first := p.seal(simple(packet.TypeKeepAlive))
				p.stash = append([]byte(nil), first...)
				deliver(p, first)
			},
			raw:  func(p *probe) []byte { return p.stash },
			want: EvDropped, replays: 1},
		{name: "tampered data", secure: true, aead: true,
			raw:  func(p *probe) []byte { return flip(p.seal(data(peerISN))) },
			want: EvDropped, authFail: 1},
		{name: "unsealed data", secure: true, aead: true,
			raw:  func(*probe) []byte { return data(peerISN) },
			want: EvDropped, authFail: 1},
	}

	modes := []struct {
		name         string
		secure, aead bool
	}{{"clear", false, false}, {"psk", true, false}, {"aead", true, true}}
	for _, m := range modes {
		for _, r := range rows {
			if (r.secure && !m.secure) || (r.aead && !m.aead) {
				continue
			}
			t.Run(m.name+"/"+r.name, func(t *testing.T) {
				p := &probe{seal: func(b []byte) []byte { return b }}
				var local *secure.Session
				if m.secure {
					var peer *secure.Session
					local, peer = testSessions(isn, peerISN, m.aead)
					p.seal = func(b []byte) []byte {
						if packet.IsControl(b) {
							return peer.SealCtrl(b)
						}
						if m.aead {
							return peer.SealData(b)
						}
						return b
					}
				}
				e := NewEndpoint(EndpointConfig{
					Engine: Config{MSS: 576, ISN: isn}, PeerISN: peerISN,
					SndBufPkts: 4, RcvBufPkts: 2, Sec: local,
				})
				e.Eng.Start(now)
				p.e = &e
				if r.prep != nil {
					r.prep(p)
				}
				if got := deliver(p, r.raw(p)); got != r.want {
					t.Fatalf("event %d, want %d", got, r.want)
				}
				if r.check != nil {
					r.check(t, &e)
				}
				if m.secure {
					if af, rp := local.Drops(); af != r.authFail || rp != r.replays {
						t.Fatalf("drops: authFail=%d replays=%d, want %d/%d", af, rp, r.authFail, r.replays)
					}
				}
			})
		}
	}
}

// TestEndpointNAKFitsMSS is the regression test for over-MTU NAKs: with the
// engine's default 128-range report limit a 576-byte-MSS flow that lost 220
// two-packet runs emitted a 1040-byte NAK. Every drained control datagram
// must fit the MSS, and the ranges one NAK cannot carry must go out on the
// following NAK timers.
func TestEndpointNAKFitsMSS(t *testing.T) {
	const mss, runs = 576, 220
	for _, sealed := range []bool{false, true} {
		var local, peer *secure.Session
		name := "clear"
		if sealed {
			name = "sealed"
			local, peer = testSessions(0, 0, false)
		}
		t.Run(name, func(t *testing.T) {
			e := NewEndpoint(EndpointConfig{
				Engine: Config{MSS: mss}, SndBufPkts: 4, RcvBufPkts: 1024, Sec: local,
			})
			now := int64(1_000_000)
			e.Eng.Start(now)
			// Every third packet arrives: 220 isolated two-packet losses,
			// each reported once on detection.
			want := make(map[packet.Range]bool, runs)
			for i := int32(0); i <= runs; i++ {
				e.Eng.HandleData(now, 3*i)
				if i > 0 {
					want[packet.Range{Start: 3*i - 2, End: 3*i - 1}] = true
				}
			}
			var b SendBatch
			e.DrainOutbox(&b, 0)

			// Re-reports ride the NAK timer. One second on, all 220 are due.
			first, nakTimers := 0, 0
			for now += 1_000_000; len(want) > 0 && nakTimers < 8; now += DefaultSYN {
				e.Eng.Advance(now)
				e.DrainOutbox(&b, int32(now))
				for _, m := range b.Msgs {
					if len(m) > mss {
						t.Fatalf("control datagram of %d bytes on a %d-byte-MSS flow", len(m), mss)
					}
					if sealed {
						var ok bool
						if m, ok = peer.OpenCtrl(m); !ok {
							t.Fatal("drained control datagram does not open")
						}
					}
					c, err := packet.DecodeControl(m)
					if err != nil {
						t.Fatal(err)
					}
					if c.Type != packet.TypeNAK {
						continue
					}
					n, err := packet.DecodeNAK(c)
					if err != nil {
						t.Fatal(err)
					}
					if nakTimers++; nakTimers == 1 {
						first = len(n.Losses)
					}
					for _, r := range n.Losses {
						if !want[r] {
							t.Fatalf("NAK %d re-reports %v before every loss was reported once", nakTimers, r)
						}
						delete(want, r)
					}
				}
			}
			if first == 0 || first >= runs {
				t.Fatalf("first timer NAK carried %d of %d ranges; the cap did not bite", first, runs)
			}
			if len(want) != 0 {
				t.Fatalf("%d ranges never re-reported after %d NAK timers", len(want), nakTimers)
			}
			if got := seqno.Off(0, e.Eng.LRSN()); got != 3*runs {
				t.Fatalf("lrsn offset %d, want %d", got, 3*runs)
			}
		})
	}
}
