package udt

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"udt/internal/mux"
	"udt/internal/netem"
	"udt/internal/packet"
)

var testPSK = []byte("secure-udt test pre-shared key!!") // 32 bytes

// securePair is one dialed client/server pairing on a netem fabric, with
// the client's raw endpoint kept around so tests can inject datagrams that
// arrive on the server's real read loop — the only race-safe way to spoof
// traffic at a live connection.
type securePair struct {
	nw     *netem.Net
	epC    *netem.Endpoint
	saddr  net.Addr
	client *Conn
	server *Conn
	ln     *Listener
}

// secureDial builds a netem fabric, starts a listener with scfg, and dials
// it with ccfg, returning the pairing on success or the dial error (with
// the listener still populated, so refusal tests can inspect its state).
func secureDial(t *testing.T, seed int64, ccfg, scfg *Config) (*securePair, error) {
	t.Helper()
	nw := netem.New(seed, nil)
	epC, err := nw.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	epS, err := nw.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLink("c", "s", netem.LinkConfig{Delay: 500})

	ln, err := ListenOn(epS, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &securePair{nw: nw, epC: epC, saddr: epS.LocalAddr(), ln: ln}

	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	p.client, err = DialOn(epC, p.saddr, ccfg)
	if err != nil {
		return p, err
	}
	t.Cleanup(func() { p.client.Close() })
	select {
	case p.server = <-accepted:
		t.Cleanup(func() { p.server.Close() })
		return p, nil
	case <-time.After(10 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil
	}
}

// stamped prefixes pkt with the server flow's socket ID, as the client's
// seat on its socket stamps real traffic. A dialed flow is routed by that
// ID, so an injected datagram reaches the connection only when it carries
// it; the ID travels in the clear, so an on-path attacker knows it.
func (p *securePair) stamped(pkt []byte) []byte {
	out := make([]byte, mux.DestPrefix+len(pkt))
	mux.PutDest(out, p.server.sock.(*muxFlow).id)
	copy(out[mux.DestPrefix:], pkt)
	return out
}

// echo pushes msg client→server and back, requiring both directions to
// deliver bit-exactly — the cheapest proof a pairing actually works.
func echo(t *testing.T, client, server *Conn, msg []byte) {
	t.Helper()
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("client→server corrupted: got %q", got)
	}
	if _, err := server.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("server→client corrupted: got %q", got)
	}
}

// waitFor polls cond until it holds or a generous deadline expires;
// injected datagrams cross the fabric asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(what)
}

// aeadOn reports whether c negotiated the sealed data channel.
func aeadOn(c *Conn) bool { return c.ep.Sec != nil && c.ep.Sec.AEAD() }

// TestSecureHandshakeAEAD is the happy path: both sides hold the PSK and
// ask for the sealed channel. The dial must traverse the cookie challenge
// (counted), both sessions must come up AEAD, and data must flow both ways.
func TestSecureHandshakeAEAD(t *testing.T) {
	cfg := &Config{PSK: testPSK, AEAD: true}
	p, err := secureDial(t, 21, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.client.ep.Sec == nil || p.server.ep.Sec == nil {
		t.Fatal("secure dial produced a cleartext session")
	}
	if !aeadOn(p.client) || !aeadOn(p.server) {
		t.Fatal("both sides requested AEAD but the sealed channel is off")
	}
	echo(t, p.client, p.server, []byte("sealed end to end"))
	if st := p.server.Stats(); st.CookieSent == 0 {
		t.Fatalf("first secure request was not cookie-challenged: %+v", st)
	}
	if st := p.client.Stats(); st.AuthRejects != 0 || st.ReplayDrops != 0 {
		t.Fatalf("clean run counted rejects: %+v", st)
	}
}

// TestSecureNegotiateDown walks the policy matrix for mismatched endpoint
// configurations: every cell either connects with the expected protection
// level or refuses with the expected error, and a strict listener must not
// allocate any per-connection state for peers it turns away.
func TestSecureNegotiateDown(t *testing.T) {
	strict := &Config{PSK: testPSK, HandshakeTimeout: 600 * time.Millisecond}
	lax := &Config{PSK: testPSK, AllowUnauth: true, HandshakeTimeout: 600 * time.Millisecond}
	clear := &Config{HandshakeTimeout: 600 * time.Millisecond}
	wrong := &Config{PSK: []byte("the wrong pre-shared key entirely"), HandshakeTimeout: 600 * time.Millisecond}

	t.Run("clear-client/strict-server", func(t *testing.T) {
		p, err := secureDial(t, 31, clear, strict)
		if err != ErrTimeout {
			t.Fatalf("strict server answered a clear client: err=%v", err)
		}
		// The refusal must be stateless: no accept entry, no flow, no
		// backlog slot — only the reject counter moves.
		m := p.ln.m
		if n := m.authRejects.Load(); n == 0 {
			t.Fatal("refused handshakes not counted")
		}
		m.mu.Lock()
		accepted, conns := len(m.accepted), len(m.conns)
		m.mu.Unlock()
		if accepted != 0 || conns != 0 || m.core.Flows() != 0 || len(p.ln.backlog) != 0 {
			t.Fatalf("refused peer allocated state: accepted=%d conns=%d flows=%d backlog=%d",
				accepted, conns, m.core.Flows(), len(p.ln.backlog))
		}
	})

	t.Run("clear-client/lax-server", func(t *testing.T) {
		p, err := secureDial(t, 32, clear, lax)
		if err != nil {
			t.Fatal(err)
		}
		if p.client.ep.Sec != nil || p.server.ep.Sec != nil {
			t.Fatal("clear client negotiated a secure session")
		}
		echo(t, p.client, p.server, []byte("negotiated down to clear"))
	})

	t.Run("strict-client/clear-server", func(t *testing.T) {
		_, err := secureDial(t, 33, strict, clear)
		if err != errAuthRequired {
			t.Fatalf("strict client accepted an unauthenticated server: err=%v", err)
		}
	})

	t.Run("lax-client/clear-server", func(t *testing.T) {
		p, err := secureDial(t, 34, lax, clear)
		if err != nil {
			t.Fatal(err)
		}
		if p.client.ep.Sec != nil || p.server.ep.Sec != nil {
			t.Fatal("clear server negotiated a secure session")
		}
		echo(t, p.client, p.server, []byte("lax client fell back"))
	})

	t.Run("wrong-psk-client/strict-server", func(t *testing.T) {
		p, err := secureDial(t, 35, wrong, strict)
		if err != ErrTimeout {
			t.Fatalf("mismatched PSKs produced a connection: err=%v", err)
		}
		if n := p.ln.m.authRejects.Load(); n == 0 {
			t.Fatal("bad-MAC handshakes not counted")
		}
		p.ln.m.mu.Lock()
		accepted := len(p.ln.m.accepted)
		p.ln.m.mu.Unlock()
		if accepted != 0 {
			t.Fatalf("bad-MAC peer allocated %d accept entries", accepted)
		}
	})

	t.Run("aead-client/auth-only-server", func(t *testing.T) {
		aead := &Config{PSK: testPSK, AEAD: true}
		p, err := secureDial(t, 36, aead, strict)
		if err != nil {
			t.Fatal(err)
		}
		if p.client.ep.Sec == nil || p.server.ep.Sec == nil {
			t.Fatal("session not authenticated")
		}
		if aeadOn(p.client) || aeadOn(p.server) {
			t.Fatal("AEAD granted though only one side requested it")
		}
		echo(t, p.client, p.server, []byte("authenticated, not sealed"))
	})
}

// TestSecureMuxDial runs the secure handshake between two shared sockets —
// the Mux dial path, cookie echo through the timer wheel and all.
func TestSecureMuxDial(t *testing.T) {
	nw := netem.New(41, nil)
	epC, err := nw.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	epS, err := nw.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLink("c", "s", netem.LinkConfig{Delay: 500})

	cfg := &Config{PSK: testPSK, AEAD: true}
	mc, err := NewMux(epC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	ms, err := NewMux(epS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	ln, err := ms.Listen()
	if err != nil {
		t.Fatal(err)
	}

	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := mc.Dial(epS.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	var server *Conn
	select {
	case server = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("accept timed out")
	}
	if !aeadOn(client) || !aeadOn(server) {
		t.Fatal("mux-to-mux dial did not come up AEAD")
	}
	echo(t, client, server, []byte("sealed across shared sockets"))
	if st := client.Stats(); st.CookieSent != 0 {
		// The dialing mux never challenged anyone; the counter is
		// per-socket, not global, so it must stay zero on this side.
		t.Fatalf("client-side mux counted cookie challenges: %+v", st)
	}
	if st := server.Stats(); st.CookieSent == 0 {
		t.Fatalf("secure mux dial skipped the cookie exchange: %+v", st)
	}
}

// TestSecureInjectedControlDropped establishes a sealed pair, then injects
// a forged cleartext shutdown from the client's own address — the
// strongest primitive an attacker without the PSK has, since source
// addresses can be spoofed and socket IDs read off the wire. The packet
// must be dropped and counted, bare and stamped alike, and the connection
// must keep working.
func TestSecureInjectedControlDropped(t *testing.T) {
	cfg := &Config{PSK: testPSK, AEAD: true}
	p, err := secureDial(t, 51, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	echo(t, p.client, p.server, []byte("before the forgery"))

	forged := make([]byte, 64)
	n, err := packet.EncodeSimple(forged, packet.TypeShutdown, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Inject through the client's endpoint so the forgery arrives on the
	// server's real read loop, like any wire datagram. Bare — no socket ID
	// ahead of it — it belongs to no flow: the demultiplexer counts it and
	// the connection never sees it.
	unrouted := p.server.Stats().MuxUnknownDest
	if _, err := p.epC.WriteTo(forged[:n], p.saddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bare forgery not counted by the demultiplexer", func() bool {
		return p.server.Stats().MuxUnknownDest == unrouted+1
	})
	if st := p.server.Stats(); st.AuthRejects != 0 {
		t.Fatalf("bare forgery reached the connection: %+v", st)
	}
	// Stamped with the flow's socket ID it reaches the connection's
	// authenticator, which must refuse it.
	if _, err := p.epC.WriteTo(p.stamped(forged[:n]), p.saddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "forged control packet not counted", func() bool {
		return p.server.Stats().AuthRejects > 0
	})
	// The forged shutdown must not have torn the connection down.
	echo(t, p.client, p.server, []byte("after the forgery"))
}

// TestSecureReplayedControlDropped replays a captured sealed control
// packet: the first copy authenticates and is admitted, the byte-identical
// second copy must die in the anti-replay window — the attack a plain
// AEAD check can't stop, since the replay carries a valid tag.
func TestSecureReplayedControlDropped(t *testing.T) {
	cfg := &Config{PSK: testPSK, AEAD: true}
	p, err := secureDial(t, 52, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	echo(t, p.client, p.server, []byte("prime the channel"))

	// Seal a keep-alive with the client's own send half — exactly the
	// bytes an eavesdropper could capture off the wire. Send-side session
	// state is guarded by the connection mutex, shared with the sender
	// loop.
	var raw [64]byte
	n, err := packet.EncodeSimple(raw[:], packet.TypeKeepAlive, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.client.mu.Lock()
	sealed := append([]byte(nil), p.client.ep.Sec.SealCtrl(raw[:n])...)
	p.client.mu.Unlock()

	// Bare, the capture matches no route and never reaches the replay
	// window; stamped with the flow's socket ID it does.
	st := p.server.Stats()
	before, unrouted := st.ReplayDrops, st.MuxUnknownDest
	if _, err := p.epC.WriteTo(sealed, p.saddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bare replay not counted by the demultiplexer", func() bool {
		return p.server.Stats().MuxUnknownDest == unrouted+1
	})
	for i := 0; i < 2; i++ {
		if _, err := p.epC.WriteTo(p.stamped(sealed), p.saddr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replayed control packet not dropped", func() bool {
		return p.server.Stats().ReplayDrops == before+1
	})
	if st := p.server.Stats(); st.AuthRejects != 0 {
		t.Fatalf("genuine sealed copy failed authentication: %+v", st)
	}
	// The session survives: the real channel still moves sealed data.
	echo(t, p.client, p.server, []byte("after the replay"))
}

// TestSecureLossyAEADTransferBitExact is the impaired-path acceptance run:
// 2 MB through loss, duplication and jitter with the sealed channel on.
// Retransmissions re-seal byte-identically (the AEAD nonce is the packet
// sequence number, and the mutable timestamp rides outside the sealed
// region), so the stream must still arrive bit-exact.
func TestSecureLossyAEADTransferBitExact(t *testing.T) {
	nw := netem.New(61, nil)
	epC, err := nw.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	epS, err := nw.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLink("c", "s", netem.LinkConfig{Delay: 1000, Jitter: 1000, Loss: 0.01, Dup: 0.002})

	cfg := &Config{PSK: testPSK, AEAD: true}
	ln, err := ListenOn(epS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := DialOn(epC, epS.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	var server *Conn
	select {
	case server = <-accepted:
		t.Cleanup(func() { server.Close() })
	case <-time.After(10 * time.Second):
		t.Fatal("accept timed out")
	}

	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(61)).Read(payload) //nolint:gosec // test data

	done := make(chan []byte, 1)
	go func() {
		got := make([]byte, 0, len(payload))
		buf := make([]byte, 64<<10)
		for len(got) < len(payload) {
			n, err := server.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- got
	}()
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if !bytes.Equal(got, payload) {
		t.Fatalf("sealed stream corrupted under impairment (%d bytes)", len(got))
	}
	if st := client.Stats(); st.PktsRetrans == 0 {
		t.Fatal("1% loss produced no retransmissions — resealing never exercised")
	}
	if cs := nw.PathStats("c", "s"); cs.Duplicated == 0 {
		t.Fatalf("fabric duplicated nothing: %+v", cs)
	}
	// Impairment must never look like an attack: loss and duplication of
	// data packets are the engine's business (duplicate-triggered re-ACKs
	// are load-bearing), not the AEAD layer's.
	if st := client.Stats(); st.AuthRejects != 0 {
		t.Fatalf("impairment alone produced auth rejects: %+v", st)
	}
}
