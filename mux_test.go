package udt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"udt/internal/mux"
	"udt/internal/packet"
)

// newLoopbackMux builds a Mux on a fresh 127.0.0.1 UDP socket.
func newLoopbackMux(t *testing.T, cfg *Config) *Mux {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// deadlineLog records the read deadlines a reader sets.
type deadlineLog []time.Time

func (l *deadlineLog) SetReadDeadline(d time.Time) error {
	*l = append(*l, d)
	return nil
}

// TestKeepReadDeadline pins the read loops' deadline rule: a burst of
// batches moves the deadline once, to 100 ms ahead, and the next move comes
// while 50 ms of it are still left, so a socket that receives at least every
// 50 ms never reads into a lapsed deadline (each lapse allocates an error in
// package net).
func TestKeepReadDeadline(t *testing.T) {
	var set deadlineLog
	var renew time.Time
	start := time.Now()
	for i := 0; i < 1000; i++ {
		keepReadDeadline(&set, &renew)
	}
	if len(set) != 1 {
		t.Fatalf("%d deadline moves over a burst of batches, want 1", len(set))
	}
	if ahead := set[0].Sub(start); ahead < 100*time.Millisecond || ahead > time.Second {
		t.Fatalf("deadline set %v ahead, want 100 ms", ahead)
	}
	if left := set[0].Sub(renew); left != 50*time.Millisecond {
		t.Fatalf("deadline renewed with %v of it left, want 50 ms", left)
	}
}

// TestMuxDialListen runs several multiplexed flows between two Muxes over
// one UDP socket pair and checks bidirectional data integrity.
func TestMuxDialListen(t *testing.T) {
	cfg := &Config{Rand: rand.New(rand.NewSource(42))}
	ma := newLoopbackMux(t, cfg)
	mb := newLoopbackMux(t, &Config{Rand: rand.New(rand.NewSource(43))})
	ln, err := mb.Listen()
	if err != nil {
		t.Fatal(err)
	}

	const flows = 4
	const size = 256 << 10

	// Echo server: read size bytes, write them back.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c *Conn) {
				buf := make([]byte, size)
				if _, err := io.ReadFull(c, buf); err != nil {
					t.Errorf("server read: %v", err)
					return
				}
				if _, err := c.Write(buf); err != nil {
					t.Errorf("server write: %v", err)
				}
			}(c)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ma.Dial(mb.Addr())
			if err != nil {
				t.Errorf("flow %d: dial: %v", i, err)
				return
			}
			t.Cleanup(func() { c.Close() }) // keep flows resident for the table checks below
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(i))).Read(data)
			go c.Write(data) //nolint:errcheck
			got := make([]byte, size)
			if _, err := io.ReadFull(c, got); err != nil {
				t.Errorf("flow %d: read: %v", i, err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("flow %d: echo mismatch", i)
			}
		}(i)
	}
	wg.Wait()

	if got := ma.Flows(); got != flows {
		t.Errorf("dial-side Flows() = %d, want %d", got, flows)
	}
	if got := mb.Flows(); got != flows {
		t.Errorf("listen-side Flows() = %d, want %d", got, flows)
	}
	unknown, short := ma.Counters()
	if unknown != 0 || short != 0 {
		t.Errorf("dial-side drop counters = (%d, %d), want (0, 0)", unknown, short)
	}
}

// TestMuxManyFlowsStress drives many concurrent checksummed flows through
// one shared socket pair — the demux, handshake dedup, and per-flow
// delivery all race against each other, which is the point: run it with
// -race. Buffers are sized down so a thousand engines fit in memory.
func TestMuxManyFlowsStress(t *testing.T) {
	flows := 1000
	if testing.Short() {
		flows = 100
	}
	const perFlow = 4 << 10

	// A thousand engines share two read loops, so the per-flow control
	// cadence is relaxed (SYN 100 ms) to keep aggregate control traffic —
	// 2N keep-alive/ACK streams — from drowning the sockets, and the
	// peer-death timeout is generous: under -race the scheduler can starve
	// individual flows for seconds without anything being wrong.
	cfg := &Config{
		MSS:              512,
		SYN:              100 * time.Millisecond,
		SndBuf:           16,
		RcvBuf:           32,
		PerfHistory:      -1,
		PeerDeathTimeout: 60 * time.Second,
		HandshakeTimeout: 60 * time.Second,
	}
	ma := newLoopbackMux(t, cfg)
	mb := newLoopbackMux(t, cfg)
	ln, err := mb.Listen()
	if err != nil {
		t.Fatal(err)
	}

	// Echo servers: drain the backlog as fast as it fills.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// No Close here: Close is abrupt (no lingering flush), so the
			// shutdown notice could outrun the queued echo. Mux teardown
			// closes accepted connections at test end.
			go func(c *Conn) {
				buf := make([]byte, perFlow)
				if _, err := io.ReadFull(c, buf); err != nil {
					return // client already failed; it reports the error
				}
				c.Write(buf) //nolint:errcheck
			}(c)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, flows)
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ma.Dial(mb.Addr())
			if err != nil {
				errs <- fmt.Errorf("flow %d: dial: %w", i, err)
				return
			}
			defer c.Close()
			data := make([]byte, perFlow)
			rand.New(rand.NewSource(int64(i))).Read(data)
			want := sha256.Sum256(data)
			go c.Write(data) //nolint:errcheck
			h := sha256.New()
			if _, err := io.CopyN(h, c, perFlow); err != nil {
				errs <- fmt.Errorf("flow %d: read: %w", i, err)
				return
			}
			var got [32]byte
			copy(got[:], h.Sum(nil))
			if got != want {
				errs <- fmt.Errorf("flow %d: checksum mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// encodeHS encodes a handshake for a hand-rolled peer; bare cuts it down to
// the paper's own 28-byte body, which no encoder produces any more.
func encodeHS(t *testing.T, hs *packet.Handshake, bare bool) []byte {
	t.Helper()
	out := make([]byte, hsBufSize)
	n, err := packet.EncodeHandshake(out, hs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bare {
		n = packet.CtrlHeaderSize + 28
	}
	return out[:n]
}

// wantCounters waits for a Mux's drop counters to reach exactly the given
// totals — each refused datagram is counted once, under one name.
func wantCounters(t *testing.T, m *Mux, unknown, short uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("drop counters never reached (%d, %d)", unknown, short), func() bool {
		u, s := m.Counters()
		return u == unknown && s == short
	})
}

// TestMuxRefusesBareHandshake pins the one wire format: a flow exists only
// between two endpoints that both advertised a valid socket ID. A request
// without one — the paper's 28-byte handshake, or the extended body with a
// zero or out-of-space ID — gets no reply and leaves no state behind; a
// response or rendezvous crossing without one is not an answer, and the
// dial completes on the real response that follows. Each refusal moves
// exactly one counter by one.
func TestMuxRefusesBareHandshake(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	in := make([]byte, 65536)

	// Listener side.
	m := newLoopbackMux(t, nil)
	if _, err := m.Listen(); err != nil {
		t.Fatal(err)
	}
	req := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    1000,
		MSS:        1472,
		FlowWindow: 8192,
		ReqType:    packet.HSRequest,
		ConnID:     77,
	}
	peer.WriteTo(encodeHS(t, &req, true), m.Addr()) //nolint:errcheck
	wantCounters(t, m, 0, 1)
	peer.WriteTo(encodeHS(t, &req, false), m.Addr()) //nolint:errcheck
	wantCounters(t, m, 1, 1)
	req.SockID = 5                                   // nonzero, but a control packet's first word, not an ID
	peer.WriteTo(encodeHS(t, &req, false), m.Addr()) //nolint:errcheck
	wantCounters(t, m, 2, 1)
	// Replies are sent from the read loop before the next datagram is
	// counted, so anything owed to the first two requests is already queued.
	peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	if n, _, err := peer.ReadFrom(in); err == nil {
		t.Fatalf("a request without a socket ID was answered: % x", in[:n])
	}
	m.mu.Lock()
	accepted, conns := len(m.accepted), len(m.conns)
	m.mu.Unlock()
	if m.Flows() != 0 || accepted != 0 || conns != 0 {
		t.Fatalf("refused requests left state: Flows=%d accepted=%d conns=%d", m.Flows(), accepted, conns)
	}

	// Dialing side: a rendezvous dial, so a crossing request is in play too.
	d := newLoopbackMux(t, nil)
	dialed := make(chan *Conn, 1)
	go func() {
		c, err := d.Rendezvous(peer.LocalAddr())
		if err != nil {
			t.Errorf("rendezvous: %v", err)
		}
		dialed <- c
	}()
	peer.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, _, err := peer.ReadFrom(in)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := packet.DecodeControl(in[:n])
	if err != nil {
		t.Fatal(err)
	}
	dreq, err := packet.DecodeHandshake(ctrl)
	if err != nil || !mux.IDValid(dreq.SockID) {
		t.Fatalf("dialer's request = %+v (err %v), want a valid SockID", dreq, err)
	}
	const peerISN = 424242
	resp := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    peerISN + 1, // not the sequence space the data below is in
		MSS:        dreq.MSS,
		FlowWindow: dreq.FlowWindow,
		ReqType:    packet.HSResponse,
		ConnID:     dreq.ConnID,
		PeerSockID: dreq.SockID,
	}
	cross := resp
	cross.ReqType, cross.RdvFlags = packet.HSRequest, packet.RdvDial // RdvNonce 0 loses the tie-break: accepted, it would be answered
	peer.WriteTo(encodeHS(t, &resp, true), d.Addr())                 //nolint:errcheck
	peer.WriteTo(encodeHS(t, &resp, false), d.Addr())                //nolint:errcheck
	peer.WriteTo(encodeHS(t, &cross, false), d.Addr())               //nolint:errcheck
	resp.InitSeq, resp.SockID = peerISN, mux.MakeID(1)
	peer.WriteTo(encodeHS(t, &resp, false), d.Addr()) //nolint:errcheck
	c := <-dialed
	if c == nil {
		t.FailNow()
	}
	defer c.Close()
	wantCounters(t, d, 2, 1)
	// Deliverable only if the connection was built from the last response.
	data := make([]byte, 64)
	mux.PutDest(data, dreq.SockID)
	n, err = packet.EncodeData(data[mux.DestPrefix:], &packet.Data{Seq: peerISN, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	peer.WriteTo(data[:mux.DestPrefix+n], d.Addr()) //nolint:errcheck
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("read %q, %v; want \"ok\" in the real response's sequence space", buf, err)
	}
}

// TestMuxDialIgnoresStrayCookie pins that only a response completes a
// dial: a clear dial (no PSK) that is sent a cookie challenge — addressed
// exactly right, but all-zero where a response carries the parameters —
// must keep waiting and complete on the real response that follows.
func TestMuxDialIgnoresStrayCookie(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The server answers the first request with the challenge and the
	// retransmitted one with a response; dialID carries the dial's socket ID
	// out, for the data packet below.
	const srvISN = 424242
	out := make([]byte, 1500)
	dialID := make(chan int32, 1)
	go func() {
		buf := make([]byte, 65536)
		for reqs := 0; ; reqs++ {
			n, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			ctrl, err := packet.DecodeControl(buf[:n])
			if err != nil || ctrl.Type != packet.TypeHandshake {
				return
			}
			hs, err := packet.DecodeHandshake(ctrl)
			if err != nil {
				return
			}
			reply := packet.Handshake{
				Version:    packet.Version,
				ReqType:    packet.HSCookie,
				ConnID:     hs.ConnID,
				PeerSockID: hs.SockID,
				SecFlags:   1,
				Cookie:     0xfeedface,
			}
			if reqs > 0 {
				reply = packet.Handshake{
					Version:    packet.Version,
					InitSeq:    srvISN,
					MSS:        hs.MSS,
					FlowWindow: hs.FlowWindow,
					ReqType:    packet.HSResponse,
					ConnID:     hs.ConnID,
					SockID:     mux.MakeID(1),
					PeerSockID: hs.SockID,
				}
			}
			if n, err = packet.EncodeHandshake(out, &reply, 0); err == nil {
				srv.WriteTo(out[:n], from) //nolint:errcheck
			}
			if reqs > 0 {
				dialID <- hs.SockID
				return
			}
		}
	}()

	m := newLoopbackMux(t, nil)
	c, err := m.Dial(srv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first data packet of the response's sequence space is deliverable
	// only if the connection was built from the response.
	data := make([]byte, 64)
	mux.PutDest(data, <-dialID)
	n, err := packet.EncodeData(data[mux.DestPrefix:], &packet.Data{Seq: srvISN, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WriteTo(data[:mux.DestPrefix+n], m.Addr()); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 2)
		io.ReadFull(c, buf) //nolint:errcheck
		got <- string(buf)
	}()
	select {
	case s := <-got:
		if s != "ok" {
			t.Fatalf("read %q, want \"ok\"", s)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("dial did not complete with the response's InitSeq (cookie taken as the answer?)")
	}
}

// TestMuxDropCounters drives unroutable datagrams at a Mux and checks they
// are counted — never silently dropped — and that the totals surface
// through Conn.Stats.
func TestMuxDropCounters(t *testing.T) {
	ma := newLoopbackMux(t, nil)
	mb := newLoopbackMux(t, nil)
	if _, err := mb.Listen(); err != nil {
		t.Fatal(err)
	}
	// A live flow, to read Stats from.
	c, err := ma.Dial(mb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	target := ma.Addr()

	send := func(b []byte) {
		t.Helper()
		if _, err := raw.WriteTo(b, target); err != nil {
			t.Fatal(err)
		}
	}
	// Too short to classify at all.
	send([]byte{0x01, 0x02})
	// Valid socket-ID prefix but no room for a packet behind it.
	short := make([]byte, mux.DestPrefix+2)
	mux.PutDest(short, mux.MakeID(0x12345678))
	send(short)
	// Valid socket-ID prefix + full data packet, but the ID is resident
	// nowhere.
	ghost := make([]byte, mux.DestPrefix+packet.DataHeaderSize+4)
	mux.PutDest(ghost, mux.MakeID(0x23456789))
	send(ghost)
	// A control packet (keep-alive) without a socket ID: no flow's.
	ka := make([]byte, 64)
	n, err := packet.EncodeSimple(ka, packet.TypeKeepAlive, 0)
	if err != nil {
		t.Fatal(err)
	}
	send(ka[:n])
	// A handshake too short to carry the socket-ID words, and a full-size
	// request that advertises none.
	req := packet.Handshake{Version: packet.Version, ReqType: packet.HSRequest, ConnID: 9}
	send(encodeHS(t, &req, true))
	send(encodeHS(t, &req, false))

	wantCounters(t, ma, 3, 3)
	st := c.Stats()
	if st.MuxUnknownDest != 3 || st.MuxShortDatagram != 3 {
		t.Errorf("Stats mux counters = (%d, %d), want (3, 3)",
			st.MuxUnknownDest, st.MuxShortDatagram)
	}
}

// TestMuxCloseUnblocks checks that Close unblocks a pending Accept and
// fails later dials.
func TestMuxCloseUnblocks(t *testing.T) {
	m := newLoopbackMux(t, nil)
	ln, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accepted <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-accepted:
		if err != ErrClosed {
			t.Fatalf("Accept after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept still blocked after Close")
	}
	if _, err := m.Dial(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}); err != ErrClosed {
		t.Fatalf("Dial after Close = %v, want ErrClosed", err)
	}
}

// TestTransientNetErr pins the classification that keeps a shared socket
// alive: queued ICMP errors (a departed peer's port unreachable) are
// datagram loss, not a dead transport; everything else still tears down.
func TestTransientNetErr(t *testing.T) {
	transient := []error{
		syscall.ECONNREFUSED,
		syscall.EHOSTUNREACH,
		syscall.ENETUNREACH,
		syscall.EINTR,
		syscall.ENOBUFS,
		syscall.EPERM,
		fmt.Errorf("write udp: %w", syscall.ECONNREFUSED), // wrapped, as net returns it
	}
	for _, err := range transient {
		if !transientNetErr(err) {
			t.Errorf("transientNetErr(%v) = false, want true", err)
		}
	}
	fatal := []error{net.ErrClosed, syscall.EBADF, syscall.EINVAL, io.EOF, nil}
	for _, err := range fatal {
		if transientNetErr(err) {
			t.Errorf("transientNetErr(%v) = true, want false", err)
		}
	}
}
