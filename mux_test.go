package udt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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

// fakeAddr is a non-UDP net.Addr for addrEqual's string-compare arm.
type fakeAddr struct{ network, str string }

func (a fakeAddr) Network() string { return a.network }
func (a fakeAddr) String() string  { return a.str }

func TestAddrEqual(t *testing.T) {
	udp := func(ip string, port int) *net.UDPAddr {
		return &net.UDPAddr{IP: net.ParseIP(ip), Port: port}
	}
	same := udp("10.0.0.1", 9000)
	cases := []struct {
		name string
		a, b net.Addr
		want bool
	}{
		{"identity", same, same, true},
		{"equal udp", udp("10.0.0.1", 9000), udp("10.0.0.1", 9000), true},
		{"mapped v4-in-v6 left", udp("::ffff:127.0.0.1", 7), udp("127.0.0.1", 7), true},
		{"mapped v4-in-v6 right", udp("127.0.0.1", 7), udp("::ffff:127.0.0.1", 7), true},
		{"port differs", udp("127.0.0.1", 7), udp("127.0.0.1", 8), false},
		{"ip differs", udp("127.0.0.1", 7), udp("127.0.0.2", 7), false},
		{"nil left", nil, udp("127.0.0.1", 7), false},
		{"nil right", udp("127.0.0.1", 7), nil, false},
		{"both nil", nil, nil, true},
		{"udp vs same-string fake", udp("127.0.0.1", 7), fakeAddr{"udp", "127.0.0.1:7"}, true},
		{"udp vs other-network fake", udp("127.0.0.1", 7), fakeAddr{"netem", "127.0.0.1:7"}, false},
		{"fake vs fake equal", fakeAddr{"netem", "a"}, fakeAddr{"netem", "a"}, true},
		{"fake vs fake differ", fakeAddr{"netem", "a"}, fakeAddr{"netem", "b"}, false},
	}
	for _, tc := range cases {
		if got := addrEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: addrEqual = %v, want %v", tc.name, got, tc.want)
		}
		if got := addrEqual(tc.b, tc.a); got != tc.want {
			t.Errorf("%s (swapped): addrEqual = %v, want %v", tc.name, got, tc.want)
		}
	}
}

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

// TestMuxAcceptsOldClient checks the compatibility path for paper-era
// clients — the listener's by-address route — with a hand-rolled client on
// a raw UDP socket (every client in this package now speaks the extended
// handshake): a 28-byte request gets a 28-byte response, a bare data packet
// reaches the accepted connection, and everything that comes back is
// unprefixed. The flow must run bare, routed by the client's address.
func TestMuxAcceptsOldClient(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	acceptErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acceptErr <- fmt.Errorf("accept: %w", err)
			return
		}
		// No Close here: it would race the queued reply with the shutdown
		// notice; ln.Close tears the connection down at test end.
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			acceptErr <- fmt.Errorf("server read: %w", err)
			return
		}
		if string(buf) != "hello" {
			acceptErr <- fmt.Errorf("server got %q", buf)
			return
		}
		if _, err := c.Write([]byte("world")); err != nil {
			acceptErr <- fmt.Errorf("server write: %w", err)
			return
		}
		acceptErr <- nil
	}()

	cli, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	// recv reads the next datagram, which — like everything an old client
	// is sent — must not carry a socket-ID prefix.
	in := make([]byte, 65536)
	recv := func() []byte {
		t.Helper()
		n, _, err := cli.ReadFrom(in)
		if err != nil {
			t.Fatalf("old client read: %v", err)
		}
		if mux.IDValid(int32(binary.BigEndian.Uint32(in))) {
			t.Fatalf("old client was sent a socket-ID-prefixed datagram: % x", in[:n])
		}
		return in[:n]
	}

	// The paper-era handshake: base fields only, no socket ID.
	const oldHS = packet.CtrlHeaderSize + packet.HandshakeBody
	req := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    1000,
		MSS:        1472,
		FlowWindow: 8192,
		ReqType:    packet.HSRequest,
		ConnID:     77,
	}
	out := make([]byte, 1500)
	n, err := packet.EncodeHandshake(out, &req, 0)
	if err != nil || n != oldHS {
		t.Fatalf("old-style request is %d bytes (err %v), want %d", n, err, oldHS)
	}
	if _, err := cli.WriteTo(out[:n], ln.Addr()); err != nil {
		t.Fatal(err)
	}
	raw := recv()
	if len(raw) != oldHS || !packet.IsHandshake(raw) {
		t.Fatalf("response is %d bytes, want the %d-byte paper-era handshake", len(raw), oldHS)
	}
	ctrl, err := packet.DecodeControl(raw)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := packet.DecodeHandshake(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReqType != packet.HSResponse || resp.ConnID != req.ConnID || resp.Ext() {
		t.Fatalf("response = %+v, want a bare response to conn %d", resp, req.ConnID)
	}

	// One bare data packet out; the server's reply comes back bare too
	// (behind whatever bare control packets recv lets through).
	n, err = packet.EncodeData(out, &packet.Data{Seq: req.InitSeq, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.WriteTo(out[:n], ln.Addr()); err != nil {
		t.Fatal(err)
	}
	for {
		raw := recv()
		if packet.IsControl(raw) {
			continue
		}
		d, err := packet.DecodeData(raw)
		if err != nil {
			t.Fatal(err)
		}
		if d.Seq != resp.InitSeq || string(d.Payload) != "world" {
			t.Fatalf("client got seq %d %q, want seq %d \"world\"", d.Seq, d.Payload, resp.InitSeq)
		}
		break
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
	// The accepted flow is address-routed, not in the socket-ID table.
	if got := ln.m.Flows(); got != 0 {
		t.Errorf("listener mux Flows() = %d, want 0 (bare client is addr-routed)", got)
	}
}

// TestMuxDialsOldServer checks Mux.Dial against a peer that ignores the
// handshake extension and replies with the paper-era 28-byte handshake:
// the dialed flow must negotiate down to bare datagrams.
func TestMuxDialsOldServer(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type dataResult struct {
		payload []byte
		err     error
	}
	dataCh := make(chan dataResult, 1)
	go func() {
		buf := make([]byte, 65536)
		answered := false
		for {
			n, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			raw := buf[:n]
			if packet.IsHandshake(raw) {
				ctrl, err := packet.DecodeControl(raw)
				if err != nil {
					dataCh <- dataResult{err: err}
					return
				}
				hs, err := packet.DecodeHandshake(ctrl)
				if err != nil {
					dataCh <- dataResult{err: err}
					return
				}
				if !hs.Ext() {
					dataCh <- dataResult{err: fmt.Errorf("request lacks socket-ID extension")}
					return
				}
				// Answer like an old server: base fields only, SockID zero.
				resp := packet.Handshake{
					Version:    packet.Version,
					InitSeq:    hs.InitSeq,
					MSS:        hs.MSS,
					FlowWindow: hs.FlowWindow,
					ReqType:    -1,
					ConnID:     hs.ConnID,
				}
				out := make([]byte, 64)
				wn, err := packet.EncodeHandshake(out, &resp, 0)
				if err != nil {
					dataCh <- dataResult{err: err}
					return
				}
				if wn != packet.CtrlHeaderSize+packet.HandshakeBody {
					dataCh <- dataResult{err: fmt.Errorf("old-style response is %d bytes", wn)}
					return
				}
				srv.WriteTo(out[:wn], from) //nolint:errcheck
				answered = true
				continue
			}
			if !answered || packet.IsControl(raw) {
				continue // keep-alives etc.; we want the first data packet
			}
			// A bare data packet: the first word must NOT be a socket-ID
			// prefix, and the payload must decode in place.
			if mux.IDValid(int32(uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3]))) {
				dataCh <- dataResult{err: fmt.Errorf("data packet arrived socket-ID prefixed")}
				return
			}
			d, err := packet.DecodeData(raw)
			if err != nil {
				dataCh <- dataResult{err: err}
				return
			}
			dataCh <- dataResult{payload: append([]byte(nil), d.Payload...)}
			return
		}
	}()

	m := newLoopbackMux(t, &Config{Rand: rand.New(rand.NewSource(7))})
	c, err := m.Dial(srv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("bare wire")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-dataCh:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if string(r.payload) != "bare wire" {
			t.Fatalf("old server received %q", r.payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("old server never received the data packet")
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
	// retransmitted one like an old server would (bare wire format, so the
	// data packet below needs no prefix).
	const srvISN = 424242
	out := make([]byte, 1500)
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
				}
			}
			if n, err = packet.EncodeHandshake(out, &reply, 0); err == nil {
				srv.WriteTo(out[:n], from) //nolint:errcheck
			}
			if reqs > 0 {
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
	n, err := packet.EncodeData(data, &packet.Data{Seq: srvISN, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.WriteTo(data[:n], m.Addr()); err != nil {
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
	// Bare control (keep-alive) from an address with no bare flow.
	ka := make([]byte, 64)
	n, err := packet.EncodeSimple(ka, packet.TypeKeepAlive, 0)
	if err != nil {
		t.Fatal(err)
	}
	send(ka[:n])

	deadline := time.Now().Add(5 * time.Second)
	for {
		unknown, short := ma.Counters()
		if unknown == 2 && short == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop counters = (%d, %d), want (2, 2)", unknown, short)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := c.Stats()
	if st.MuxUnknownDest != 2 || st.MuxShortDatagram != 2 {
		t.Errorf("Stats mux counters = (%d, %d), want (2, 2)",
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
