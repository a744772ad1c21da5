package udt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"udt/internal/mux"
	"udt/internal/netem"
)

// pairOver establishes a client/server pair through the given address
// (usually the listener's, or an impairment proxy's).
func pair(t *testing.T, cfg *Config) (client, server *Conn, ln *Listener) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var srv *Conn
	var srvErr error
	done := make(chan struct{})
	go func() {
		srv, srvErr = ln.Accept()
		close(done)
	}()
	cli, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timeout")
	}
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	t.Cleanup(func() { srv.Close() })
	return cli, srv, ln
}

func TestLoopbackSmallTransfer(t *testing.T) {
	cli, srv, ln := pair(t, nil)
	msg := []byte("hello, high performance world")
	go func() {
		cli.Write(msg)
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// A plain Dial is served on the socket-ID fast path, not by address.
	if got := ln.m.Flows(); got != 1 {
		t.Errorf("listener mux Flows() = %d, want 1 (dialed flow is socket-ID-routed)", got)
	}
	if st := srv.Stats(); st.MuxUnknownDest != 0 {
		t.Errorf("server dropped %d unroutable datagrams, want 0", st.MuxUnknownDest)
	}
}

func TestLoopbackBulkTransfer(t *testing.T) {
	cli, srv, _ := pair(t, nil)
	const size = 8 << 20 // 8 MiB
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	wantSum := sha256.Sum256(data)

	go func() {
		if _, err := cli.Write(data); err != nil {
			t.Error(err)
		}
	}()
	h := sha256.New()
	if _, err := io.CopyN(h, srv, size); err != nil {
		t.Fatal(err)
	}
	var gotSum [32]byte
	copy(gotSum[:], h.Sum(nil))
	if gotSum != wantSum {
		t.Fatal("checksum mismatch")
	}
	st := cli.Stats()
	if st.PktsSent == 0 || st.ACKsRecv == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestBidirectional(t *testing.T) {
	cli, srv, _ := pair(t, nil)
	a := make([]byte, 1<<20)
	b := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(a)
	rand.New(rand.NewSource(3)).Read(b)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); cli.Write(a) }()
	go func() { defer wg.Done(); srv.Write(b) }()
	gotA := make([]byte, len(a))
	gotB := make([]byte, len(b))
	var rg sync.WaitGroup
	rg.Add(2)
	var errA, errB error
	go func() { defer rg.Done(); _, errA = io.ReadFull(srv, gotA) }()
	go func() { defer rg.Done(); _, errB = io.ReadFull(cli, gotB) }()
	wg.Wait()
	rg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatal("bidirectional corruption")
	}
}

func TestCloseGivesEOF(t *testing.T) {
	cli, srv, _ := pair(t, nil)
	go func() {
		cli.Write([]byte("bye"))
		time.Sleep(200 * time.Millisecond) // let it drain
		cli.Close()
	}()
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
}

func TestDialNoListener(t *testing.T) {
	cfg := &Config{HandshakeTimeout: 500 * time.Millisecond}
	if _, err := Dial("127.0.0.1:1", cfg); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}

	// DialOn over a netem endpoint nobody answers on: same error, within
	// the handshake timeout, and the transport it took ownership of closed.
	nw := netem.New(1, nil)
	pc, err := nw.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := nw.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := DialOn(pc, peer.LocalAddr(), cfg); err != ErrTimeout {
		t.Fatalf("DialOn err = %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took > 2*cfg.HandshakeTimeout {
		t.Errorf("DialOn gave up after %v, want about %v", took, cfg.HandshakeTimeout)
	}
	if _, err := pc.WriteTo([]byte("x"), peer.LocalAddr()); err == nil {
		t.Error("DialOn left its transport open after a failed handshake")
	}
}

func TestMultipleConnsOneListener(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 4
	var wg sync.WaitGroup
	wg.Add(n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			go func() {
				defer wg.Done()
				defer c.Close()
				buf, err := io.ReadAll(c)
				if err != nil || len(buf) != 1000 {
					t.Errorf("server read: %v %d", err, len(buf))
				}
			}()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := Dial(ln.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(make([]byte, 1000))
		time.Sleep(100 * time.Millisecond)
		c.Close()
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("servers did not finish")
	}
}

func TestMSSNegotiation(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", &Config{MSS: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	cli, err := Dial(ln.Addr().String(), &Config{MSS: 1472})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Dial speaks the extended handshake, and the listener answers in kind:
	// both ends prefix every datagram with the peer's socket ID, and the
	// listener shaves the prefix off its own MSS before answering, so prefix
	// + packet still fit the 500-byte datagram budget it was configured with.
	if want := 500 - mux.DestPrefix; cli.cfg.MSS != want {
		t.Fatalf("negotiated MSS %d, want %d", cli.cfg.MSS, want)
	}
	if _, err := cli.Write(make([]byte, 10000)); err != nil {
		t.Fatal(err)
	}
}

// lossyProxy forwards UDP datagrams between a client and a server address,
// dropping and duplicating according to the configured rates — the
// impairment shim for failure-injection tests.
type lossyProxy struct {
	t          *testing.T
	sock       *net.UDPConn
	serverAddr *net.UDPAddr
	mu         sync.Mutex
	clientAddr *net.UDPAddr
	rng        *rand.Rand
	dropRate   float64
	dupRate    float64
	dropped    int
	stop       chan struct{}
}

func newLossyProxy(t *testing.T, serverAddr string, dropRate, dupRate float64) *lossyProxy {
	t.Helper()
	saddr, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	p := &lossyProxy{
		t: t, sock: sock, serverAddr: saddr,
		rng: rand.New(rand.NewSource(7)), dropRate: dropRate, dupRate: dupRate,
		stop: make(chan struct{}),
	}
	go p.run()
	t.Cleanup(func() { close(p.stop); sock.Close() })
	return p
}

func (p *lossyProxy) addr() string { return p.sock.LocalAddr().String() }

func (p *lossyProxy) run() {
	buf := make([]byte, 65536)
	for {
		p.sock.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, from, err := p.sock.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-p.stop:
				return
			default:
				continue
			}
		}
		p.mu.Lock()
		fromServer := from.Port == p.serverAddr.Port && from.IP.Equal(p.serverAddr.IP)
		if !fromServer {
			p.clientAddr = from
		}
		dst := p.serverAddr
		if fromServer {
			dst = p.clientAddr
		}
		drop := p.rng.Float64() < p.dropRate
		dup := p.rng.Float64() < p.dupRate
		if drop {
			p.dropped++
		}
		p.mu.Unlock()
		if dst == nil || drop {
			continue
		}
		p.sock.WriteToUDP(buf[:n], dst)
		if dup {
			p.sock.WriteToUDP(buf[:n], dst)
		}
	}
}

func TestTransferThroughLossyPath(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy := newLossyProxy(t, ln.Addr().String(), 0.02, 0.01) // 2% loss, 1% dup
	const size = 2 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(data)

	srvDone := make(chan error, 1)
	var got []byte
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		defer c.Close()
		got, err = io.ReadAll(c)
		srvDone <- err
	}()

	cli, err := Dial(proxy.addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(data); err != nil {
		t.Fatal(err)
	}
	// Wait for full delivery before closing (shutdown is abrupt).
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cli.Stats().PktsSent > 0 && cli.Drained() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	cli.Close()
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", len(got), len(data))
	}
	st := cli.Stats()
	if st.PktsRetrans == 0 {
		t.Fatal("expected retransmissions through a 2% lossy path")
	}
	proxy.mu.Lock()
	dropped := proxy.dropped
	proxy.mu.Unlock()
	if dropped == 0 {
		t.Fatal("proxy dropped nothing; test is vacuous")
	}
}

func TestPeerDeathDetected(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := newLossyProxy(t, ln.Addr().String(), 0, 0)
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cfg := &Config{}
	cli, err := Dial(proxy.addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()
	// Sever the path completely: the connection must break via EXP.
	proxy.mu.Lock()
	proxy.dropRate = 1.0
	proxy.mu.Unlock()
	go cli.Write(make([]byte, 100000))

	buf := make([]byte, 4096)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := srv.Read(buf); err != nil {
			break // broken or closed
		}
		if time.Now().After(deadline) {
			t.Fatal("server read never failed after path severed")
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	cli, srv, _ := pair(t, nil)
	go cli.Write(make([]byte, 100000))
	buf := make([]byte, 100000)
	io.ReadFull(srv, buf)
	st := cli.Stats()
	if st.BytesSent == 0 {
		t.Fatal("BytesSent = 0")
	}
	if st.RTT <= 0 || st.RTT > 5*time.Second {
		t.Fatalf("RTT = %v", st.RTT)
	}
	sst := srv.Stats()
	if sst.BytesRecv == 0 || sst.ACKsSent == 0 {
		t.Fatalf("server stats: %+v", sst)
	}
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	cli, srv, ln := pair(t, nil)
	// Blast garbage at the listener socket from a stranger.
	junk, err := net.Dial("udp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	for i := 0; i < 50; i++ {
		junk.Write([]byte{0x80, 0xFF, 0xAA})
		junk.Write(make([]byte, 3))
		junk.Write(make([]byte, 2000))
	}
	msg := []byte("still alive")
	go cli.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("transfer corrupted by garbage datagrams")
	}
}

func TestConcurrentWriters(t *testing.T) {
	cli, srv, _ := pair(t, nil)
	// Two goroutines writing disjoint markers: total byte count must match
	// (interleaving granularity is Write-call level, content may interleave).
	const each = 200_000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); cli.Write(bytes.Repeat([]byte{'a'}, each)) }()
	go func() { defer wg.Done(); cli.Write(bytes.Repeat([]byte{'b'}, each)) }()
	got := make([]byte, 2*each)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var na, nb int
	for _, c := range got {
		switch c {
		case 'a':
			na++
		case 'b':
			nb++
		}
	}
	if na != each || nb != each {
		t.Fatalf("byte counts: a=%d b=%d", na, nb)
	}
}

func TestAddrAccessors(t *testing.T) {
	cli, srv, ln := pair(t, nil)
	if cli.RemoteAddr().String() != ln.Addr().String() {
		t.Fatalf("client remote %v, listener %v", cli.RemoteAddr(), ln.Addr())
	}
	if srv.LocalAddr() == nil || cli.LocalAddr() == nil {
		t.Fatal("nil local addrs")
	}
	if fmt.Sprint(srv.RemoteAddr()) == "" {
		t.Fatal("empty server remote addr")
	}
}
