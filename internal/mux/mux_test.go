package mux

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"udt/internal/packet"
)

// recFlow records delivered datagram lengths and first bytes.
type recFlow struct {
	mu    sync.Mutex
	count int
	last  []byte
}

func (f *recFlow) HandleDatagram(raw []byte) {
	f.mu.Lock()
	f.count++
	f.last = append(f.last[:0], raw...)
	f.mu.Unlock()
}

func (f *recFlow) snapshot() (int, []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count, append([]byte(nil), f.last...)
}

var testAddr net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}

// dataPacket builds an unprefixed data packet with the given seq and payload.
func dataPacket(t testing.TB, seq int32, payload string) []byte {
	t.Helper()
	buf := make([]byte, packet.DataHeaderSize+len(payload))
	n, err := packet.EncodeData(buf, &packet.Data{Seq: seq, Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// prefixed wraps a packet with a destination-socket-ID prefix.
func prefixed(id int32, bare []byte) []byte {
	out := make([]byte, DestPrefix+len(bare))
	PutDest(out, id)
	copy(out[DestPrefix:], bare)
	return out
}

func TestIDValid(t *testing.T) {
	cases := []struct {
		id   uint32
		want bool
	}{
		{0, false},                  // data packet, seq 0
		{0x7FFFFFFF, false},         // data packet, max seq
		{1 << 31, false},            // handshake first word
		{1<<31 | 0x00070000, false}, // message-drop control, highest real type
		{1<<31 | 0x00080000, true},  // first word past the control types
		{1<<31 | 0x7FFF0000, true},  // top of the type field
		{0x00080000, false},         // type bits fine but top bit clear
		{1<<31 | 0x00080001, true},  // low bits are free
		{1<<31 | 0x0008FFFF, true},  // low bits are free
	}
	for _, c := range cases {
		if got := IDValid(int32(c.id)); got != c.want {
			t.Errorf("IDValid(%#x) = %v, want %v", c.id, got, c.want)
		}
	}
	// MakeID lands every word in the valid space, and control-packet first
	// words never land there.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		id := MakeID(int32(rng.Uint32()))
		if !IDValid(id) {
			t.Fatalf("MakeID produced invalid ID %#x", uint32(id))
		}
	}
	for ct := packet.TypeHandshake; ct <= packet.TypeMessageDrop; ct++ {
		w0 := uint32(1<<31) | uint32(ct)<<16
		if IDValid(int32(w0)) {
			t.Errorf("control type %v first word %#x classified as socket ID", ct, w0)
		}
	}
}

func TestDispatchOrder(t *testing.T) {
	var hsCount int
	var hsFrom net.Addr
	c := NewCore(func(raw []byte, from net.Addr) { hsCount++; hsFrom = from })

	idFlow := &recFlow{}
	id := c.AllocID(rand.New(rand.NewSource(2)).Int31, idFlow)
	if !IDValid(id) {
		t.Fatalf("AllocID returned invalid ID %#x", uint32(id))
	}

	// 1. Short datagrams are counted, never delivered.
	c.Dispatch([]byte{1, 2, 3}, testAddr)
	if _, short := c.Counters(); short != 1 {
		t.Fatalf("short counter = %d, want 1", short)
	}

	// 2. A valid prefix with a registered flow delivers the packet behind it.
	bare := dataPacket(t, 7, "hello")
	c.Dispatch(prefixed(id, bare), testAddr)
	if n, last := idFlow.snapshot(); n != 1 || string(last) != string(bare) {
		t.Fatalf("ID flow got %d datagrams, last %q; want 1 × %q", n, last, bare)
	}

	// A valid prefix with a truncated packet behind it is short, not unknown.
	c.Dispatch(prefixed(id, nil), testAddr)
	if _, short := c.Counters(); short != 2 {
		t.Fatalf("short counter = %d, want 2", short)
	}

	// An unknown ID is counted.
	other := MakeID(id + 12345)
	if other == id {
		other = MakeID(other + 1)
	}
	c.Dispatch(prefixed(other, bare), testAddr)
	if unknown, _ := c.Counters(); unknown != 1 {
		t.Fatalf("unknown counter = %d, want 1", unknown)
	}

	// 3. Handshakes reach the handler — unless they are too short to carry
	// the socket-ID words, which is a short datagram.
	hsBuf := make([]byte, 64)
	hn, err := packet.EncodeHandshake(hsBuf, &packet.Handshake{Version: packet.Version, ReqType: 1, ConnID: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Dispatch(hsBuf[:hn], testAddr)
	if hsCount != 1 || hsFrom != testAddr {
		t.Fatalf("handshake handler count=%d from=%v", hsCount, hsFrom)
	}
	c.Dispatch(hsBuf[:hn-1], testAddr)
	if _, short := c.Counters(); short != 3 || hsCount != 1 {
		t.Fatalf("truncated handshake: short counter = %d, handler count = %d; want 3, 1", short, hsCount)
	}

	// Anything else without a socket ID belongs to no flow, whoever sent it.
	c.Dispatch(bare, testAddr)
	if unknown, _ := c.Counters(); unknown != 2 {
		t.Fatalf("unknown counter = %d, want 2", unknown)
	}
	if n, _ := idFlow.snapshot(); n != 1 {
		t.Fatal("unprefixed datagram reached the registered flow")
	}

	// Unregister closes the route.
	c.Unregister(id)
	c.Dispatch(prefixed(id, bare), testAddr)
	if unknown, _ := c.Counters(); unknown != 3 {
		t.Fatalf("unknown counter after unregister = %d, want 3", unknown)
	}
	if c.Flows() != 0 {
		t.Fatalf("Flows() = %d after unregister", c.Flows())
	}
}

func TestAllocIDUnique(t *testing.T) {
	c := NewCore(nil)
	rng := rand.New(rand.NewSource(3))
	seen := make(map[int32]bool)
	for i := 0; i < 5000; i++ {
		id := c.AllocID(rng.Int31, &recFlow{})
		if !IDValid(id) {
			t.Fatalf("invalid ID %#x", uint32(id))
		}
		if seen[id] {
			t.Fatalf("duplicate ID %#x", uint32(id))
		}
		seen[id] = true
	}
	if c.Flows() != 5000 {
		t.Fatalf("Flows() = %d, want 5000", c.Flows())
	}
	// Register refuses duplicates and invalid IDs.
	for id := range seen {
		if c.Register(id, &recFlow{}) {
			t.Fatalf("Register accepted in-use ID %#x", uint32(id))
		}
		break
	}
	if c.Register(42, &recFlow{}) {
		t.Fatal("Register accepted an invalid ID")
	}
}

// TestDispatchConcurrent exercises Dispatch against concurrent
// register/unregister churn; it exists for the -race detector.
func TestDispatchConcurrent(t *testing.T) {
	c := NewCore(func([]byte, net.Addr) {})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := c.AllocID(rng.Int31, &recFlow{})
				c.Unregister(id)
			}
		}(int64(g))
	}
	bare := dataPacket(t, 1, "x")
	pkt := prefixed(MakeID(0x1234567), bare)
	for i := 0; i < 20000; i++ {
		c.Dispatch(pkt, testAddr)
		c.Dispatch(bare, testAddr)
	}
	close(stop)
	wg.Wait()
}

// TestMuxDemuxZeroAlloc pins the acceptance criterion: the socket-ID
// dispatch path allocates nothing in steady state.
func TestMuxDemuxZeroAlloc(t *testing.T) {
	c := NewCore(nil)
	f := &recFlow{}
	id := c.AllocID(rand.New(rand.NewSource(4)).Int31, f)
	pkt := prefixed(id, dataPacket(t, 1, "payload"))
	allocs := testing.AllocsPerRun(1000, func() {
		c.Dispatch(pkt, testAddr)
	})
	if allocs != 0 {
		t.Fatalf("demux path allocates %.1f times per packet, want 0", allocs)
	}
}

// TestStrayDatagramAllocs pins that a datagram no flow will take costs the
// read loop no allocation, whatever its class: an unknown socket ID, no
// socket ID at all, or a handshake too short to carry one. The source is a
// *net.UDPAddr, as on a real socket — it is never formatted.
func TestStrayDatagramAllocs(t *testing.T) {
	c := NewCore(func([]byte, net.Addr) { t.Error("stray datagram reached the handshake handler") })
	c.AllocID(rand.New(rand.NewSource(8)).Int31, &recFlow{})
	bare := dataPacket(t, 1, "payload")
	shortHS := make([]byte, 64)
	n, err := packet.EncodeHandshake(shortHS, &packet.Handshake{Version: packet.Version, ReqType: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		raw            []byte
		unknown, short uint64
	}{
		{"unknown ID", prefixed(MakeID(0x7654321), bare), 1, 0},
		{"no ID", bare, 1, 0},
		{"short handshake", shortHS[:n-2*4], 0, 1},
	} {
		u0, s0 := c.Counters()
		const runs = 1000
		allocs := testing.AllocsPerRun(runs, func() { c.Dispatch(tc.raw, testAddr) })
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per stray datagram, want 0", tc.name, allocs)
		}
		u, s := c.Counters()
		if u-u0 != tc.unknown*(runs+1) || s-s0 != tc.short*(runs+1) { // AllocsPerRun warms up once
			t.Errorf("%s: counters moved by (%d, %d) over %d datagrams", tc.name, u-u0, s-s0, runs+1)
		}
	}
}

// FuzzCoreDispatch throws arbitrary datagrams at a core with one registered
// flow and a counting handshake handler. Dispatch must never panic, a
// delivered slice is exactly the datagram behind its prefix, and every
// datagram offered is accounted for exactly once: delivered, handed to the
// handshake handler, or dropped under one of the two counters.
func FuzzCoreDispatch(f *testing.F) {
	id := MakeID(0x1234567)
	bare := dataPacket(f, 1, "payload")
	hs := make([]byte, 64)
	n, err := packet.EncodeHandshake(hs, &packet.Handshake{Version: packet.Version, ReqType: 1, SockID: id}, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		nil, {1, 2, 3}, bare, prefixed(id, bare), prefixed(id, nil), prefixed(id+1, bare),
		hs[:n], hs[:n-1], hs[:packet.CtrlHeaderSize+28], hs[:packet.CtrlHeaderSize],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var handshakes uint64
		c := NewCore(func(got []byte, _ net.Addr) {
			handshakes++
			if !bytes.Equal(got, raw) || !packet.IsHandshake(got) || len(got) < packet.CtrlHeaderSize+packet.HandshakeExtBody {
				t.Fatalf("handler got % x for datagram % x", got, raw)
			}
		})
		flow := &recFlow{}
		if !c.Register(id, flow) {
			t.Fatal("Register refused a valid ID")
		}
		c.Dispatch(raw, testAddr)
		delivered, last := flow.snapshot()
		if delivered == 1 && !bytes.Equal(last, raw[DestPrefix:]) {
			t.Fatalf("delivered % x, want % x", last, raw[DestPrefix:])
		}
		unknown, short := c.Counters()
		if uint64(delivered)+handshakes+unknown+short != 1 {
			t.Fatalf("datagram % x: delivered=%d handshakes=%d unknownDest=%d shortDatagram=%d, want exactly one",
				raw, delivered, handshakes, unknown, short)
		}
	})
}

// BenchmarkMuxDemux measures the per-packet cost of the socket-ID dispatch
// path (one registered flow).
func BenchmarkMuxDemux(b *testing.B) {
	c := NewCore(nil)
	f := &recFlow{}
	id := c.AllocID(rand.New(rand.NewSource(5)).Int31, f)
	pkt := prefixed(id, dataPacket(b, 1, "0123456789abcdef"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Dispatch(pkt, testAddr)
	}
}

// nullFlow discards datagrams without locking, isolating table-lookup cost.
type nullFlow struct{ n int }

func (f *nullFlow) HandleDatagram([]byte) { f.n++ }

// BenchmarkMuxDemuxFlows measures how dispatch scales with the number of
// flows resident on one socket.
func BenchmarkMuxDemuxFlows(b *testing.B) {
	for _, flows := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			c := NewCore(nil)
			rng := rand.New(rand.NewSource(6))
			pkts := make([][]byte, flows)
			bare := dataPacket(b, 1, "0123456789abcdef")
			for i := range pkts {
				id := c.AllocID(rng.Int31, &nullFlow{})
				pkts[i] = prefixed(id, bare)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Dispatch(pkts[i&(flows-1)], testAddr)
			}
		})
	}
}

// BenchmarkMuxDemuxParallel drives dispatch from GOMAXPROCS goroutines to
// expose shard-lock contention.
func BenchmarkMuxDemuxParallel(b *testing.B) {
	c := NewCore(nil)
	rng := rand.New(rand.NewSource(7))
	const flows = 256
	pkts := make([][]byte, flows)
	bare := dataPacket(b, 1, "0123456789abcdef")
	for i := range pkts {
		id := c.AllocID(rng.Int31, &nullFlow{})
		pkts[i] = prefixed(id, bare)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int(binary.BigEndian.Uint32(pkts[0]) & 0xFF)
		for pb.Next() {
			c.Dispatch(pkts[i&(flows-1)], testAddr)
			i++
		}
	})
}
