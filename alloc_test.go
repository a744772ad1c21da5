package udt

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"udt/fabric"
	"udt/internal/core"
	"udt/internal/mux"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/timerwheel"
	"udt/internal/timing"
)

// discardSock swallows datagrams; it stands in for the UDP socket so the
// sender path can be driven synchronously, without a peer or a goroutine.
type discardSock struct{ writes int }

func (d *discardSock) writeTo(b []byte, _ net.Addr) (int, error) {
	d.writes++
	return len(b), nil
}

// gsoDiscardSock upgrades discardSock with the batch and segment-train
// interfaces, so the alloc gates cover the GSO pack-and-submit path
// without needing a kernel that offloads.
type gsoDiscardSock struct {
	discardSock
	trains, segs int
}

func (g *gsoDiscardSock) writeBatch(bufs [][]byte, _ net.Addr) error {
	g.writes += len(bufs)
	return nil
}

func (g *gsoDiscardSock) writeSegments(bufs [][]byte, segSize int, _ net.Addr) (bool, error) {
	g.trains++
	g.segs += len(bufs)
	return true, nil
}

func (g *gsoDiscardSock) offloadActive() bool { return true }

// newSendPathConn is newParkedConn with a default Config. With traced set
// the default perfmon ring stays attached, so the alloc gates cover
// telemetry. cc selects the congestion controller (nil = native), so the
// gates cover every registered law's interface dispatch.
func newSendPathConn(sock sockWriter, traced bool, cc CongestionFactory, sec *secure.Session) *Conn {
	cfg := Config{CC: cc}
	if !traced {
		cfg.PerfHistory = -1
	}
	return newParkedConn(cfg, sock, sec)
}

// newParkedConn is newConn on a shard whose worker never runs, so tests
// can drive ClaimBurst/DrainOutbox and runTask deterministically from one
// goroutine.
func newParkedConn(cfg Config, sock sockWriter, sec *secure.Session) *Conn {
	cfg.fill()
	shard := &poolShard{clock: timing.NewSysClock(), wheel: timerwheel.New(), kick: make(chan struct{}, 1)}
	return newConn(cfg, sock, nil, nil, nil, 0, 0, shard, sec)
}

// sendCycle is one synchronous turn of the sender: buffer one packet of
// data, claim and encode a burst, push it through the socket, then feed the
// engine an ACK for everything in flight (the role the peer plays) and
// drain the resulting control traffic. It exercises every per-packet
// operation of the real send path.
func sendCycle(c *Conn, data []byte, batch *core.SendBatch, scratch []byte, lens []int, burst *[][]byte) {
	c.mu.Lock()
	now := c.clock.Now()
	c.ep.Eng.Advance(now)
	c.ep.Snd.Write(data)
	n, _, _ := c.ep.ClaimBurst(now, c.sendCost, scratch, lens)
	c.mu.Unlock()
	if n > 0 {
		c.sendDataBurst(scratch, lens, n, burst) //nolint:errcheck
	}
	c.mu.Lock()
	ack := packet.ACK{
		Seq:      seqno.Inc(c.ep.Eng.CurSeq()),
		RTT:      100,
		RTTVar:   10,
		AvailBuf: int32(c.cfg.RcvBuf),
	}
	if newly := c.ep.Eng.HandleACK(now, ack); newly > 0 {
		c.ep.Snd.Release(c.ep.Eng.SndLastAck())
	}
	c.ep.DrainOutbox(batch, int32(now))
	c.mu.Unlock()
	for _, b := range batch.Msgs {
		c.sockWrite(b) //nolint:errcheck
	}
}

// TestSenderPathAllocs is the regression gate for the real transport's
// zero-allocation invariant: once warmed up, sending a data packet — encode
// into the reusable scratch burst, socket write, ACK bookkeeping, control
// drain into the reusable batch arena — allocates nothing. The connection
// runs with a perfmon ring attached (the default newConn configuration), so
// the gate also proves telemetry — including the CC name and window fields —
// adds 0 allocs/packet on the hot path. Every registered congestion
// controller is gated, since the engine now reaches its law through the
// congestion.Controller interface on each packet sent and ACK handled.
func TestSenderPathAllocs(t *testing.T) {
	for _, secureOn := range []bool{false, true} {
		for _, name := range CongestionControls() {
			run := name
			if secureOn {
				run = "psk-aead/" + name
			}
			t.Run(run, func(t *testing.T) {
				cc, err := CongestionControl(name)
				if err != nil {
					t.Fatal(err)
				}
				var sess *secure.Session
				if secureOn {
					sess, _ = testSessionPair(true)
				}
				sock := &discardSock{}
				c := newSendPathConn(sock, true, cc, sess)
				var batch core.SendBatch
				scratch := make([]byte, c.burst*(mux.DestPrefix+c.cfg.MSS))
				lens := make([]int, c.burst)
				burst := make([][]byte, 0, c.burst)
				payload := c.cfg.MSS - packet.DataHeaderSize
				if secureOn {
					payload -= secure.Overhead
				}
				data := make([]byte, payload)

				// Warm up: grow the batch arena, the engine's outbox and the
				// ACK history window to steady state, and walk the send
				// buffer's ring once around — its storage is allocated chunk
				// by chunk as slots are first occupied, and the gate is on
				// what a packet costs after that.
				for i := 0; i < c.cfg.SndBuf+64; i++ {
					sendCycle(c, data, &batch, scratch, lens, &burst)
				}
				sentBefore := c.ep.Eng.Stats.PktsSent
				avg := testing.AllocsPerRun(500, func() {
					sendCycle(c, data, &batch, scratch, lens, &burst)
				})
				sent := c.ep.Eng.Stats.PktsSent - sentBefore
				if sent < 500 {
					t.Fatalf("send path stalled during measurement: only %d packets sent", sent)
				}
				if avg != 0 {
					t.Fatalf("send path allocates %.2f objects per packet, want 0", avg)
				}
				// The measured cycles may all fall inside one SYN interval;
				// cross a SYN boundary explicitly to prove the sampler really
				// was attached and live.
				c.mu.Lock()
				c.ep.Eng.Advance(c.clock.Now() + 2*c.cfg.SYN.Microseconds())
				c.mu.Unlock()
				if c.perfRing.Total() == 0 {
					t.Fatal("perf ring recorded nothing; the traced gate proved nothing")
				}
				if r, ok := c.perfRing.Last(); !ok || r.CCName != name {
					t.Fatalf("perf record carries cc %q, want %q", r.CCName, name)
				}
			})
		}
	}
}

// testSessionPair builds the two ends of one Secure UDT session over a
// fixed key and nonces: local is the client side, peer the server side.
// Both ends start their epoch trackers at ISN 0, matching the zero ISNs
// newSendPathConn wires.
func testSessionPair(aead bool) (local, peer *secure.Session) {
	k := secure.DeriveKeys([]byte("alloc-test pre-shared key 32by.."))
	cn := []byte("client-nonce-16b")
	sn := []byte("server-nonce-16b")
	local = secure.NewSession(k, cn, sn, true, 0, 0, aead)
	peer = secure.NewSession(k, cn, sn, false, 0, 0, aead)
	return local, peer
}

// TestSecureRecvPathAllocs gates the receive side of the sealed channel:
// opening a sealed data packet and running it through the full
// handleDatagram path — AEAD open, engine bookkeeping, control drain —
// must allocate nothing. The packet is a duplicate every iteration, which
// exercises the dup-triggered re-ACK emission too; retransmissions seal
// byte-identically, so one sealed image is recopied per run (opening
// decrypts in place).
func TestSecureRecvPathAllocs(t *testing.T) {
	sess, peer := testSessionPair(true)
	sock := &discardSock{}
	c := newSendPathConn(sock, false, nil, sess)

	payload := make([]byte, c.cfg.MSS-packet.DataHeaderSize-secure.Overhead)
	pkt := make([]byte, c.cfg.MSS)
	n, err := packet.EncodeData(pkt, &packet.Data{Seq: 0, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	sealed := append([]byte(nil), peer.SealData(pkt[:n])...)
	if len(sealed) != c.cfg.MSS {
		t.Fatalf("sealed full packet is %d bytes, want MSS %d", len(sealed), c.cfg.MSS)
	}
	buf := make([]byte, len(sealed))
	deliver := func() {
		copy(buf, sealed)
		c.handleDatagram(buf, c.clock.Now())
	}
	for i := 0; i < 16; i++ {
		deliver() // warm the receive-side control batch arena
	}
	if avg := testing.AllocsPerRun(500, deliver); avg != 0 {
		t.Fatalf("secure receive path allocates %.2f objects per packet, want 0", avg)
	}
	af, _ := sess.Drops()
	if af != 0 {
		t.Fatalf("authentic packets failed to open %d times", af)
	}
	if got := c.ep.Eng.Stats.PktsRecv; got < 500 {
		t.Fatalf("engine saw only %d packets; the open path short-circuited", got)
	}
}

// TestGSOPackAllocs gates the GSO pack-and-submit path: assembling a full
// burst of MSS-size packets into a segment train — buffer aliasing, the
// equal-size eligibility scan, writeSegments dispatch and the offload
// counters — must allocate nothing, preserving the sender's
// zero-allocation invariant on the offloaded path too.
func TestGSOPackAllocs(t *testing.T) {
	sock := &gsoDiscardSock{}
	c := newSendPathConn(sock, false, nil, nil)
	stride := mux.DestPrefix + c.cfg.MSS
	scratch := make([]byte, c.burst*stride)
	lens := make([]int, c.burst)
	burst := make([][]byte, 0, c.burst)
	payload := make([]byte, c.cfg.MSS-packet.DataHeaderSize)
	for i := 0; i < c.burst; i++ {
		m, err := packet.EncodeData(scratch[i*stride+mux.DestPrefix:(i+1)*stride], &packet.Data{Seq: int32(i), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		lens[i] = m
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := c.sendDataBurst(scratch, lens, c.burst, &burst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("GSO pack path allocates %.2f objects per burst, want 0", avg)
	}
	if sock.trains == 0 || sock.segs == 0 {
		t.Fatal("segment-train path was never taken; the gate proved nothing")
	}
	if got := c.gsoSends.Load(); got == 0 {
		t.Fatal("GSO send counter did not advance")
	}
}

// TestMmsgSyscallAllocs gates the batched socket paths on a real loopback
// UDP socket — the one thing the gates above, which send into discardSock,
// never touch: the syscall bodies handed to the runtime poller must not
// capture per-call state, or every sendmsg/sendmmsg/recvmmsg moves its
// operands to the heap. It asserts on counts only, never on a duration.
// Datagrams the receiving socket's buffer has no room for are dropped by
// the kernel, which a UDP sender never hears about.
func TestMmsgSyscallAllocs(t *testing.T) {
	listen := func() *net.UDPConn {
		u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() }) //nolint:errcheck
		return u
	}
	a, b := listen(), listen()
	sender := newBatchSender(a, true)
	reader := newBatchReader(b, 8, true, nil)
	if sender == nil || reader == nil {
		t.Skip("no sendmmsg/recvmmsg path on this platform")
	}
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 1000)
	}
	to := b.LocalAddr()
	got := 0
	deliver := func(raw []byte, _ net.Addr, _ time.Time) { got += len(raw) }
	writeBatch := func() {
		if err := sender.writeBatch(bufs, to); err != nil {
			t.Fatal(err)
		}
	}
	readBatch := func() {
		if err := reader.readBatch(deliver); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // grow the header arrays, arm the deadline
		writeBatch()
		readBatch()
	}
	gate := func(name string, f func()) {
		t.Helper()
		avg := testing.AllocsPerRun(200, f)
		t.Logf("%s: %.2f allocs/call", name, avg)
		if avg != 0 {
			t.Errorf("%s allocates %.2f objects per call, want 0", name, avg)
		}
	}
	gate("writeBatch (sendmmsg, 8 datagrams)", writeBatch)
	if sw, ok := sender.(segWriter); ok && sw.offloadActive() {
		gate("writeSegments (sendmsg + UDP_SEGMENT, 8 segments)", func() {
			if ok, err := sw.writeSegments(bufs, len(bufs[0]), to); !ok || err != nil {
				t.Fatalf("writeSegments = %v, %v", ok, err)
			}
		})
	} else {
		t.Log("writeSegments: skipped, the UDP_SEGMENT probe failed on this socket")
	}
	got = 0
	gate("readBatch (recvmmsg, data queued)", func() {
		writeBatch() // measured at 0 above: what is left is the read
		readBatch()
	})
	if got == 0 {
		t.Fatal("readBatch delivered nothing; the gate proved nothing")
	}
}

// BenchmarkSenderPacket measures the real send path end to end — encode
// burst, socket write, ACK bookkeeping, control drain — in ns and allocs
// per data packet (the socket is a stub, so this is pure protocol cost).
func BenchmarkSenderPacket(b *testing.B) {
	benchmarkSenderPacket(b, false)
}

// BenchmarkSenderPacketTraced is BenchmarkSenderPacket with the perfmon
// ring attached — the BENCH entry proving telemetry costs nothing on the
// hot path (0 allocs/packet, ns/packet within noise of the untraced run).
func BenchmarkSenderPacketTraced(b *testing.B) {
	benchmarkSenderPacket(b, true)
}

func benchmarkSenderPacket(b *testing.B, traced bool) {
	sock := &discardSock{}
	c := newSendPathConn(sock, traced, nil, nil)
	var batch core.SendBatch
	scratch := make([]byte, c.burst*(mux.DestPrefix+c.cfg.MSS))
	lens := make([]int, c.burst)
	burst := make([][]byte, 0, c.burst)
	data := make([]byte, c.cfg.MSS-packet.DataHeaderSize)
	for i := 0; i < 64; i++ {
		sendCycle(c, data, &batch, scratch, lens, &burst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendCycle(c, data, &batch, scratch, lens, &burst)
	}
}

// TestDrainOutboxSizing checks the per-kind arena sizing: every control
// emission must encode successfully into the exact buffer the batch grants
// it, including NAKs with long compressed loss lists.
func TestDrainOutboxSizing(t *testing.T) {
	sock := &discardSock{}
	c := newSendPathConn(sock, false, nil, nil)
	now := c.clock.Now()

	// Provoke one of each control kind. Losses with many disjoint ranges
	// stress the NAK sizing; receiving data provokes ACK generation at the
	// next SYN boundary.
	c.mu.Lock()
	c.ep.Eng.HandleData(now, 0)
	c.ep.Eng.HandleData(now, 50) // gap -> NAK with a compressed range
	c.ep.Eng.Advance(now + 11_000)
	var batch core.SendBatch
	c.ep.DrainOutbox(&batch, int32(now))
	c.mu.Unlock()
	if len(batch.Msgs) == 0 {
		t.Fatal("no control emissions drained")
	}
	for _, m := range batch.Msgs {
		m = m[mux.DestPrefix:] // the flow's to stamp
		if !packet.IsControl(m) {
			t.Fatalf("drained message is not a control packet: % x", m)
		}
		if _, err := packet.DecodeControl(m); err != nil {
			t.Fatalf("drained control packet does not decode: %v", err)
		}
	}
}

// pipeEcho is a default-Config listener and client Mux joined by an
// in-memory pipe, the listener echoing every accepted connection until its
// peer closes: the smallest rig a whole connection lifecycle runs on.
type pipeEcho struct {
	ln   *Listener
	mux  *Mux
	last atomic.Pointer[Conn] // the most recently accepted connection
	done chan struct{}
}

func newPipeEcho(t *testing.T, cfg *Config) *pipeEcho {
	t.Helper()
	cEnd, sEnd := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 12})
	ln, err := ListenOn(sEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(cEnd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &pipeEcho{ln: ln, mux: m, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.last.Store(c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close() //nolint:errcheck
				// Not io.Copy: its 32 KiB buffer per connection would be a
				// fifth of the budget the tests below measure.
				buf := make([]byte, 2048)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return // the client closed
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

func (p *pipeEcho) dial(t *testing.T) *Conn {
	t.Helper()
	c, err := p.mux.Dial(fabric.Addr("pipe-b"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// echo sends msg and reads it back into reply.
func (p *pipeEcho) echo(t *testing.T, c *Conn, msg, reply []byte) {
	t.Helper()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, reply[:len(msg)]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply[:len(msg)], msg) {
		t.Fatal("echo mismatch")
	}
}

func (p *pipeEcho) close() {
	p.mux.Close() //nolint:errcheck
	p.ln.Close()  //nolint:errcheck
	<-p.done
}

// liveHeap is the heap in use after two collections (the second frees what
// the first one's finalizers and sweeps released).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// payloadChunkBytes is one default-Config buffer chunk's payload memory.
const payloadChunkBytes = 16 * (1500 - packet.DataHeaderSize)

// TestConnLifecycleBytes is the budget on what a connection costs to make:
// a default-Config dial, 1 KiB echo and close — the conn_churn cycle of the
// benchmark — may allocate at most 512 KiB across both ends, and 200 of
// them may trigger fewer than 50 collections. Buffer capacity is 8192
// packets each way at both ends; were any of it allocated up front, one
// cycle would cost tens of megabytes and a collection of its own.
func TestConnLifecycleBytes(t *testing.T) {
	p := newPipeEcho(t, nil)
	defer p.close()
	msg, reply := make([]byte, 1024), make([]byte, 1024)
	cycle := func() {
		c := p.dial(t)
		p.echo(t, c, msg, reply)
		c.Close() //nolint:errcheck
	}
	for i := 0; i < 10; i++ {
		cycle() // scheduler queues, pipe pools, shard burst arenas
	}
	const cycles = 200
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&b)
	perConn := (b.TotalAlloc - a.TotalAlloc) / cycles
	gcs := b.NumGC - a.NumGC
	t.Logf("bytes/conn=%d (both ends, dial+1KiB echo+close) collections=%d over %d connections", perConn, gcs, cycles)
	if perConn > 512<<10 {
		t.Errorf("a connection lifecycle allocates %d B, budget 512 KiB", perConn)
	}
	if gcs >= 50 {
		t.Errorf("%d connections triggered %d collections, budget < 50", cycles, gcs)
	}
}

// TestIdleFlowHoldsNoPayload is the budget on what an established flow
// costs to keep: 64 default-Config flows, dialed and accepted but never
// written to, may hold at most 48 KiB of live heap each, both ends
// together — engine, scheduler seat, mux entries and four chunk tables of
// 512 pointers, and not one payload chunk.
func TestIdleFlowHoldsNoPayload(t *testing.T) {
	p := newPipeEcho(t, nil)
	defer p.close()
	const flows = 64
	conns := make([]*Conn, 0, flows)
	before := liveHeap()
	for i := 0; i < flows; i++ {
		conns = append(conns, p.dial(t))
	}
	perFlow := (liveHeap() - before) / flows
	t.Logf("heap/flow=%d (both ends, idle)", perFlow)
	if perFlow > 48<<10 {
		t.Errorf("an idle flow holds %d B of live heap, budget 48 KiB", perFlow)
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck // and keeps every flow reachable until measured
	}
}

// TestRequestResponseResidency checks that residency follows what is in
// flight, not how far the ring has walked: a request/response flow that has
// crossed its 8192-slot rings a dozen times over holds no more than it did
// after its first exchanges — the allowance is four payload chunks, one per
// buffer. Acknowledgements come every 64 packets or every SYN, so while the
// echoes run back to back a send buffer holds a few chunks of unacknowledged
// packets; both measurements are therefore taken after a few exchanges that
// each wait for both ends to drain, which is also what shows a flow settling
// back to one spare chunk per buffer. Telemetry history is off: the perf
// ring is bounded too, but still filling over a run this short.
func TestRequestResponseResidency(t *testing.T) {
	echoes := 100_000
	if testing.Short() {
		echoes = 20_000
	}
	p := newPipeEcho(t, &Config{PerfHistory: -1})
	defer p.close()
	c := p.dial(t)
	defer c.Close() //nolint:errcheck
	msg, reply := make([]byte, 1024), make([]byte, 1024)
	settle := func() uint64 {
		t.Helper()
		for i := 0; i < 8; i++ {
			p.echo(t, c, msg, reply)
			for deadline := time.Now().Add(5 * time.Second); !c.Drained() || !p.last.Load().Drained(); {
				if time.Now().After(deadline) {
					t.Fatal("flow did not drain")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return liveHeap()
	}
	for i := 0; i < 100; i++ {
		p.echo(t, c, msg, reply)
	}
	before := settle()
	for i := 0; i < echoes; i++ {
		msg[0] = byte(i)
		p.echo(t, c, msg, reply)
	}
	after := settle()
	t.Logf("heap before=%d after=%d (%+d) over %d one-packet echoes", before, after, int64(after)-int64(before), echoes)
	if after > before+4*payloadChunkBytes {
		t.Errorf("heap grew %d B over %d one-packet echoes, allowance %d B (four chunks)", after-before, echoes, 4*payloadChunkBytes)
	}
}
