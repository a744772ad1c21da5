package udt

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"udt/internal/core"
	"udt/internal/mux"
	"udt/internal/secure"
	"udt/internal/timing"
	"udt/internal/trace"
)

// Connection errors.
var (
	ErrClosed     = errors.New("udt: connection closed")
	ErrPeerDead   = errors.New("udt: peer stopped responding")
	ErrTimeout    = errors.New("udt: handshake timeout")
	errBufferFull = errors.New("udt: receive buffer overrun") // internal

	// errAuthRequired fails a secure dial whose peer answered with the
	// clear protocol while AllowUnauth is off.
	errAuthRequired = errors.New("udt: handshake: peer did not authenticate (set Config.AllowUnauth to permit clear fallback)")
)

// sockWriter abstracts the datagram transport a Conn sends through. In
// production that is always a muxFlow — a seat on a Mux's socket, shared
// or private; the interface is the seam where tests substitute fakes.
//
// The first mux.DestPrefix bytes of every datagram buffer, ahead of the
// encoded UDT packet, belong to the transport: the flow stamps the peer's
// destination socket ID there. The connection reserves them when sizing
// and encoding, and passes the whole buffer (prefix included) to writeTo.
type sockWriter interface {
	writeTo(b []byte, addr net.Addr) (int, error)
}

// batchWriter is an optional sockWriter upgrade: transports that can
// submit many datagrams to the kernel in one syscall (sendmmsg) implement
// it. writeBatch sends every buffer or returns the first error.
type batchWriter interface {
	writeBatch(bufs [][]byte, addr net.Addr) error
}

// Conn is a UDT connection: a reliable duplex byte stream over UDP.
// It implements net.Conn semantics for Read/Write/Close (deadlines are not
// supported; use Close from another goroutine to abort).
type Conn struct {
	cfg    Config
	raddr  net.Addr
	laddr  net.Addr
	sock   sockWriter
	bw     batchWriter // non-nil when sock supports batched sends
	sw     segWriter   // non-nil when sock supports GSO segment trains
	burst  int         // data packets one sender-lock acquisition may claim
	closer func()      // tears down socket/listener registration

	// shard is the scheduler seat: the connection is a passive poolTask
	// run by its shard's worker, parked on the shard's timing wheel
	// between services. clock is the shard's clock — every deadline the
	// connection reports must be on the wheel's timeline.
	shard   *poolShard
	schedSt schedState
	// ownMux is non-nil for connections that own their socket (Dial,
	// DialOn, Rendezvous): the one-flow Mux built around it, torn down on
	// Close. Guarded by mu.
	ownMux *Mux

	clock  *timing.SysClock
	ledger *timing.Ledger

	mu sync.Mutex
	// ep is the flow endpoint — engine, buffers, sealing state and the
	// datagram paths in and out of them — shared with the virtual-clock
	// harness (chaos.Peer). Everything in it is guarded by mu except
	// ep.Decode, which touches only the receive side of ep.Sec and runs on
	// the single datagram-delivery goroutine; the send side of ep.Sec runs
	// under mu (DrainOutbox, ClaimBurst).
	ep       core.Endpoint
	perfRing *trace.Ring // telemetry history behind Perf; nil when disabled
	rdReady  *sync.Cond  // receive buffer has data / state change
	wrReady  *sync.Cond  // send buffer has room / state change
	closed   chan struct{}
	err      error
	overlap  bool    // a reader's buffer is attached to the receive buffer
	sendCost float64 // EWMA of µs per UDP send (§4.4)

	// rcvBatch is the receive path's control-send batch. handleDatagram is
	// only ever invoked from one goroutine (the dialed socket's reader or
	// the listener's demultiplexer), so one reusable batch suffices; the
	// sender path (runTask) and Close keep their own.
	rcvBatch core.SendBatch

	// Sender-service working set, touched only by runTask (the shard
	// worker serializes services, so no lock is needed beyond mu inside
	// runTask itself). The data-burst encode arena is the shard's, not the
	// connection's: one service runs at a time, so one arena serves every
	// flow on the shard. sending is set by the first service that finds
	// data queued — a receive-only or idle flow never walks the claim path.
	sndBatch core.SendBatch
	sending  bool

	bytesSent int64

	// Send-path offload counters. They are atomics, not mu-guarded: the
	// sender loop updates them outside the lock and Stats snapshots them
	// from any goroutine.
	gsoSends     atomic.Int64
	gsoSegments  atomic.Int64
	sendSyscalls atomic.Int64

	// mmaps are file mappings adopted by SendFileZC whose teardown had to
	// be deferred (the connection failed while packets could still alias
	// the mapped region); Close unmaps them once the sender loop is done.
	mmaps [][]byte

	// udpRcvBuf and udpSndBuf are the kernel socket buffer sizes the OS
	// actually granted (0 when the transport is not a UDP socket).
	udpRcvBuf, udpSndBuf int
}

// newConn wires an established connection (post-handshake) onto a
// scheduler shard. The connection is passive: its sender state machine
// runs only when the shard's worker services it — there is no goroutine
// or runtime timer per connection.
func newConn(cfg Config, sock sockWriter, closer func(), laddr, raddr net.Addr, isn, peerISN int32, shard *poolShard, sec *secure.Session) *Conn {
	c := &Conn{
		cfg:    cfg,
		raddr:  raddr,
		laddr:  laddr,
		sock:   sock,
		closer: closer,
		shard:  shard,
		clock:  shard.clock,
		ledger: cfg.Ledger,
		closed: make(chan struct{}),
	}
	c.bw, _ = sock.(batchWriter)
	c.sw, _ = sock.(segWriter)
	c.burst = burstSize(cfg.BatchSize, mux.DestPrefix+cfg.MSS)
	c.ep = core.NewEndpoint(core.EndpointConfig{
		Engine:     cfg.coreConfig(isn),
		PeerISN:    peerISN,
		SndBufPkts: cfg.SndBuf,
		RcvBufPkts: cfg.RcvBuf,
		Headroom:   mux.DestPrefix,
		Sec:        sec,
		Ledger:     cfg.Ledger,
	})
	var ringSink trace.Sink
	if cfg.PerfHistory > 0 {
		c.perfRing = trace.NewRing(cfg.PerfHistory)
		ringSink = c.perfRing
	}
	if sink := trace.Multi(ringSink, cfg.Trace); sink != nil {
		label := "udt"
		if name := c.ep.Eng.Controller().Name(); name != "native" {
			label = "udt-" + name
		}
		c.ep.Eng.SetPerfSink(sink, cfg.PerfEverySYN, cfg.sockID, label, trace.RoleFlow)
	}
	c.rdReady = sync.NewCond(&c.mu)
	c.wrReady = sync.NewCond(&c.mu)
	c.ep.Eng.Start(c.clock.Now())
	shard.attach(c)
	shard.wake(c) // first service arms the protocol timers on the wheel
	return c
}

// LocalAddr returns the local UDP address.
func (c *Conn) LocalAddr() net.Addr { return c.laddr }

// RemoteAddr returns the peer's UDP address.
func (c *Conn) RemoteAddr() net.Addr { return c.raddr }

// kickSender asks the shard to service this connection: new data to send,
// freed receive buffer, arrived control packet — anything that may change
// what the state machine wants to do next. Safe under c.mu (the shard
// lock nests inside connection locks).
func (c *Conn) kickSender() { c.shard.wake(c) }

// fail records a fatal error and wakes everyone. Callers hold mu.
func (c *Conn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	c.rdReady.Broadcast()
	c.wrReady.Broadcast()
	c.kickSender()
}

// Close shuts the connection down, notifying the peer.
func (c *Conn) Close() error {
	c.mu.Lock()
	alreadyClosed := c.ep.Eng.Closed()
	c.ep.Eng.Close()
	var batch core.SendBatch
	c.ep.DrainOutbox(&batch, int32(c.clock.Now()))
	c.failLocked(ErrClosed)
	c.mu.Unlock()
	for _, b := range batch.Msgs {
		c.sock.writeTo(b, c.raddr) //nolint:errcheck // best-effort shutdown notice
	}
	if !alreadyClosed && c.closer != nil {
		c.closer()
	}
	// Leave the scheduler: after detach the shard guarantees no service
	// run is in flight or will ever start.
	c.shard.detach(c)
	// With sender service finished, nothing can reference a mapped file
	// region anymore; release mappings whose teardown SendFileZC deferred.
	c.mu.Lock()
	mms := c.mmaps
	c.mmaps = nil
	om := c.ownMux
	c.ownMux = nil
	c.mu.Unlock()
	if om != nil {
		// A connection that owns its socket owns the whole Mux built around
		// it. The closer above already released this flow from the mux
		// tables, so Close here only reaps the socket, read loop and worker.
		om.Close() //nolint:errcheck
	}
	for _, m := range mms {
		munmapFile(m) //nolint:errcheck // best-effort address-space release
	}
	return nil
}

// Write queues p on the send buffer, blocking while it is full. It returns
// len(p) unless the connection dies.
func (c *Conn) Write(p []byte) (int, error) {
	written := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for written < len(p) {
		if c.err != nil && c.ep.Eng.Closed() {
			return written, c.err
		}
		n := c.ep.Snd.Write(p[written:])
		if n > 0 {
			written += n
			c.kickSender()
			continue
		}
		c.wrReady.Wait()
	}
	return written, nil
}

// writeZC queues p on the send buffer without copying: packet slots alias
// sub-slices of p, which therefore must stay valid and unmodified until
// every queued byte has been acknowledged (SendFileZC waits for exactly
// that before releasing its file mapping). Like Write it blocks while the
// buffer is full and returns len(p) unless the connection dies.
func (c *Conn) writeZC(p []byte) (int, error) {
	written := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for written < len(p) {
		if c.err != nil && c.ep.Eng.Closed() {
			return written, c.err
		}
		n := c.ep.Snd.WriteZC(p[written:])
		if n > 0 {
			written += n
			c.kickSender()
			continue
		}
		c.wrReady.Wait()
	}
	return written, nil
}

// waitAcked blocks until every queued byte has been acknowledged by the
// peer, or the connection fails. A non-nil return means the drain did
// not complete: packet slots may still alias caller memory somewhere in
// the teardown path.
func (c *Conn) waitAcked() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.ep.Snd.Pending() > 0 {
		c.wrReady.Wait()
	}
	return c.err
}

// adoptMapping hands a file mapping to the connection for teardown at
// Close, used when SendFileZC cannot prove the sender loop is done with
// the mapped region.
func (c *Conn) adoptMapping(m []byte) {
	c.mu.Lock()
	c.mmaps = append(c.mmaps, m)
	c.mu.Unlock()
}

// Read copies received stream bytes into p, blocking until at least one
// byte is available. When the buffer is empty, p itself is attached to the
// protocol buffer so arriving packets land in it directly — the overlapped
// IO of §4.3.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if n := c.ep.Rcv.Available(); n > 0 {
			got := c.ep.Rcv.Read(p)
			// Freed buffer space reopens the advertised window; service the
			// engine so the reopening ACK goes out now rather than at the
			// next scheduled wake — a parked idle flow sleeps all the way to
			// its EXP deadline, far too late to unstall the peer.
			c.kickSender()
			return got, nil
		}
		if c.err != nil || c.ep.Eng.Closed() {
			err := c.err
			if err == nil || err == ErrClosed {
				err = io.EOF
			}
			return 0, err
		}
		attached := !c.overlap && c.ep.Rcv.AttachUser(p)
		if attached {
			c.overlap = true
		}
		c.rdReady.Wait()
		if attached {
			c.overlap = false
			direct := c.ep.Rcv.DetachUser()
			if direct > 0 {
				n := direct
				if rest := c.ep.Rcv.Read(p[direct:]); rest > 0 {
					n += rest
				}
				c.kickSender() // window may have reopened; see above
				return n, nil
			}
		}
	}
}

// sockCounters is an optional sockWriter upgrade: a transport that keeps
// socket-wide totals (demultiplexer drops, pre-connection authentication,
// receive offload) adds them to a Stats snapshot; test fakes do without.
// The snapshot travels by value: a pointer passed through the interface
// would move every Stats call's result to the heap.
type sockCounters interface {
	sockStats(s Stats) Stats
}

// Stats returns a snapshot of the connection's protocol counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	ctrl := c.ep.Eng.Controller()
	var rate float64
	if p := ctrl.Period(); p > 0 {
		rate = float64(c.cfg.MSS) * 8 / p // bits/µs ≡ Mb/s
	}
	s := Stats{
		Stats:          c.ep.Eng.Stats,
		RTT:            time.Duration(c.ep.Eng.RTT()) * time.Microsecond,
		SendRateMbps:   rate,
		BytesSent:      c.bytesSent,
		BytesRecv:      c.ep.BytesRecv,
		UDPRcvBufBytes: c.udpRcvBuf,
		UDPSndBufBytes: c.udpSndBuf,
		CCName:         ctrl.Name(),
		CCPeriodUs:     ctrl.Period(),
		CCWindowPkts:   ctrl.Window(),
	}
	c.mu.Unlock()
	if c.ep.Sec != nil {
		s.AuthRejects, s.ReplayDrops = c.ep.Sec.Drops()
	}
	if sc, ok := c.sock.(sockCounters); ok {
		s = sc.sockStats(s)
	}
	s.GSOEnabled = c.sw != nil && c.sw.offloadActive()
	s.GSOSends = c.gsoSends.Load()
	s.GSOSegments = c.gsoSegments.Load()
	s.SendSyscalls = c.sendSyscalls.Load()
	s.Goroutines = noteGoroutines()
	s.PeakGoroutines = int(peakGoroutines.Load())
	return s
}

// Perf returns the connection's recent telemetry history, oldest to newest:
// one PerfRecord per PerfEverySYN SYN intervals, up to the PerfHistory most
// recent. It returns nil when telemetry is disabled (PerfHistory < 0). The
// returned slice is a snapshot; feed it to trace.WriteCSV/WriteJSONL or
// serve it with trace.Handler.
func (c *Conn) Perf() []PerfRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perfRing == nil {
		return nil
	}
	return c.perfRing.Snapshot()
}

// LastPerf returns the most recent telemetry sample, if any — the cheap way
// to poll a live connection without copying the whole history.
func (c *Conn) LastPerf() (PerfRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perfRing == nil {
		return PerfRecord{}, false
	}
	return c.perfRing.Last()
}

// burstSize bounds the data burst one sender-lock acquisition may claim:
// the configured batch size (clamped in Config.fill), further capped so a
// full train of stride-sized datagrams fits one 64 KB GSO super-datagram
// and the kernel's per-send segment limit.
func burstSize(batch, stride int) int {
	if batch < 1 {
		batch = 1
	}
	if batch > maxGSOSegments {
		batch = maxGSOSegments
	}
	if m := maxUDPPayload / stride; batch > m {
		batch = m
	}
	if batch < 1 {
		batch = 1
	}
	return batch
}

// sched implements poolTask.
func (c *Conn) sched() *schedState { return &c.schedSt }

// runTask is one sender service — the body of §4.8's sender thread,
// re-cast as a scheduler callback: it services the protocol timers, emits
// control packets the engine queued, retransmits losses first, and paces
// data packets out per the engine's schedule. Each service drains the
// control outbox and claims a data burst under one lock acquisition, then
// transmits everything without the lock. The returned wake is when the
// engine next needs service (taskNever once the connection is finished);
// spin asks the shard for §4.5 busy-wait precision on short pacing gaps.
func (c *Conn) runTask() (int64, bool) {
	c.mu.Lock()
	if c.err != nil {
		// Failed or closed: Close drains the final shutdown notices.
		c.mu.Unlock()
		return taskNever, false
	}
	now := c.clock.Now()
	c.ep.Eng.Advance(now)
	c.ep.DrainOutbox(&c.sndBatch, int32(now))
	if c.ep.Eng.Broken() {
		c.failLocked(ErrPeerDead)
		c.mu.Unlock()
		return taskNever, false
	}
	var nData int
	wake, decision := int64(0), core.SendData
	// Loss/retransmission state implies earlier data services, so a flow
	// that has never had data queued has nothing to retransmit either and
	// skips the claim walk entirely.
	c.sending = c.sending || c.ep.Snd.Pending() > 0
	var arena *burstArena
	if c.sending {
		arena = c.shard.arena(c.burst, mux.DestPrefix+c.cfg.MSS)
		nData, wake, decision = c.ep.ClaimBurst(now, c.sendCost, arena.scratch, arena.lens)
	} else {
		wake = c.ep.Eng.NextWake()
	}
	closedNow := c.ep.Eng.Closed() && c.ep.Snd.Pending() == 0
	c.mu.Unlock()

	if err := c.sendCtrlBatch(&c.sndBatch); err != nil {
		c.mu.Lock()
		c.failLocked(fmt.Errorf("udt: send: %w", err))
		c.mu.Unlock()
		return taskNever, false
	}
	if nData > 0 {
		t0 := time.Now()
		sent, err := c.sendDataBurst(arena.scratch, arena.lens, nData, &arena.bufs)
		if err != nil {
			c.mu.Lock()
			c.failLocked(fmt.Errorf("udt: send: %w", err))
			c.mu.Unlock()
			return taskNever, false
		}
		cost := float64(time.Since(t0).Microseconds()) / float64(nData)
		c.mu.Lock()
		c.bytesSent += int64(sent)
		// §4.4: never let rate control tune the period below the real
		// per-packet send time.
		if c.sendCost == 0 {
			c.sendCost = cost
		} else {
			c.sendCost += (cost - c.sendCost) / 8
		}
		c.ep.Eng.Controller().SetMinPeriod(c.sendCost)
		c.mu.Unlock()
		return 0, false // more work may be ready; re-queue immediately
	}
	if closedNow {
		return taskNever, false
	}
	// Parked until wake. Short pacing gaps ask for spin service so the
	// inter-packet period keeps microsecond accuracy when the shard can
	// afford it (§4.5).
	spin := decision == core.WaitPacing && wake > now && wake-now < spinDelayMax
	return wake, spin
}

// sendDataBurst transmits n encoded data packets from scratch (laid out
// by claimBurstLocked) in as few syscalls as the transport allows, in
// descending preference:
//
//  1. GSO: a run of full-size packets (every wire datagram but the last
//     exactly prefix+MSS) goes out as ONE sendmsg carrying a
//     UDP_SEGMENT train the kernel segments — the §4.1 per-packet cost
//     amortized over up to 44 packets;
//  2. sendmmsg: one syscall submitting the burst as separate datagrams;
//  3. portable: one writeTo per packet.
//
// burstBufs is the caller's reusable slice for assembling the datagram
// list. Returns the payload bytes handed to the socket.
func (c *Conn) sendDataBurst(scratch []byte, lens []int, n int, burstBufs *[][]byte) (int, error) {
	stride := mux.DestPrefix + c.cfg.MSS
	sent := 0
	bufs := (*burstBufs)[:0]
	for i := 0; i < n; i++ {
		bufs = append(bufs, scratch[i*stride:i*stride+mux.DestPrefix+lens[i]])
		sent += lens[i]
	}
	*burstBufs = bufs

	if c.sw != nil && n > 1 {
		segOK := true
		for i := 0; i < n-1; i++ {
			if lens[i] != c.cfg.MSS {
				segOK = false // a short mid-burst packet breaks the train
				break
			}
		}
		if segOK {
			var ok bool
			var err error
			c.ledger.Time(timing.BucketUDPWrite, func() { ok, err = c.sw.writeSegments(bufs, stride, c.raddr) })
			if ok {
				if err != nil {
					return sent, err
				}
				c.sendSyscalls.Add(1)
				c.gsoSends.Add(1)
				c.gsoSegments.Add(int64(n))
				return sent, nil
			}
		}
	}
	if c.bw != nil && n > 1 {
		var err error
		c.ledger.Time(timing.BucketUDPWrite, func() { err = c.bw.writeBatch(bufs, c.raddr) })
		c.sendSyscalls.Add(1)
		return sent, err
	}
	sent = 0
	for i := 0; i < n; i++ {
		if _, err := c.sockWrite(scratch[i*stride : i*stride+mux.DestPrefix+lens[i]]); err != nil {
			return sent, err
		}
		sent += lens[i]
	}
	return sent, nil
}

func (c *Conn) sockWrite(b []byte) (int, error) {
	var n int
	var err error
	c.ledger.Time(timing.BucketUDPWrite, func() { n, err = c.sock.writeTo(b, c.raddr) })
	c.sendSyscalls.Add(1)
	return n, err
}

// sendCtrlBatch transmits a drained control batch — one sendmmsg when the
// transport supports batching and there is more than one datagram.
func (c *Conn) sendCtrlBatch(b *core.SendBatch) error {
	if c.bw != nil && len(b.Msgs) > 1 {
		var err error
		c.ledger.Time(timing.BucketUDPWrite, func() { err = c.bw.writeBatch(b.Msgs, c.raddr) })
		c.sendSyscalls.Add(1)
		return err
	}
	for _, m := range b.Msgs {
		if _, err := c.sockWrite(m); err != nil {
			return err
		}
	}
	return nil
}

// handleDatagram processes one UDP datagram that arrived at time now on the
// connection's clock — for a recvmmsg batch or GRO train, the batch read
// time: stamping each packet as it is processed would record the engine's
// per-packet CPU time as inter-arrival spacing and inflate the §3.2
// arrival-speed and §3.4 capacity estimators by orders of magnitude on fast
// links. On a secure connection raw is opened in place — outside mu, like
// every other AEAD operation on the receive side.
func (c *Conn) handleDatagram(raw []byte, now int64) {
	in, ok := c.ep.Decode(raw)
	if !ok {
		return
	}
	c.mu.Lock()
	ev := c.ep.Dispatch(&in, now)
	switch ev {
	case core.EvDropped:
		c.mu.Unlock()
		return
	case core.EvFreshData:
		if c.ep.Rcv.Available() > 0 {
			c.rdReady.Broadcast()
		}
	case core.EvAcked:
		c.wrReady.Broadcast()
	case core.EvShutdown:
		c.failLocked(ErrClosed)
	}
	c.ep.DrainOutbox(&c.rcvBatch, int32(c.clock.Now()))
	peerClosed := c.ep.Eng.Closed()
	c.mu.Unlock()
	c.sendCtrlBatch(&c.rcvBatch) //nolint:errcheck // control losses are repaired by timers
	if peerClosed && c.closer != nil {
		c.closer()
	}
	// Any arrival ends quiescence: a flow parked until its EXP deadline
	// must be rescheduled onto the ACK/NAK cadence, and only a service run
	// re-derives its wake deadline. For a flow already awake this is a
	// cheap state check on the shard.
	c.kickSender()
}

// Drained reports whether every written byte has been sent and
// acknowledged — useful before an abrupt Close. A failed connection
// (closed, or peer declared dead) reports drained: no further progress is
// possible, so waiting on it would never terminate.
func (c *Conn) Drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return true
	}
	return c.ep.Snd.Pending() == 0 && c.ep.Eng.Unacked() == 0
}
