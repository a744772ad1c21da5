package udt

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"udt/internal/mux"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
)

// Mux multiplexes many concurrent UDT flows — outbound dials, a listener,
// or both — over one shared datagram transport: one socket, one read
// loop, N endpoints. Every flow is addressed by socket ID: both ends
// advertise one in the handshake, and every data and control datagram
// carries the receiver's as a 4-byte prefix ahead of the (unchanged) UDT
// packet (see internal/mux for the dispatch rules). A handshake that
// advertises no valid socket ID — the paper's own 28-byte handshake
// included — is counted and dropped unanswered.
//
// On Linux the read and write paths use recvmmsg/sendmmsg to move batches
// of datagrams per syscall; elsewhere a portable single-datagram path is
// used.
type Mux struct {
	cfg  Config // validated and filled; the defaults every flow inherits
	sock PacketConn
	core *mux.Core
	pool *connPool // shared connection scheduler: cfg.PoolShards workers

	udpRcvBuf, udpSndBuf int // achieved kernel buffer sizes (0 off-UDP)

	reader batchReader  // platform read path
	sender batchWriter  // platform batched write path; nil → WriteTo loop
	ostats offloadStats // GRO state + counters for the shared socket

	// Secure UDT state, nil without a PSK. keys is derived once per Mux;
	// cookies is the rotating stateless source-address cookie generator.
	// hsOut is the reusable encode buffer for the handshakes the read loop
	// originates (responses, cookie challenges) — touched only on the
	// readLoop goroutine, so a spoofed-source handshake flood is answered
	// without allocating.
	keys    *secure.Keys
	cookies *secure.CookieSource
	hsOut   [hsBufSize]byte

	// authRejects counts handshakes and flows refused by authentication;
	// cookieSent counts stateless challenges issued. Surfaced in every
	// flow's Stats like the demultiplexer drop counters.
	authRejects atomic.Uint64
	cookieSent  atomic.Uint64

	// batchAt is the arrival stamp of the datagram currently being
	// demultiplexed: the kernel receive timestamp when available, else
	// one read time shared by the whole batch (readStamp). Both fields
	// are written and read only on the readLoop goroutine (delivery is
	// synchronous); they exist so the engine's arrival-speed and
	// packet-pair estimators see socket arrival times, not per-packet
	// processing time.
	batchAt   time.Time
	readStamp time.Time

	randMu sync.Mutex // serializes cfg.randInt31 (cfg.Rand is not goroutine safe)

	mu       sync.Mutex
	pending  map[int32]*pendingDial  // our socket ID → dial awaiting response
	rdv      map[string]*pendingDial // peer address → rendezvous dial awaiting crossing
	accepted map[string]*acceptEntry // addr|connID|sockID → answered request
	conns    map[*Conn]struct{}
	listener *Listener
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// hsRetryUS is the handshake retransmission interval in µs (the paper's
// client keeps requesting until answered or timed out).
const hsRetryUS = 250_000

// pendingDial tracks one in-flight client handshake — an ordinary dial or
// a rendezvous; Mux.connect runs both. It is a poolTask: instead of a
// per-dial runtime timer and ticker, the retransmission schedule is an
// intrusive timer on a scheduler shard's wheel, so a churn of thousands of
// concurrent dials costs zero allocations and zero extra goroutines in the
// timer layer.
type pendingDial struct {
	m     *Mux
	shard *poolShard
	flow  *muxFlow         // our seat on the socket; flow.id keys m.pending
	req   packet.Handshake // the request as first sent; read-only once published
	buf   []byte           // encoded request (cookie echoed, once challenged), resent as-is

	deadline int64                 // µs on the shard clock; after this the dial dies
	resp     chan packet.Handshake // buffered 1; first routed handshake wins
	dead     chan error            // buffered 1; delivers ErrTimeout or a send error
	schedSt  schedState

	// Rendezvous state, zero for ordinary dials (see Mux.Rendezvous). While
	// the dial is pending it is registered in m.rdv under rdvKey; a crossing
	// request that loses the tie-break against req is answered by building
	// the connection directly on flow and delivering it through estab. A nil
	// estab is never selected, so one wait loop serves both kinds of dial.
	rdvKey string
	estab  chan *Conn // buffered 1; a won crossing delivers the conn here
}

func (pd *pendingDial) sched() *schedState { return &pd.schedSt }

// runTask fires on the shard worker at each retransmission deadline:
// resend the request, or declare the dial dead past its deadline. The
// dialing goroutine is parked in await the whole time.
func (pd *pendingDial) runTask() (int64, bool) {
	now := pd.shard.clock.Now()
	if now >= pd.deadline {
		select {
		case pd.dead <- ErrTimeout:
		default:
		}
		return taskNever, false
	}
	if _, err := pd.m.sock.WriteTo(pd.buf, pd.flow.raddr); err != nil {
		select {
		case pd.dead <- fmt.Errorf("udt: handshake: %w", err):
		default:
		}
		return taskNever, false
	}
	wake := now + hsRetryUS
	if wake > pd.deadline {
		wake = pd.deadline
	}
	return wake, false
}

// acceptEntry pins the exact handshake response for one accepted request,
// so duplicate requests (ours lost on the way back) are re-answered with
// identical parameters instead of ignored.
type acceptEntry struct {
	resp packet.Handshake
	conn *Conn
}

// batchReader is the platform read path: one call reads one or more
// datagrams, invoking deliver for each. Buffers and addresses passed to
// deliver are only valid during that call. at is the datagram's kernel
// receive timestamp when the platform provides one (SO_TIMESTAMPNS), or
// the zero time — the caller then stamps the whole batch with one read
// time, which keeps batched delivery from polluting arrival-interval
// measurements with per-packet processing time.
type batchReader interface {
	readBatch(deliver func(raw []byte, from net.Addr, at time.Time)) error
}

// NewMux wraps pc as a shared multi-flow socket and starts its read loop.
// It takes ownership of pc — the transport is closed by Mux.Close — and
// cfg (nil for defaults) supplies the parameters every flow inherits. A
// UDP socket gets large kernel buffers requested on it; the sizes the OS
// granted surface in every flow's Stats.
func NewMux(pc PacketConn, cfg *Config) (*Mux, error) {
	return newMux(pc, cfg, 0)
}

// newMux is NewMux with the scheduler sized by the caller: shards > 0
// overrides Config.PoolShards (see connectOn).
func newMux(pc PacketConn, cfg *Config, shards int) (*Mux, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := c.Validate(); err != nil {
		pc.Close() //nolint:errcheck
		return nil, err
	}
	c.fill()
	if shards == 0 {
		shards = c.PoolShards
	}
	m := &Mux{
		cfg:      c,
		sock:     pc,
		pending:  make(map[int32]*pendingDial),
		rdv:      make(map[string]*pendingDial),
		accepted: make(map[string]*acceptEntry),
		conns:    make(map[*Conn]struct{}),
		done:     make(chan struct{}),
	}
	if u, ok := pc.(*net.UDPConn); ok {
		// Accepted and dialed connections copy these, so they must be known
		// before the read loop starts.
		m.udpRcvBuf, m.udpSndBuf = tuneUDPBuffers(u)
	}
	if len(c.PSK) > 0 {
		m.keys = secure.DeriveKeys(c.PSK)
		// Cookie seeds come from the handshake randomness source so tests
		// with a fixed Config.Rand are reproducible end to end.
		seed := func() uint64 {
			return uint64(uint32(c.randInt31()))<<32 | uint64(uint32(c.randInt31()))
		}
		m.cookies = secure.NewCookieSource(seed(), seed(), secure.DefaultCookieInterval)
	}
	m.core = mux.NewCore(m.handleHandshake)
	m.pool = newConnPool(shards, c.Ledger)
	m.reader = newBatchReader(pc, c.BatchSize, !c.DisableOffload, &m.ostats)
	if m.reader == nil {
		m.reader = &singleReader{pc: pc, buf: make([]byte, 65536)}
	}
	m.sender = newBatchSender(pc, !c.DisableOffload)
	m.wg.Add(1)
	go m.readLoop()
	return m, nil
}

// Offload reports the shared socket's segmentation-offload verdicts, as
// probed once at socket setup: gso — the send path can submit
// UDP_SEGMENT trains; gro — the read loop receives kernel-coalesced
// trains. Both are false when offload is disabled, unsupported, or the
// transport is not a UDP socket.
func (m *Mux) Offload() (gso, gro bool) {
	if s, ok := m.sender.(segWriter); ok && s != nil {
		gso = s.offloadActive()
	}
	return gso, m.ostats.groOn.Load()
}

// Addr returns the shared transport's local address.
func (m *Mux) Addr() net.Addr { return m.sock.LocalAddr() }

// Counters reports the demultiplexer's drop totals: datagrams that named
// no resident flow (unknown, missing or invalid socket ID), and datagrams
// too short for their class. The same totals surface per-connection as
// Stats.MuxUnknownDest / Stats.MuxShortDatagram.
func (m *Mux) Counters() (unknownDest, shortDatagram uint64) {
	return m.core.Counters()
}

// Flows returns the number of socket-ID-routed flows currently resident.
func (m *Mux) Flows() int { return m.core.Flows() }

// randInt31 draws handshake randomness under the rand lock: dials run
// concurrently and Config.Rand is a bare *rand.Rand.
func (m *Mux) randInt31() int32 {
	m.randMu.Lock()
	defer m.randMu.Unlock()
	return m.cfg.randInt31()
}

// transientNetErr reports whether a socket error is a transient
// datagram-level condition rather than a dead transport. Linux queues ICMP
// errors (port unreachable from a peer whose process exited, a routing
// blip, an iptables drop) on the socket and reports them as errno on the
// *next* syscall; on a shared socket that error belongs to at most one
// flow, so the socket must keep serving the others. The datagram involved
// is simply lost, which the protocol already repairs.
func transientNetErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EPERM)
}

// readLoop pumps the shared socket into the demultiplexer until the
// transport closes. One flow's dead peer must not take the loop down:
// queued ICMP errors are skipped, not treated as a closed transport.
func (m *Mux) readLoop() {
	defer m.wg.Done()
	deliver := func(raw []byte, from net.Addr, at time.Time) {
		if at.IsZero() {
			// No kernel stamp: one read time for the whole batch.
			if m.readStamp.IsZero() {
				m.readStamp = time.Now()
			}
			at = m.readStamp
		}
		m.batchAt = at
		m.core.Dispatch(raw, from)
	}
	for {
		m.readStamp = time.Time{}
		if err := m.reader.readBatch(deliver); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				select {
				case <-m.done:
					return
				default:
					continue
				}
			}
			if transientNetErr(err) {
				continue
			}
			return // transport closed
		}
	}
}

// keepReadDeadline keeps a read deadline 50–100 ms ahead: Close is noticed
// within 100 ms, yet a socket still receiving never times out (an allocation).
func keepReadDeadline(pc interface{ SetReadDeadline(time.Time) error }, renew *time.Time) {
	if now := time.Now(); now.After(*renew) {
		pc.SetReadDeadline(now.Add(100 * time.Millisecond)) //nolint:errcheck
		*renew = now.Add(50 * time.Millisecond)
	}
}

// singleReader is the portable read path: one ReadFrom per call.
type singleReader struct {
	pc    PacketConn
	buf   []byte
	renew time.Time // when to move the read deadline again
}

func (r *singleReader) readBatch(deliver func([]byte, net.Addr, time.Time)) error {
	keepReadDeadline(r.pc, &r.renew)
	n, from, err := r.pc.ReadFrom(r.buf)
	if err != nil {
		return err
	}
	deliver(r.buf[:n], from, time.Time{})
	return nil
}

// muxFlow is one endpoint's seat on the shared socket: the sockWriter a
// Conn sends through, and the mux.Flow its datagrams are delivered to.
// The peer's socket ID is stamped into the first mux.DestPrefix bytes of
// every outgoing datagram; ours is what the peer stamps on its own.
type muxFlow struct {
	m         *Mux
	raddr     net.Addr
	id        int32  // our socket ID, allocated with the flow
	peerID    int32  // peer's socket ID, valid (mux.IDValid) before any Conn exists
	acceptKey string // accepted-map key, for teardown
	conn      atomic.Pointer[Conn]
}

// HandleDatagram delivers one demultiplexed datagram to the connection.
// Packets racing ahead of connection setup (the peer answers before our
// Conn is wired) are dropped; the protocol's timers repair the loss.
func (f *muxFlow) HandleDatagram(raw []byte) {
	if c := f.conn.Load(); c != nil {
		if at := f.m.batchAt; !at.IsZero() {
			c.handleDatagram(raw, c.clock.At(at))
			return
		}
		c.handleDatagram(raw, c.clock.Now())
	}
}

func (f *muxFlow) writeTo(b []byte, addr net.Addr) (int, error) {
	mux.PutDest(b, f.peerID)
	n, err := f.m.sock.WriteTo(b, addr)
	if err != nil && transientNetErr(err) {
		// A queued ICMP error (possibly another flow's) consumed this
		// send; count the datagram as lost, not the connection as dead.
		return len(b), nil
	}
	return n, err
}

func (f *muxFlow) writeBatch(bufs [][]byte, addr net.Addr) error {
	for _, b := range bufs {
		mux.PutDest(b, f.peerID)
	}
	if s := f.m.sender; s != nil {
		return s.writeBatch(bufs, addr)
	}
	for _, b := range bufs {
		if _, err := f.m.sock.WriteTo(b, addr); err != nil {
			if transientNetErr(err) {
				continue // this datagram is lost; the socket is fine
			}
			return err
		}
	}
	return nil
}

// writeSegments offers the shared socket's GSO path to the flow's Conn.
// Socket-ID stamping happens before the kernel segments the train, so
// every recovered datagram demultiplexes exactly like a single send. A
// false return leaves the batch unconsumed; PutDest is idempotent, so
// the sendmmsg fallback re-stamping the same headroom is harmless.
func (f *muxFlow) writeSegments(bufs [][]byte, segSize int, addr net.Addr) (bool, error) {
	s, ok := f.m.sender.(segWriter)
	if !ok || s == nil {
		return false, nil
	}
	for _, b := range bufs {
		mux.PutDest(b, f.peerID)
	}
	return s.writeSegments(bufs, segSize, addr)
}

func (f *muxFlow) offloadActive() bool {
	if s, ok := f.m.sender.(segWriter); ok && s != nil {
		return s.offloadActive()
	}
	return false
}

// sockStats fills in the shared socket's totals: demultiplexer drops,
// pre-connection authentication counters and receive-offload counters.
func (f *muxFlow) sockStats(s Stats) Stats {
	s.MuxUnknownDest, s.MuxShortDatagram = f.m.core.Counters()
	s.AuthRejects += f.m.authRejects.Load()
	s.CookieSent = f.m.cookieSent.Load()
	s.GROReads, s.GROSegments = f.m.ostats.groReads.Load(), f.m.ostats.groSegments.Load()
	return s
}

// release tears one flow out of every table; it is each Conn's closer.
func (m *Mux) release(f *muxFlow) {
	m.core.Unregister(f.id)
	m.mu.Lock()
	if c := f.conn.Load(); c != nil {
		delete(m.conns, c)
	}
	if f.acceptKey != "" {
		delete(m.accepted, f.acceptKey)
	}
	delete(m.pending, f.id)
	m.mu.Unlock()
}

// cloneAddr copies an address that may alias reusable reader state (the
// recvmmsg path reuses its address slots across batches). Non-UDP
// transports (netem) hand out one stable *Addr per peer, safe to retain.
func cloneAddr(a net.Addr) net.Addr {
	if u, ok := a.(*net.UDPAddr); ok {
		c := *u
		c.IP = append(net.IP(nil), u.IP...)
		return &c
	}
	return a
}

// Dial opens a UDT connection to raddr over the shared socket. The
// request advertises our socket ID and the peer's response its own; from
// then on each direction prefixes its datagrams with the receiver's ID,
// so any number of flows can share one address pair. A response without
// a valid socket ID is not an answer: the dial keeps retransmitting until
// a real one arrives or HandshakeTimeout expires.
func (m *Mux) Dial(raddr net.Addr) (*Conn, error) {
	if raddr == nil {
		return nil, errors.New("udt: mux dial: nil remote address")
	}
	return m.connect(m.newDial(raddr))
}

// flowConfig is the Config a new flow starts negotiating from: it leaves
// room for the destination prefix, so prefix + packet stay within the
// datagram budget; the reduced MSS is what gets advertised, so the peer's
// packets fit under the path MTU too.
func (m *Mux) flowConfig() Config {
	cfg := m.cfg
	cfg.MSS = max(cfg.MSS-mux.DestPrefix, 96)
	return cfg
}

// newDial allocates the local half of an outbound connection: a flow
// holding a fresh socket ID, and the request advertising it. Rendezvous
// adds its option before handing the dial to connect.
func (m *Mux) newDial(raddr net.Addr) *pendingDial {
	flow := &muxFlow{m: m, raddr: cloneAddr(raddr)}
	flow.id = m.core.AllocID(m.randInt31, flow)
	cfg := m.flowConfig()
	return &pendingDial{
		m: m, shard: m.pool.shard(), flow: flow,
		req: packet.Handshake{
			Version:    packet.Version,
			InitSeq:    m.randInt31() & seqno.Max,
			MSS:        int32(cfg.MSS),
			FlowWindow: int32(cfg.MaxFlowWindow),
			ReqType:    packet.HSRequest,
			ConnID:     m.randInt31(),
			SockID:     flow.id,
		},
		buf:  make([]byte, hsBufSize),
		resp: make(chan packet.Handshake, 1),
		dead: make(chan error, 1),
	}
}

// encode signs req (with a PSK) and encodes it into the retransmission
// buffer. The wheel must not be resending meanwhile: the dial is either
// not yet started or detached.
func (pd *pendingDial) encode(req *packet.Handshake) error {
	if pd.m.keys != nil {
		if err := signHandshakeHS(pd.m.keys, req, nil); err != nil {
			return err
		}
	}
	n, err := packet.EncodeHandshake(pd.buf[:cap(pd.buf)], req, 0)
	pd.buf = pd.buf[:n]
	return err
}

// start sends the encoded request and parks the dial on its shard's
// timing wheel, which owns the 250 ms retransmission cadence and the
// overall deadline (no per-dial runtime timers).
func (pd *pendingDial) start() error {
	if _, err := pd.m.sock.WriteTo(pd.buf, pd.flow.raddr); err != nil {
		return fmt.Errorf("udt: handshake: %w", err)
	}
	pd.shard.attach(pd)
	pd.shard.sleep(pd, pd.shard.clock.Now()+hsRetryUS)
	return nil
}

// await parks the dialing goroutine until the handshake resolves: with
// the peer's acceptable response, with a connection the read loop built
// from a won rendezvous crossing, or with an error. The read loop routes
// handshakes addressed to this dial into pd.resp (responses arrive
// unprefixed; internal/mux hands them to handleHandshake, which matches
// them by the socket ID they echo). Only an HSResponse completes the dial.
// On a secure dial a cookie challenge restarts the request with the cookie
// echoed, and a response that fails authentication is ignored — an
// off-path forgery must not be able to kill the dial — while the wheel
// keeps retransmitting until the real answer or the deadline.
func (pd *pendingDial) await() (hs packet.Handshake, won *Conn, err error) {
	m := pd.m
	for {
		select {
		case won = <-pd.estab:
			return hs, won, nil
		case hs = <-pd.resp:
		case err = <-pd.dead:
			return hs, nil, err
		case <-m.done:
			return hs, nil, ErrClosed
		}
		switch {
		case hs.ReqType == packet.HSCookie && m.keys != nil:
			// Swap the retransmission buffer out from under the wheel:
			// detach guarantees no resend is in flight, then re-arm.
			pd.shard.detach(pd)
			req := pd.req
			req.Cookie = hs.Cookie
			if err = pd.encode(&req); err == nil {
				err = pd.start()
			}
			if err != nil {
				return hs, nil, err
			}
		case hs.ReqType != packet.HSResponse:
			// A challenge nobody asked for is not an answer; keep waiting.
		case m.keys == nil:
			return hs, nil, nil
		case !hs.Sec():
			if !m.cfg.AllowUnauth {
				err = errAuthRequired
			}
			return hs, nil, err // else: peer runs without a PSK; negotiate down to clear
		case verifyHandshakeHS(m.keys, &hs, pd.req.Nonce[:]):
			return hs, nil, nil
		default:
			m.authRejects.Add(1) // forged or corrupt; keep waiting for the real one
		}
	}
}

// connect runs the client handshake for a dial built by newDial — the one
// client connect path: Dial, Rendezvous and their private-socket wrappers
// all end here.
func (m *Mux) connect(pd *pendingDial) (*Conn, error) {
	flow := pd.flow
	if m.keys != nil {
		pd.req.SecFlags = m.cfg.secFlags()
		fillNonce(&pd.req.Nonce, m.randInt31)
	}
	// The read loop's tie-break reads pd.req the moment pd is visible in
	// the rendezvous table (the peer's crossing request can land before we
	// send ours), so the request is fully built — and signed — before pd is
	// published.
	err := pd.encode(&pd.req)
	if err == nil {
		err = m.publish(pd)
	}
	if err != nil {
		m.core.Unregister(flow.id)
		return nil, err
	}

	pd.deadline = pd.shard.clock.Now() + m.cfg.HandshakeTimeout.Microseconds()
	var resp packet.Handshake
	var won *Conn
	if err = pd.start(); err == nil {
		resp, won, err = pd.await()
		pd.shard.detach(pd)
	}
	if !m.retire(pd) && won == nil {
		// The read loop accepted a crossing concurrently with whatever ended
		// the wait. That connection is the one both sides already committed
		// to, so a stray response — or a timeout — is dropped in its favour.
		won = <-pd.estab
	}
	if won != nil {
		return won, nil
	}
	if err != nil {
		m.core.Unregister(flow.id)
		return nil, err
	}

	flow.peerID = resp.SockID
	var conn *Conn
	m.mu.Lock()
	err = ErrClosed
	if !m.closed {
		conn, err = m.establishLocked(flow, &pd.req, &resp)
	}
	m.mu.Unlock()
	if err != nil {
		m.release(flow) // the demux registration; there is no conn yet
	}
	return conn, err
}

// publish makes a dial visible to the read loop: responses route to it by
// socket ID, crossing requests (for a rendezvous) by peer address.
func (m *Mux) publish(pd *pendingDial) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if pd.rdvKey != "" {
		if m.rdv[pd.rdvKey] != nil {
			return fmt.Errorf("udt: a rendezvous with %s is already in progress", pd.rdvKey)
		}
		m.rdv[pd.rdvKey] = pd
	}
	m.pending[pd.flow.id] = pd
	return nil
}

// retire takes a dial out of the tables and reports whether its fate is
// still the dialing goroutine's to decide. False means a crossing the read
// loop accepted got there first: the established connection is in (or is
// guaranteed to arrive in) pd.estab.
func (m *Mux) retire(pd *pendingDial) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pending, pd.flow.id)
	if pd.rdvKey == "" {
		return true
	}
	if m.rdv[pd.rdvKey] != pd {
		return false
	}
	delete(m.rdv, pd.rdvKey)
	return true
}

// establishLocked puts a Conn on flow — the one place that happens — from
// the two halves of a completed handshake: ours and the peer's. On the
// dialing side ours is the request we sent and theirs the response that
// answered it. On the answering side theirs is the request and ours the
// response about to be sent: the caller fills in whom it is from and to,
// and the outcome of the negotiation (MSS, window and, with a PSK, the
// security option, nonce and authenticator) is written into it here, so
// what is pinned for re-answers and put on the wire is exactly what the
// connection was built from. Callers hold m.mu and have checked m.closed.
func (m *Mux) establishLocked(flow *muxFlow, ours, theirs *packet.Handshake) (*Conn, error) {
	cfg := m.flowConfig()
	// Negotiate downwards.
	if int(theirs.MSS) < cfg.MSS && theirs.MSS >= 96 {
		cfg.MSS = int(theirs.MSS)
	}
	if int(theirs.FlowWindow) < cfg.MaxFlowWindow && theirs.FlowWindow > 0 {
		cfg.MaxFlowWindow = int(theirs.FlowWindow)
	}
	cfg.sockID = flow.id
	dialed := ours.ReqType == packet.HSRequest
	authed := m.keys != nil && theirs.Sec()
	aead := authed && grantAEAD(m.cfg.secFlags(), theirs.SecFlags)
	if !dialed {
		ours.MSS, ours.FlowWindow = int32(cfg.MSS), int32(cfg.MaxFlowWindow)
		if authed {
			ours.SecFlags = secure.FlagAuth
			if aead {
				ours.SecFlags |= secure.FlagAEAD
			}
			fillNonce(&ours.Nonce, m.randInt31)
			// The response authenticator binds the requester's nonce, so a
			// response captured from another connection fails its check. It
			// is computed once here; re-answers to duplicate requests reuse
			// it, staying bit-identical to the original.
			if err := signHandshakeHS(m.keys, ours, theirs.Nonce[:]); err != nil {
				return nil, err
			}
		}
	}
	var sec *secure.Session
	if authed {
		cli, srv := ours, theirs
		if !dialed {
			cli, srv = theirs, ours
		}
		sec = secure.NewSession(m.keys, cli.Nonce[:], srv.Nonce[:], dialed, ours.InitSeq, theirs.InitSeq, aead)
	}
	conn := newConn(cfg, flow, func() { m.release(flow) }, m.sock.LocalAddr(), flow.raddr, ours.InitSeq, theirs.InitSeq, m.pool.shard(), sec)
	conn.udpRcvBuf, conn.udpSndBuf = m.udpRcvBuf, m.udpSndBuf
	m.conns[conn] = struct{}{}
	if flow.acceptKey != "" {
		m.accepted[flow.acceptKey] = &acceptEntry{resp: *ours, conn: conn}
	}
	flow.conn.Store(conn)
	return conn, nil
}

// Listen starts accepting incoming connections on the shared socket. A
// Mux carries at most one listener; dialed flows are unaffected by it.
func (m *Mux) Listen() (*Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.listener != nil {
		return nil, errors.New("udt: mux already has a listener")
	}
	l := &Listener{
		m:       m,
		backlog: make(chan *Conn, 256),
		done:    make(chan struct{}),
	}
	m.listener = l
	return l, nil
}

// attachListener points this Mux's accept path at an existing listener:
// handshakes arriving on this socket then feed l's backlog. It is how
// the secondary members of an SO_REUSEPORT group join the one Listener.
func (m *Mux) attachListener(l *Listener) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.listener != nil {
		return errors.New("udt: mux already has a listener")
	}
	m.listener = l
	return nil
}

// Close tears the whole shared socket down: every flow, the listener, and
// the transport.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]*Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	l := m.listener
	m.mu.Unlock()
	close(m.done)
	if l != nil {
		l.closeAccepting()
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	// Every Conn has detached from its shard (Close blocks on that), so the
	// scheduler can stop; dials racing Close detach safely against stopped
	// shards — see poolShard.detach.
	m.pool.close()
	err := m.sock.Close()
	m.wg.Wait()
	return err
}

// handleHandshake receives every handshake control packet on the shared
// socket, on the read-loop goroutine. A request or response must advertise
// a valid socket ID — the only address a flow has; one that does not is
// counted as an unknown destination and dropped here, before the cookie
// gate, any map-key formatting or any allocation, so it gets no reply and
// leaves no state. (A cookie challenge legitimately carries only
// PeerSockID.)
func (m *Mux) handleHandshake(raw []byte, from net.Addr) {
	ctrl, err := packet.DecodeControl(raw)
	if err != nil {
		return
	}
	hs, err := packet.DecodeHandshake(ctrl)
	if err != nil || hs.Version != packet.Version {
		return
	}
	if hs.ReqType != packet.HSCookie && !mux.IDValid(hs.SockID) {
		m.core.CountUnknownDest()
		return
	}
	switch hs.ReqType {
	case packet.HSResponse, packet.HSCookie:
		// An answer to one of our dials, or a listener's stateless challenge
		// to it (the dialing goroutine echoes the cookie in a fresh request).
		m.completeDial(hs)
	case packet.HSRequest:
		if hs.Rdv() {
			m.rendezvousCross(hs, from, raw)
			return
		}
		m.answerRequest(hs, from, raw)
	}
}

// reply encodes a handshake we originate on the read loop — a response or
// a cookie challenge — and sends it to the requester. The encode buffer is
// reused, so answering a flood allocates nothing here; a lost reply is
// repaired by the peer's retransmitted request.
func (m *Mux) reply(hs *packet.Handshake, to net.Addr) {
	if n, err := packet.EncodeHandshake(m.hsOut[:], hs, 0); err == nil {
		m.sock.WriteTo(m.hsOut[:n], to) //nolint:errcheck
	}
}

// authentic checks an incoming request's handshake authenticator (HMAC
// verified against the raw bytes); a clear request passes only when
// AllowUnauth negotiates down to the clear protocol. Refusals are counted.
func (m *Mux) authentic(hs *packet.Handshake, raw []byte) bool {
	if m.keys == nil {
		return true
	}
	ok := m.cfg.AllowUnauth
	if hs.Sec() {
		ok = verifyHandshakeRaw(m.keys, raw, nil)
	}
	if !ok {
		m.authRejects.Add(1)
	}
	return ok
}

// gateRequest runs the pre-connection Secure UDT checks on an incoming
// request, cheapest first, before any state is allocated or even a map key
// formatted: the source-address cookie (one SipHash; missing or stale →
// a stateless challenge), then the handshake authenticator. It reports
// whether the request may proceed. Runs on the readLoop goroutine.
func (m *Mux) gateRequest(hs *packet.Handshake, from net.Addr, raw []byte) bool {
	if m.keys != nil && hs.Sec() {
		var ab [64]byte
		addr := cookieAddr(ab[:0], from)
		now := time.Now().UnixMicro()
		if !m.cookies.Valid(now, addr, hs.Cookie) {
			m.cookieSent.Add(1)
			m.reply(&packet.Handshake{
				Version:    packet.Version,
				ReqType:    packet.HSCookie,
				ConnID:     hs.ConnID,
				PeerSockID: hs.SockID,
				SecFlags:   secure.FlagAuth,
				Cookie:     m.cookies.Cookie(now, addr),
			}, from)
			return false
		}
	}
	return m.authentic(hs, raw)
}

// completeDial routes a handshake addressed to one of our dials — a
// response, or a cookie challenge — to the goroutine waiting in await. The
// peer echoes our socket ID in PeerSockID: an exact table match, checked
// against the connection ID.
func (m *Mux) completeDial(hs packet.Handshake) {
	m.mu.Lock()
	pd := m.pending[hs.PeerSockID]
	m.mu.Unlock()
	if pd == nil || pd.req.ConnID != hs.ConnID {
		return
	}
	select {
	case pd.resp <- hs:
	default: // duplicate response; the first one won
	}
}

// acceptKey is the accepted-table key for a request: requests are
// deduplicated by (address, connection ID, peer socket ID).
func acceptKey(hs *packet.Handshake, from net.Addr) string {
	return from.String() + "|" + strconv.FormatInt(int64(hs.ConnID), 10) +
		"|" + strconv.FormatInt(int64(hs.SockID), 10)
}

// answerRequest accepts (or re-answers) a connection request. Requests
// are deduplicated by acceptKey, so one client address can carry many
// multiplexed flows, and a request whose response was lost is answered
// again with identical parameters — the retry is indistinguishable from
// the original on the client side.
func (m *Mux) answerRequest(hs packet.Handshake, from net.Addr, raw []byte) {
	if !m.gateRequest(&hs, from, raw) {
		return
	}
	key := acceptKey(&hs, from)
	m.mu.Lock()
	if m.closed || m.listener == nil {
		m.mu.Unlock()
		return
	}
	backlog := m.listener.backlog
	e := m.accepted[key]
	if e == nil && len(backlog) == cap(backlog) {
		// Backlog full: drop the request unanswered, like a full TCP listen
		// queue. Answering first and closing on overflow would tear the
		// flow down microseconds after the client completed its dial — its
		// retry converges, a lost shutdown notice does not.
		m.mu.Unlock()
		return
	}
	var resp packet.Handshake
	var fresh *Conn
	if e != nil {
		resp = e.resp
	} else {
		flow := &muxFlow{m: m, raddr: cloneAddr(from), peerID: hs.SockID, acceptKey: key}
		resp = packet.Handshake{
			Version:    packet.Version,
			InitSeq:    m.randInt31() & seqno.Max,
			ReqType:    packet.HSResponse,
			ConnID:     hs.ConnID,
			PeerSockID: hs.SockID,
		}
		flow.id = m.core.AllocID(m.randInt31, flow)
		resp.SockID = flow.id
		var err error
		if fresh, err = m.establishLocked(flow, &resp, &hs); err != nil {
			m.mu.Unlock()
			m.release(flow) // the demux registration; there is no conn yet
			return
		}
	}
	m.mu.Unlock()

	m.reply(&resp, from)
	if fresh != nil {
		select {
		case backlog <- fresh:
		default:
			// Backlog overflow: drop the connection; the client's retries
			// will find the slot again after release().
			fresh.Close() //nolint:errcheck
		}
	}
}
