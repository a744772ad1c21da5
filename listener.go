package udt

import (
	"fmt"
	"log"
	"net"
	"sync"
)

// Dial connects to a UDT listener at the given UDP address ("host:port").
// cfg may be nil for defaults. To dial over a different transport (a
// pre-tuned socket, or a netem fault-injection fabric), use DialOn.
func Dial(address string, cfg *Config) (*Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", address)
	if err != nil {
		return nil, fmt.Errorf("udt: dial %s: %w", address, err)
	}
	sock, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("udt: dial %s: %w", address, err)
	}
	return DialOn(sock, raddr, cfg)
}

// wantUDPBuf is the kernel socket buffer size tuneUDPBuffers requests.
const wantUDPBuf = 8 << 20

// udpBufWarnOnce rate-limits the buffer-clamp warning to once per process.
var udpBufWarnOnce sync.Once

// tuneUDPBuffers requests large kernel socket buffers and reports the sizes
// the OS actually granted (in bytes, as read back from the socket; zero
// when the platform cannot report them). At gigabit packet rates the
// default (~200 KB ≈ 10 ms of traffic) drops bursts long before the
// protocol can react; UDT deployments tune this (paper §5's testbeds).
// When the OS clamps the request — rmem_max/wmem_max below the target — a
// one-line warning is logged, once per process.
func tuneUDPBuffers(sock *net.UDPConn) (rcvBytes, sndBytes int) {
	rerr := sock.SetReadBuffer(wantUDPBuf)
	werr := sock.SetWriteBuffer(wantUDPBuf)
	rcvBytes, sndBytes = socketBufferSizes(sock)
	clamped := rerr != nil || werr != nil ||
		(rcvBytes > 0 && rcvBytes < wantUDPBuf) || (sndBytes > 0 && sndBytes < wantUDPBuf)
	if clamped {
		udpBufWarnOnce.Do(func() {
			log.Printf("udt: OS clamped UDP socket buffers to rcv=%d snd=%d bytes (wanted %d); raise net.core.rmem_max/wmem_max for high-bandwidth paths",
				rcvBytes, sndBytes, wantUDPBuf)
		})
	}
	return rcvBytes, sndBytes
}

// Listener accepts incoming UDT connections on one datagram transport,
// which all accepted connections share. It sits on a Mux's demultiplexer:
// every flow is routed by socket ID, so one client address can carry any
// number of them. A Listener made by Listen/ListenOn owns its Mux and
// tears the whole socket down on Close; one made by Mux.Listen only stops
// accepting and closes the accepted connections, leaving the Mux's dialed
// flows running.
type Listener struct {
	m       *Mux
	ownsMux bool
	backlog chan *Conn

	// shards are the extra SO_REUSEPORT group members beyond m
	// (Config.ReusePortShards > 1 on Linux): each is a full Mux — own
	// socket, own read loop, own demux tables — bound to the same
	// address, and the kernel spreads client flows across the group by
	// 4-tuple hash. All shards feed this listener's one backlog, so
	// Accept is oblivious to which socket a connection arrived on.
	// Always owned: only Listen builds groups.
	shards []*Mux

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// Listen starts a UDT listener on the given UDP address. cfg may be nil.
// With Config.ReusePortShards > 1 on Linux the listener binds an
// SO_REUSEPORT socket group instead of one socket: N sockets on the same
// address, each with its own read loop and demultiplexer, with the
// kernel spreading client flows across them by 4-tuple hash — the §4.1
// syscall/interrupt work then scales across cores instead of serializing
// on one socket lock. Elsewhere, or with shards ≤ 1, exactly one socket
// is bound. To listen on a different transport, use ListenOn.
func Listen(address string, cfg *Config) (*Listener, error) {
	laddr, err := net.ResolveUDPAddr("udp", address)
	if err != nil {
		return nil, fmt.Errorf("udt: listen %s: %w", address, err)
	}
	if cfg != nil {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if cfg.ReusePortShards > 1 && reusePortSupported {
			return listenReusePort(laddr, cfg)
		}
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udt: listen %s: %w", address, err)
	}
	return ListenOn(sock, cfg)
}

// listenReusePort binds cfg.ReusePortShards sockets to laddr as one
// SO_REUSEPORT group and stacks a Mux on each; the first carries the
// Listener, the rest attach to it as shards.
func listenReusePort(laddr *net.UDPAddr, cfg *Config) (*Listener, error) {
	shards := cfg.ReusePortShards
	if shards > 64 {
		shards = 64
	}
	socks := make([]*net.UDPConn, 0, shards)
	fail := func(err error) (*Listener, error) {
		for _, s := range socks {
			s.Close() //nolint:errcheck
		}
		return nil, fmt.Errorf("udt: listen %s: %w", laddr, err)
	}
	for i := 0; i < shards; i++ {
		s, err := listenUDPReusePort(laddr)
		if err != nil {
			return fail(err)
		}
		socks = append(socks, s)
		if i == 0 {
			// A wildcard port resolves at the first bind; the rest of the
			// group must join that concrete port.
			laddr = s.LocalAddr().(*net.UDPAddr)
		}
	}
	l, err := ListenOn(socks[0], cfg)
	if err != nil {
		socks = socks[1:] // ListenOn closed its socket
		return fail(err)
	}
	for i, s := range socks[1:] {
		m, merr := NewMux(s, cfg) // closes s on error
		if merr == nil {
			if merr = m.attachListener(l); merr != nil {
				m.Close() //nolint:errcheck
			}
		}
		if merr != nil {
			l.Close()           //nolint:errcheck // tears down every mux built so far
			socks = socks[i+2:] // only sockets no mux ever owned remain open
			return fail(merr)
		}
		l.shards = append(l.shards, m)
	}
	return l, nil
}

// Addr returns the listening transport address.
func (l *Listener) Addr() net.Addr { return l.m.sock.LocalAddr() }

// Accept blocks for the next incoming connection.
func (l *Listener) Accept() (*Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	case <-l.m.done:
		return nil, ErrClosed
	}
}

// Close stops the listener and closes every accepted connection; when the
// listener owns its Mux (Listen/ListenOn), the shared socket and any
// other flows on it are torn down too.
func (l *Listener) Close() error {
	l.mu.Lock()
	alreadyClosed := l.closed
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	l.mu.Unlock()
	if alreadyClosed {
		if l.ownsMux {
			for _, m := range l.shards {
				m.Close() //nolint:errcheck
			}
			return l.m.Close()
		}
		return nil
	}
	for _, m := range append([]*Mux{l.m}, l.shards...) {
		m.mu.Lock()
		if m.listener == l {
			m.listener = nil
		}
		conns := make([]*Conn, 0, len(m.accepted))
		for _, e := range m.accepted {
			conns = append(conns, e.conn)
		}
		m.mu.Unlock()
		for _, c := range conns {
			c.Close() //nolint:errcheck
		}
	}
	// Shards exist only when the listener owns the whole group.
	for _, m := range l.shards {
		m.Close() //nolint:errcheck
	}
	if l.ownsMux {
		return l.m.Close()
	}
	return nil
}

// closeAccepting marks the listener closed without touching connections —
// Mux.Close calls it before closing every flow itself.
func (l *Listener) closeAccepting() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	l.mu.Unlock()
}
