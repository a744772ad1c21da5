package udt

import (
	"net"
	"time"
)

// PacketConn is the datagram transport a UDT endpoint runs over. It is the
// subset of net.PacketConn the stack needs, so a *net.UDPConn satisfies it
// directly; internal/netem provides an in-process implementation with
// configurable loss, delay, reordering, corruption and partitions for
// deterministic fault-injection testing. Implementations must allow
// concurrent ReadFrom and WriteTo calls.
type PacketConn interface {
	// ReadFrom reads one datagram, reporting its source address.
	ReadFrom(p []byte) (n int, addr net.Addr, err error)
	// WriteTo sends one datagram to addr.
	WriteTo(p []byte, addr net.Addr) (n int, err error)
	// Close tears the transport down, unblocking pending reads.
	Close() error
	// LocalAddr returns the local transport address.
	LocalAddr() net.Addr
	// SetReadDeadline bounds future ReadFrom calls; expiry must surface as
	// a net.Error whose Timeout() is true.
	SetReadDeadline(t time.Time) error
}

// DialOn performs the UDT client handshake to raddr over the supplied
// transport and returns the established connection. It is Dial for
// arbitrary datagram fabrics: pass a *net.UDPConn for a custom-tuned
// socket, or a netem endpoint for fault-injection tests.
//
// DialOn takes ownership of pc: it is closed when the returned Conn closes,
// and also when the handshake fails. cfg may be nil for defaults.
func DialOn(pc PacketConn, raddr net.Addr, cfg *Config) (*Conn, error) {
	return connectOn(pc, raddr, cfg, (*Mux).Dial)
}

// privateShards sizes the scheduler of a Mux built around one connection's
// private socket: it carries exactly one flow, so one worker (plus the
// read loop) is all it ever needs, whatever Config.PoolShards says.
const privateShards = 1

// connectOn is the private-socket wrapper behind DialOn and Rendezvous:
// a Mux of pc's own, one connection made on it by connect, and the Mux
// handed to that connection to tear down when it closes.
func connectOn(pc PacketConn, raddr net.Addr, cfg *Config, connect func(*Mux, net.Addr) (*Conn, error)) (*Conn, error) {
	m, err := newMux(pc, cfg, privateShards)
	if err != nil {
		return nil, err
	}
	c, err := connect(m, raddr)
	if err != nil {
		m.Close() //nolint:errcheck
		return nil, err
	}
	c.mu.Lock()
	c.ownMux = m
	c.mu.Unlock()
	return c, nil
}

// ListenOn starts a UDT listener on the supplied transport. It is Listen
// for arbitrary datagram fabrics; all accepted connections share pc,
// demultiplexed by socket ID. ListenOn takes ownership of pc — it is
// closed by Listener.Close — and cfg may be nil for defaults.
func ListenOn(pc PacketConn, cfg *Config) (*Listener, error) {
	m, err := NewMux(pc, cfg)
	if err != nil {
		return nil, err
	}
	l, err := m.Listen()
	if err != nil {
		m.Close() //nolint:errcheck
		return nil, err
	}
	l.ownsMux = true
	return l, nil
}
