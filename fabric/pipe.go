package fabric

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PipeConfig shapes an in-process pipe pair. The zero value is ready to
// use: endpoints named "pipe-a" and "pipe-b", a 1024-datagram queue per
// direction, and drop-on-full (UDP-like) overflow behavior.
type PipeConfig struct {
	// AddrA and AddrB name the two endpoints. Defaults: "pipe-a", "pipe-b".
	AddrA, AddrB string
	// Depth is the per-direction queue capacity in datagrams. Default 1024.
	Depth int
	// Block makes a full peer queue block the writer (a lossless bounded
	// queue, like a tunnel with backpressure) instead of dropping the
	// datagram the way a congested NIC queue does.
	Block bool
	// MaxDatagram caps the recycled buffer size. Datagrams larger than
	// this still transit but allocate. Default 2048 — comfortably above
	// the default UDT MSS.
	MaxDatagram int
}

// Pipe is one side of an in-memory datagram pair: a bounded channel of
// copied datagrams that either drops on overflow exactly like a congested
// NIC queue (the protocol's loss recovery repairs the drop) or, in the
// blocking variant, applies backpressure. Buffers recycle through a shared
// sync.Pool so a long run does not allocate per datagram.
//
// Pipe implements udt.PacketConn; it is safe for concurrent use.
type Pipe struct {
	addr     net.Addr // boxed once at construction: returning it allocates nothing
	peerAddr net.Addr
	in       chan *[]byte // *[]byte (not []byte): a pointer recycles without boxing allocations
	peer     *Pipe
	free     chan *[]byte // shared free list; a channel (not sync.Pool) so recycling works across goroutines and Ps
	max      int
	block    bool
	closed   chan struct{}
	once     sync.Once
	rt       readTimer
	drops    atomic.Int64
}

// NewPipe connects two in-process endpoints according to cfg and returns
// both ends.
func NewPipe(cfg PipeConfig) (*Pipe, *Pipe) {
	if cfg.AddrA == "" {
		cfg.AddrA = "pipe-a"
	}
	if cfg.AddrB == "" {
		cfg.AddrB = "pipe-b"
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1024
	}
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = 2048
	}
	free := make(chan *[]byte, 2*cfg.Depth+16)
	a := &Pipe{addr: Addr(cfg.AddrA), peerAddr: Addr(cfg.AddrB), in: make(chan *[]byte, cfg.Depth), free: free, max: cfg.MaxDatagram, block: cfg.Block, closed: make(chan struct{})}
	b := &Pipe{addr: Addr(cfg.AddrB), peerAddr: Addr(cfg.AddrA), in: make(chan *[]byte, cfg.Depth), free: free, max: cfg.MaxDatagram, block: cfg.Block, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	a.rt.init()
	b.rt.init()
	return a, b
}

// LocalAddr returns this end's fabric address.
func (p *Pipe) LocalAddr() net.Addr { return p.addr }

// SetReadDeadline sets the deadline for future and in-flight ReadFrom
// calls; a zero time clears it.
func (p *Pipe) SetReadDeadline(t time.Time) error {
	p.rt.set(t)
	return nil
}

// ReadFrom receives the next datagram, honoring the read deadline. The
// fast path — data already queued — performs no allocation.
func (p *Pipe) ReadFrom(b []byte) (int, net.Addr, error) {
	select { // fast path: data already queued
	case buf := <-p.in:
		n := copy(b, *buf)
		p.recycle(buf)
		return n, p.peerAddr, nil
	default:
	}
	tm, ok := p.rt.arm()
	if !ok {
		return 0, nil, ErrTimeout
	}
	fired := false
	defer p.rt.release(tm, &fired)
	select {
	case buf := <-p.in:
		n := copy(b, *buf)
		p.recycle(buf)
		return n, p.peerAddr, nil
	case <-p.closed:
		return 0, nil, net.ErrClosed
	case <-timeout(tm):
		fired = true
		return 0, nil, ErrTimeout
	}
}

// WriteTo queues a copy of b on the peer's receive queue. The destination,
// when non-nil, must name the peer — the pipe is point-to-point. When the
// peer queue is full a drop-on-full pipe discards the datagram (counted by
// Drops); a blocking pipe waits for space. Writing to a closed peer
// discards the datagram the way UDP into the void does.
func (p *Pipe) WriteTo(b []byte, dst net.Addr) (int, error) {
	select {
	case <-p.closed:
		return 0, net.ErrClosed
	default:
	}
	if dst != nil && dst.String() != p.peerAddr.String() {
		return 0, fmt.Errorf("fabric: pipe %s cannot reach %s (peer is %s)", p.addr, dst, p.peerAddr)
	}
	var buf *[]byte
	select {
	case buf = <-p.free:
	default:
		n := make([]byte, 0, p.max)
		buf = &n
	}
	*buf = append((*buf)[:0], b...)
	if p.block {
		select {
		case p.peer.in <- buf:
		case <-p.closed:
			p.recycle(buf)
			return 0, net.ErrClosed
		case <-p.peer.closed:
			p.drops.Add(1)
			p.recycle(buf)
		}
		return len(b), nil
	}
	select {
	case p.peer.in <- buf:
	default: // peer queue full: the datagram is lost, like UDP under load
		p.drops.Add(1)
		p.recycle(buf)
	}
	return len(b), nil
}

// recycle returns a datagram buffer to the pair's free list, letting the
// garbage collector have it when the list is full.
func (p *Pipe) recycle(buf *[]byte) {
	select {
	case p.free <- buf:
	default:
	}
}

// Close releases this end: pending and future reads return net.ErrClosed,
// blocked writers wake, and the peer's subsequent writes are discarded.
// Closing is idempotent and does not close the peer.
func (p *Pipe) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// Drops returns the number of datagrams this end discarded writing to a
// full or closed peer queue.
func (p *Pipe) Drops() int64 { return p.drops.Load() }
