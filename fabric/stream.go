package fabric

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// FramedConfig shapes a stream-framed adapter. The zero value is ready to
// use: endpoints named "framed-local" and "framed-peer", a 256-datagram
// receive queue, and a 64 KiB datagram cap.
type FramedConfig struct {
	// LocalAddr and RemoteAddr name the two ends of the stream. Defaults:
	// "framed-local", "framed-peer".
	LocalAddr, RemoteAddr string
	// Depth is the receive queue capacity in datagrams. When it fills,
	// the pump goroutine stops reading the stream — backpressure, not
	// loss. Default 256.
	Depth int
	// MaxDatagram rejects frames larger than this as stream corruption
	// (the adapter dies rather than desynchronize). Default 65535.
	MaxDatagram int
}

// Framed carries length-prefixed datagrams over any stream, turning an
// io.ReadWriter — a TCP connection, a TLS session, an SSH channel, a pair
// of OS pipes — into a udt.PacketConn. Each datagram is framed as a 4-byte
// big-endian length followed by the payload; a single Write call per
// datagram keeps frames atomic under concurrent writers.
//
// A pump goroutine owns the stream's read side, so ReadFrom supports
// deadlines even though the underlying stream may not. Close closes the
// stream when it implements io.Closer, which is also what unblocks the
// pump.
type Framed struct {
	rw     io.ReadWriter
	local  net.Addr // boxed once at construction: returning it allocates nothing
	remote net.Addr

	wmu  sync.Mutex
	wbuf []byte // reused frame buffer: 4-byte length + payload

	in   chan *[]byte // *[]byte (not []byte): a pointer recycles without boxing allocations
	free chan *[]byte // free list; a channel (not sync.Pool) so recycling works across goroutines and Ps
	rt   readTimer

	closed  chan struct{}
	once    sync.Once
	dead    chan struct{} // pump exited; readErr holds why
	readErr error
}

// NewFramed wraps rw in the framed adapter and starts its read pump.
func NewFramed(rw io.ReadWriter, cfg FramedConfig) *Framed {
	if cfg.LocalAddr == "" {
		cfg.LocalAddr = "framed-local"
	}
	if cfg.RemoteAddr == "" {
		cfg.RemoteAddr = "framed-peer"
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 256
	}
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = 65535
	}
	f := &Framed{
		rw:     rw,
		local:  Addr(cfg.LocalAddr),
		remote: Addr(cfg.RemoteAddr),
		in:     make(chan *[]byte, cfg.Depth),
		free:   make(chan *[]byte, cfg.Depth+16),
		closed: make(chan struct{}),
		dead:   make(chan struct{}),
	}
	f.rt.init()
	go f.pump(cfg.MaxDatagram)
	return f
}

// pump owns the stream's read side: it reassembles frames and queues them
// for ReadFrom, blocking (stream backpressure) when the queue is full.
func (f *Framed) pump(maxDatagram int) {
	defer close(f.dead)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(f.rw, hdr[:]); err != nil {
			f.readErr = err
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > maxDatagram {
			f.readErr = fmt.Errorf("fabric: framed datagram of %d bytes exceeds cap %d (stream desynchronized?)", n, maxDatagram)
			return
		}
		var buf *[]byte
		select {
		case buf = <-f.free:
		default:
			b := make([]byte, 0, 2048)
			buf = &b
		}
		if cap(*buf) < n {
			*buf = make([]byte, 0, n)
		}
		*buf = (*buf)[:n]
		if _, err := io.ReadFull(f.rw, *buf); err != nil {
			f.recycle(buf)
			f.readErr = err
			return
		}
		select {
		case f.in <- buf:
		case <-f.closed:
			return
		}
	}
}

// LocalAddr returns this end's fabric address.
func (f *Framed) LocalAddr() net.Addr { return f.local }

// SetReadDeadline sets the deadline for future and in-flight ReadFrom
// calls; a zero time clears it.
func (f *Framed) SetReadDeadline(t time.Time) error {
	f.rt.set(t)
	return nil
}

// ReadFrom receives the next datagram, honoring the read deadline. The
// fast path — a frame already queued — performs no allocation.
func (f *Framed) ReadFrom(b []byte) (int, net.Addr, error) {
	select { // fast path: frame already queued
	case buf := <-f.in:
		n := copy(b, *buf)
		f.recycle(buf)
		return n, f.remote, nil
	default:
	}
	tm, ok := f.rt.arm()
	if !ok {
		return 0, nil, ErrTimeout
	}
	fired := false
	defer f.rt.release(tm, &fired)
	select {
	case buf := <-f.in:
		n := copy(b, *buf)
		f.recycle(buf)
		return n, f.remote, nil
	case <-f.closed:
		return 0, nil, net.ErrClosed
	case <-f.dead:
		// Drain frames the pump queued before dying, then surface why.
		select {
		case buf := <-f.in:
			n := copy(b, *buf)
			f.recycle(buf)
			return n, f.remote, nil
		default:
		}
		if f.readErr != nil {
			return 0, nil, f.readErr
		}
		return 0, nil, io.EOF
	case <-timeout(tm):
		fired = true
		return 0, nil, ErrTimeout
	}
}

// WriteTo frames b onto the stream in a single Write call. The
// destination, when non-nil, must name the remote end — the stream is
// point-to-point. The frame buffer is reused, so the steady state
// allocates nothing.
func (f *Framed) WriteTo(b []byte, dst net.Addr) (int, error) {
	select {
	case <-f.closed:
		return 0, net.ErrClosed
	default:
	}
	if dst != nil && dst.String() != f.remote.String() {
		return 0, fmt.Errorf("fabric: framed stream %s cannot reach %s (remote is %s)", f.local, dst, f.remote)
	}
	f.wmu.Lock()
	f.wbuf = f.wbuf[:0]
	f.wbuf = append(f.wbuf, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(f.wbuf, uint32(len(b)))
	f.wbuf = append(f.wbuf, b...)
	_, err := f.rw.Write(f.wbuf)
	f.wmu.Unlock()
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// recycle returns a frame buffer to the free list, letting the garbage
// collector have it when the list is full.
func (f *Framed) recycle(buf *[]byte) {
	select {
	case f.free <- buf:
	default:
	}
}

// Close releases the adapter: pending and future reads return
// net.ErrClosed and the underlying stream is closed when it implements
// io.Closer (which is what unblocks the pump goroutine). Closing is
// idempotent.
func (f *Framed) Close() error {
	var err error
	f.once.Do(func() {
		close(f.closed)
		if c, ok := f.rw.(io.Closer); ok {
			err = c.Close()
		}
	})
	return err
}
