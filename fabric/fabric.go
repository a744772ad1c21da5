// Package fabric adapts non-UDP byte and packet planes into the datagram
// interface UDT endpoints consume (udt.PacketConn), so DialOn, ListenOn and
// Mux run unmodified over overlays: an in-process channel-backed pipe pair
// (the flow-scale stress rig's transport, promoted here) and a framed
// adapter that carries length-prefixed datagrams over any stream — a TCP
// tunnel, a TLS session, an SSH channel, or a pair of OS pipes.
//
// Both adapters keep the endpoint's zero-allocation discipline: datagram
// buffers recycle through a sync.Pool, the write path reuses one framing
// buffer, and the read fast path (data already queued) allocates nothing.
//
// The package deliberately does not import the udt root package — the
// PacketConn contract is structural (ReadFrom, WriteTo, Close, LocalAddr,
// SetReadDeadline, with deadline expiry surfacing as a net.Error whose
// Timeout method reports true), and keeping the dependency arrow pointing
// one way lets the root package's tests consume these adapters.
package fabric

import (
	"net"
	"sync/atomic"
	"time"
)

// Addr is a stable in-process transport address: a name on the "fabric"
// network. Two addresses are the same endpoint exactly when their strings
// are equal, which is the comparison rule udt applies to non-UDP addresses.
type Addr string

// Network returns the fabric network name.
func (a Addr) Network() string { return "fabric" }

// String returns the endpoint name.
func (a Addr) String() string { return string(a) }

// timeoutError satisfies net.Error with Timeout() true, which is how UDT's
// read loops distinguish a deadline from a dead transport.
type timeoutError struct{}

// Error describes the expired deadline.
func (timeoutError) Error() string { return "fabric: read deadline exceeded" }

// Timeout reports true: the error is a deadline, not a transport failure.
func (timeoutError) Timeout() bool { return true }

// Temporary reports true: retrying after extending the deadline may succeed.
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the net.Error returned when a read deadline expires.
var ErrTimeout net.Error = timeoutError{}

// readTimer is an endpoint's read deadline — zero for none, otherwise the
// unix-microsecond instant, updated atomically by SetReadDeadline — and the
// one timer its blocked reader waits on. A timer per blocking read is three
// allocations, and a UDT read loop blocks with a deadline set many times a
// second; the endpoint makes one timer when it is built and re-arms it for
// each such read. A reader that finds it taken — a second goroutine blocked
// on the same endpoint — makes a timer of its own.
type readTimer struct {
	deadline atomic.Int64
	busy     atomic.Bool // a blocked reader holds shared
	shared   *time.Timer // set once by init; stopped and drained whenever busy is false
}

func (rt *readTimer) init() {
	rt.shared = time.NewTimer(time.Hour)
	rt.shared.Stop()
}

func (rt *readTimer) set(t time.Time) {
	if t.IsZero() {
		rt.deadline.Store(0)
	} else {
		rt.deadline.Store(t.UnixMicro())
	}
}

// arm returns the timer a read about to block waits on, or nil when no
// deadline is set; ok is false when the deadline has already passed. The
// caller hands the timer back through release.
func (rt *readTimer) arm() (tm *time.Timer, ok bool) {
	unixMicro := rt.deadline.Load()
	if unixMicro == 0 {
		return nil, true
	}
	d := time.Until(time.UnixMicro(unixMicro))
	if d <= 0 {
		return nil, false
	}
	if !rt.busy.CompareAndSwap(false, true) {
		return time.NewTimer(d), true
	}
	rt.shared.Reset(d)
	return rt.shared, true
}

// release ends the wait arm began: it stops tm (nil is a no-op) and, if it
// is the endpoint's own, leaves it ready for the next arm. The module's
// go 1.22 line keeps timer channels buffered, so a timer that fired must
// have its tick taken out before it can be Reset — by the reader's select
// (fired) or, if the read ended another way as the timer went off, here:
// Stop reporting false promises the tick, possibly still on its way.
func (rt *readTimer) release(tm *time.Timer, fired *bool) {
	if tm == nil {
		return
	}
	if !tm.Stop() && !*fired {
		<-tm.C
	}
	if tm == rt.shared {
		rt.busy.Store(false)
	}
}

// timeout is tm's channel, or nil — which blocks forever — without a timer.
func timeout(tm *time.Timer) <-chan time.Time {
	if tm == nil {
		return nil
	}
	return tm.C
}
