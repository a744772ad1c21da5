package udt

import (
	"net"
	"sync/atomic"
	"time"
)

// UDP segmentation offload (Linux UDP_SEGMENT / UDP_GRO).
//
// The per-packet syscall is the dominant cost of a user-space transport on
// a fast link (§4.1); sendmmsg amortizes the syscall over a batch but the
// kernel still traverses its whole output path once per datagram. With
// UDP_SEGMENT the sender submits one super-datagram — a train of up to 44
// MSS-sized packets — and the kernel (or NIC) segments it at the very
// bottom of the stack; with UDP_GRO the receiver reads back coalesced
// trains and the transport splits them in user space. Both are transparent
// on the wire: every segment is an ordinary UDT datagram, bit-identical to
// the unoffloaded path, so peers, the netem fabric and the chaos matrix
// never see GSO framing.
//
// The capability is probed once per socket when the batch I/O paths are
// set up (see mmsg_linux.go); kernels or transports without support fall
// back to plain sendmmsg/recvmmsg, and non-Linux builds compile the stub
// (mmsg_stub.go) with no offload at all.

// segWriter is an optional sockWriter upgrade: transports that can submit
// a whole train of equal-size datagrams as one kernel-segmented
// super-datagram (UDP_SEGMENT) implement it. All bufs must be exactly
// segSize bytes except the last, which may be shorter. writeSegments
// reports ok=false — without consuming the batch — when the transport
// cannot offload (probe failed, offload disabled, or the kernel rejected
// the train); the caller then falls back to the sendmmsg path.
type segWriter interface {
	writeSegments(bufs [][]byte, segSize int, addr net.Addr) (ok bool, err error)
	// offloadActive reports the cached probe verdict: whether
	// writeSegments can currently reach the kernel offload.
	offloadActive() bool
}

// offloadStats holds one socket's receive-offload state: whether UDP_GRO
// is active, and running totals of coalesced deliveries and the packets
// recovered from them. The read loop writes, Stats snapshots read.
type offloadStats struct {
	groOn       atomic.Bool
	groReads    atomic.Uint64
	groSegments atomic.Uint64
}

// forceOffloadOff is a test hook: when set, every capability probe fails,
// forcing the bare sendmmsg/recvmmsg paths even on capable kernels. The
// probe-fallback tests flip it to prove the degraded path carries
// identical wire bytes.
var forceOffloadOff atomic.Bool

// maxUDPPayload is the largest UDP datagram payload (65535 minus IP and
// UDP headers): the ceiling on one GSO super-datagram.
const maxUDPPayload = 65507

// maxGSOSegments is the kernel's UDP_MAX_SEGMENTS: the most segments one
// UDP_SEGMENT send may carry.
const maxGSOSegments = 44

// splitSegments slices a kernel-coalesced receive train back into the
// original datagrams: every segment is exactly segSize bytes except the
// last, which carries the remainder. A non-positive segSize, or one at or
// above the train length, means no coalescing happened and the buffer is
// delivered whole. Zero-length segments are never emitted, so a corrupt
// control message cannot inject empty packets into the demultiplexer.
// All segments of one train share at, the train's arrival stamp: the
// kernel coalesced them before timestamping, so no finer-grained arrival
// information exists.
func splitSegments(raw []byte, segSize int, from net.Addr, at time.Time, deliver func([]byte, net.Addr, time.Time)) {
	if len(raw) == 0 {
		return
	}
	if segSize <= 0 || segSize >= len(raw) {
		deliver(raw, from, at)
		return
	}
	for off := 0; off < len(raw); off += segSize {
		end := off + segSize
		if end > len(raw) {
			end = len(raw)
		}
		deliver(raw[off:end], from, at)
	}
}
