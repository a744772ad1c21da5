//go:build linux && (amd64 || arm64)

package udt

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Batched datagram I/O for UDP sockets: recvmmsg moves up to batch
// datagrams from the kernel per syscall on the read path (coalesced into
// 64 KB trains when the kernel supports UDP_GRO), and sendmmsg submits a
// whole control batch or data burst in one call on the write path — or,
// when the socket supports UDP_SEGMENT, one sendmsg submits the entire
// data burst as a single kernel-segmented train. Everything runs
// non-blocking inside the runtime poller (RawConn.Read/Write), so Go
// deadlines and Close still work.

// Linux socket-option numbers for UDP segmentation offload. The frozen
// syscall package predates both (kernels 4.18 / 5.0), so they are spelled
// out here.
const (
	solUDP     = 17
	udpSegment = 103 // setsockopt/cmsg: outgoing segment size (GSO)
	udpGRO     = 104 // setsockopt: deliver coalesced trains (GRO)
)

// cmsgAlign rounds a control-message length up to the kernel's cmsg
// alignment (the platform word size on Linux).
func cmsgAlign(n int) int {
	const a = int(unsafe.Sizeof(uintptr(0)))
	return (n + a - 1) &^ (a - 1)
}

// segCmsgSpace is the control buffer size of one UDP_SEGMENT cmsg
// (header + uint16 segment size, aligned).
var segCmsgSpace = cmsgAlign(syscall.SizeofCmsghdr + 2)

// probeGSO reports whether the socket accepts the UDP_SEGMENT option — a
// side-effect-free getsockopt, so the verdict can be cached without
// changing socket state. Kernels before 4.18 answer ENOPROTOOPT.
func probeGSO(rc syscall.RawConn) bool {
	if forceOffloadOff.Load() {
		return false
	}
	ok := false
	rc.Control(func(fd uintptr) { //nolint:errcheck
		_, err := syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		ok = err == nil
	})
	return ok
}

// enableGRO turns on receive offload: the kernel then delivers
// back-to-back same-size datagrams from one flow as a single coalesced
// buffer plus a UDP_GRO control message carrying the segment size.
// Kernels before 5.0 answer ENOPROTOOPT and the socket stays in
// one-datagram-per-message mode.
func enableGRO(rc syscall.RawConn) bool {
	if forceOffloadOff.Load() {
		return false
	}
	ok := false
	rc.Control(func(fd uintptr) { //nolint:errcheck
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	return ok
}

// mmsghdr mirrors the kernel's struct mmsghdr. The trailing padding is
// computed from Msghdr's layout so the array stride is correct on every
// linux architecture.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [(msghdrAlign - (unsafe.Sizeof(syscall.Msghdr{})+4)%msghdrAlign) % msghdrAlign]byte
}

const msghdrAlign = unsafe.Alignof(syscall.Msghdr{})

// mmsgReader is the recvmmsg read path. All per-message state — buffers,
// iovecs, raw sockaddrs, control buffers, and the net.UDPAddr values
// handed to deliver — is preallocated and reused across batches, so
// steady-state reads allocate nothing. Consumers that retain an address
// must clone it (cloneAddr); the slot is overwritten by the next batch.
//
// With GRO enabled one slot may hold a kernel-coalesced train of
// same-size datagrams; readBatch splits it back into the original packets
// before delivery, so the demultiplexer and the engine see ordinary
// datagrams, bit-identical to the unoffloaded path.
type mmsgReader struct {
	u   *net.UDPConn
	rc  syscall.RawConn
	i   int
	gro bool

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	ctrls [][]byte
	bufs  [][]byte
	addrs []net.UDPAddr

	// The recvmmsg body is bound once (recv = r.recvmmsg) and reports through
	// got/serr: a closure built per call would capture its results and move
	// them to the heap on every read. readBatch has one caller, the read loop.
	recv func(fd uintptr) bool
	got  int
	serr syscall.Errno

	stats *offloadStats
}

// newBatchReader returns the recvmmsg reader for a real UDP socket, or
// nil (→ portable single-datagram path) for other transports. batch is
// the recvmmsg slot count and offload gates the GRO probe; st (may be
// nil) receives the offload counters.
func newBatchReader(pc PacketConn, batch int, offload bool, st *offloadStats) batchReader {
	u, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := u.SyscallConn()
	if err != nil {
		return nil
	}
	if batch < 1 {
		batch = 1
	}
	r := &mmsgReader{
		u: u, rc: rc,
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		names: make([]syscall.RawSockaddrAny, batch),
		ctrls: make([][]byte, batch),
		bufs:  make([][]byte, batch),
		addrs: make([]net.UDPAddr, batch),
		stats: st,
	}
	r.recv = r.recvmmsg
	if offload {
		r.gro = enableGRO(rc)
	}
	if st != nil && r.gro {
		st.groOn.Store(true)
	}
	for i := range r.bufs {
		r.bufs[i] = make([]byte, 65536)
		r.ctrls[i] = make([]byte, 128)
		r.iovs[i].Base = &r.bufs[i][0]
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
	}
	return r
}

func (r *mmsgReader) readBatch(deliver func([]byte, net.Addr, time.Time)) error {
	// Refresh the deadline only periodically, keeping the syscall off the
	// per-batch hot path (§4.1) while still letting the loop notice Close.
	if r.i%16 == 0 {
		r.u.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	}
	r.i++
	for i := range r.hdrs {
		r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		r.iovs[i].SetLen(len(r.bufs[i]))
		if r.gro {
			r.hdrs[i].hdr.Control = &r.ctrls[i][0]
			r.hdrs[i].hdr.SetControllen(len(r.ctrls[i]))
		}
		r.hdrs[i].n = 0
	}
	r.got, r.serr = 0, 0
	if err := r.rc.Read(r.recv); err != nil {
		return err
	}
	if r.serr != 0 {
		return r.serr
	}
	for i := 0; i < r.got; i++ {
		from := r.sockaddr(i)
		if from == nil {
			continue // unknown address family; nothing to route by
		}
		raw := r.bufs[i][:r.hdrs[i].n]
		seg := r.groSegSize(i)
		if seg > 0 && seg < len(raw) {
			if r.stats != nil {
				r.stats.groReads.Add(1)
				r.stats.groSegments.Add(uint64((len(raw) + seg - 1) / seg))
			}
			splitSegments(raw, seg, from, time.Time{}, deliver)
			continue
		}
		deliver(raw, from, time.Time{})
	}
	return nil
}

// recvmmsg is the syscall body rc.Read runs inside the poller.
func (r *mmsgReader) recvmmsg(fd uintptr) bool {
	n, _, e := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false // wait for readability in the poller
	}
	if e != 0 {
		r.serr = e
	} else {
		r.got = int(n)
	}
	return true
}

// groSegSize extracts the UDP_GRO segment size from message i's control
// data, or 0 when the kernel did not coalesce (or GRO is off). Malformed
// control buffers — truncated headers, lengths past the buffer — yield 0,
// so the datagram is delivered whole rather than mis-split.
func (r *mmsgReader) groSegSize(i int) int {
	if !r.gro {
		return 0
	}
	b := r.ctrls[i]
	cl := int(r.hdrs[i].hdr.Controllen)
	if cl > len(b) {
		cl = len(b)
	}
	b = b[:cl]
	for len(b) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(b) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO && l >= syscall.SizeofCmsghdr+4 {
			// The kernel reports the segment size as a native int.
			return int(*(*int32)(unsafe.Pointer(&b[syscall.SizeofCmsghdr])))
		}
		step := cmsgAlign(l)
		if step <= 0 || step >= len(b) {
			return 0
		}
		b = b[step:]
	}
	return 0
}

// sockaddr decodes message i's source address into its reusable slot.
// Ports are read byte-wise (network order) so the decode is endianness
// independent. IPv6 zone names are not recovered (link-local peers over a
// Mux are out of scope — mapping Scope_id to a name allocates).
func (r *mmsgReader) sockaddr(i int) net.Addr {
	a := &r.addrs[i]
	switch r.names[i].Addr.Family {
	case syscall.AF_INET:
		p := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&r.names[i]))
		a.IP = append(a.IP[:0], p.Addr[:]...)
		a.Port = int(binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&p.Port))[:]))
	case syscall.AF_INET6:
		p := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&r.names[i]))
		a.IP = append(a.IP[:0], p.Addr[:]...)
		a.Port = int(binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&p.Port))[:]))
	default:
		return nil
	}
	a.Zone = ""
	return a
}

// mmsgWriter is the sendmmsg/GSO write path. One writer serves every flow
// on the Mux, so the reusable header state is mutex guarded; headers and
// iovecs grow to the largest batch seen and are then reused.
type mmsgWriter struct {
	u   *net.UDPConn
	rc  syscall.RawConn
	gso atomic.Bool // cached UDP_SEGMENT probe verdict; Stats reads it lock-free

	mu   sync.Mutex
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sa4  syscall.RawSockaddrInet4
	sa6  syscall.RawSockaddrInet6
	cbuf [32]byte // UDP_SEGMENT control message (segCmsgSpace bytes used)

	// The syscall bodies are bound once (sendmmsg, sendmsg below) and take
	// their operands from, and report through, these fields under mu: a
	// closure built per call would capture them and move them to the heap on
	// every send.
	sendBatch func(fd uintptr) bool
	sendTrain func(fd uintptr) bool
	pending   []mmsghdr      // sendmmsg: the part of the batch not yet sent
	msg       syscall.Msghdr // sendmsg: the segmented train
	sent      int
	serr      syscall.Errno
}

// newBatchSender returns the sendmmsg writer for a real UDP socket, or
// nil (→ WriteTo loop) for other transports. offload gates the
// UDP_SEGMENT capability probe; the verdict is cached for the socket's
// lifetime.
func newBatchSender(pc PacketConn, offload bool) batchWriter {
	u, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := u.SyscallConn()
	if err != nil {
		return nil
	}
	w := &mmsgWriter{u: u, rc: rc}
	w.sendBatch, w.sendTrain = w.sendmmsg, w.sendmsg
	if offload {
		w.gso.Store(probeGSO(rc))
	}
	return w
}

// sockname encodes addr into the writer's reusable raw sockaddr slot.
// Callers hold w.mu.
func (w *mmsgWriter) sockname(ua *net.UDPAddr) (name *byte, namelen uint32) {
	if ip4 := ua.IP.To4(); ip4 != nil {
		w.sa4.Family = syscall.AF_INET
		copy(w.sa4.Addr[:], ip4)
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&w.sa4.Port))[:], uint16(ua.Port))
		return (*byte)(unsafe.Pointer(&w.sa4)), syscall.SizeofSockaddrInet4
	}
	w.sa6.Family = syscall.AF_INET6
	copy(w.sa6.Addr[:], ua.IP.To16())
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&w.sa6.Port))[:], uint16(ua.Port))
	return (*byte)(unsafe.Pointer(&w.sa6)), syscall.SizeofSockaddrInet6
}

func (w *mmsgWriter) writeBatch(bufs [][]byte, addr net.Addr) error {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		for _, b := range bufs {
			if _, err := w.u.WriteTo(b, addr); err != nil {
				return err
			}
		}
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	name, namelen := w.sockname(ua)

	if cap(w.hdrs) < len(bufs) {
		w.hdrs = make([]mmsghdr, len(bufs))
		w.iovs = make([]syscall.Iovec, len(bufs))
	}
	hdrs := w.hdrs[:len(bufs)]
	iovs := w.iovs[:len(bufs)]
	for i, b := range bufs {
		iovs[i].Base = &b[0]
		iovs[i].SetLen(len(b))
		hdrs[i].hdr.Name = name
		hdrs[i].hdr.Namelen = namelen
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
		hdrs[i].hdr.Control = nil
		hdrs[i].hdr.SetControllen(0)
		hdrs[i].n = 0
	}

	// sendmmsg may send a prefix of the batch; resubmit the rest until
	// everything is out or the socket reports a real error.
	transients := 0
	for off := 0; off < len(hdrs); {
		w.pending, w.sent, w.serr = hdrs[off:], 0, 0
		if err := w.rc.Write(w.sendBatch); err != nil {
			return err
		}
		if serr := w.serr; serr != 0 {
			if transientNetErr(serr) {
				// sendmmsg reported a queued ICMP error (a departed
				// peer's port unreachable — possibly another flow's)
				// instead of sending; the report consumed it. Retry, and
				// if the condition persists treat the rest of the batch
				// as network loss rather than killing the connection.
				if transients++; transients <= 4 {
					continue
				}
				return nil
			}
			return serr
		}
		if w.sent <= 0 {
			return syscall.EIO
		}
		off += w.sent
	}
	return nil
}

// sendmmsg is the syscall body rc.Write runs inside the poller for
// writeBatch.
func (w *mmsgWriter) sendmmsg(fd uintptr) bool {
	n, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&w.pending[0])), uintptr(len(w.pending)),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false // wait for writability in the poller
	}
	if e != 0 {
		w.serr = e
	} else {
		w.sent = int(n)
	}
	return true
}

// offloadActive reports the cached UDP_SEGMENT probe verdict.
func (w *mmsgWriter) offloadActive() bool { return w.gso.Load() }

// writeSegments submits bufs — equal-size datagrams except possibly a
// shorter last — as one sendmsg whose UDP_SEGMENT control message makes
// the kernel segment it at segSize: up to 44 packets for one syscall and
// one traversal of the kernel's output path. The datagrams are gathered
// by iovec, so no packing copy is made. ok=false (batch unconsumed) when
// the socket cannot offload; the caller falls back to writeBatch.
func (w *mmsgWriter) writeSegments(bufs [][]byte, segSize int, addr net.Addr) (bool, error) {
	if !w.gso.Load() || len(bufs) == 0 {
		return false, nil
	}
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return false, nil
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if len(bufs) > maxGSOSegments || total > maxUDPPayload {
		return false, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	name, namelen := w.sockname(ua)
	if cap(w.iovs) < len(bufs) {
		w.hdrs = make([]mmsghdr, len(bufs))
		w.iovs = make([]syscall.Iovec, len(bufs))
	}
	iovs := w.iovs[:len(bufs)]
	for i, b := range bufs {
		iovs[i].Base = &b[0]
		iovs[i].SetLen(len(b))
	}
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&w.cbuf[0]))
	cm.Level = solUDP
	cm.Type = udpSegment
	cm.SetLen(syscall.SizeofCmsghdr + 2)
	*(*uint16)(unsafe.Pointer(&w.cbuf[syscall.SizeofCmsghdr])) = uint16(segSize)

	w.msg.Name = name
	w.msg.Namelen = namelen
	w.msg.Iov = &iovs[0]
	w.msg.Iovlen = uint64(len(iovs))
	w.msg.Control = &w.cbuf[0]
	w.msg.SetControllen(segCmsgSpace)

	w.sent, w.serr = 0, 0
	if err := w.rc.Write(w.sendTrain); err != nil {
		return true, err
	}
	if serr := w.serr; serr != 0 {
		if transientNetErr(serr) {
			// A queued ICMP error consumed the send; the train is lost on
			// the wire, which the protocol repairs. The socket is fine.
			return true, nil
		}
		// EINVAL/EOPNOTSUPP here means the device rejected offload after a
		// successful probe (e.g. an exotic tunnel): disable it for this
		// socket and let the caller resubmit through sendmmsg.
		if serr == syscall.EINVAL || serr == syscall.EOPNOTSUPP || serr == syscall.ENOTSUP {
			w.gso.Store(false)
			return false, nil
		}
		return true, serr
	}
	if w.sent < total {
		return true, syscall.EIO
	}
	return true, nil
}

// sendmsg is the syscall body rc.Write runs inside the poller for
// writeSegments.
func (w *mmsgWriter) sendmsg(fd uintptr) bool {
	n, _, e := syscall.Syscall6(sysSENDMSG, fd,
		uintptr(unsafe.Pointer(&w.msg)), syscall.MSG_DONTWAIT, 0, 0, 0)
	if e == syscall.EAGAIN {
		return false // wait for writability in the poller
	}
	if e != 0 {
		w.serr = e
	} else {
		w.sent = int(n)
	}
	return true
}
