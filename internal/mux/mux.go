// Package mux demultiplexes many UDT flows over one datagram socket.
//
// The paper's engine assumes one UDP socket per flow; later UDT versions
// (and QUIC) multiplex flows over a shared socket by carrying a destination
// socket ID in every packet. This package is the demultiplexing core of
// that design: every data and control datagram of an established flow is
// prefixed with a 4-byte big-endian destination socket ID ahead of the
// unchanged UDT packet. A flow exists only between two endpoints that both
// advertised a valid socket ID in the handshake (packet.Handshake.SockID),
// so there is one datagram framing and no per-peer-address routing.
//
// A received datagram is classified by Dispatch in this order:
//
//  1. shorter than the 4-byte prefix, a socket-ID prefix with no room for
//     a data header behind it, or a handshake too short to carry the
//     socket-ID words → counted as a short datagram;
//  2. first word is a valid socket ID (IDValid) → sharded flow-table
//     lookup; a hit delivers the datagram with the prefix stripped, a
//     miss counts an unknown destination;
//  3. an unprefixed handshake control packet → the handshake handler
//     (connection setup is always sent unprefixed: the requester does not
//     know the listener's socket ID yet).
//
// Anything else — a data or control packet without a socket ID — belongs
// to no flow and counts as an unknown destination, without a look at the
// source address.
//
// Step 2 cannot misfire on a handshake because the socket-ID space is
// disjoint from the first words of UDT packets: a data packet's first word
// has the top bit clear, and a control packet's type field — bits 16..30 —
// never exceeds packet.TypeMessageDrop (0x7). IDValid therefore requires
// the top bit set and a type-field value above 0x7, and MakeID forces any
// random word into that space.
//
// The socket-ID table is sharded (16 shards selected by FNV-1a over the
// ID bytes, one RWMutex each) so the per-packet lookup on a busy socket
// does not serialize across flows. Dispatch performs no allocation on any
// path, delivered or dropped — the property BenchmarkMuxDemux and
// TestStrayDatagramAllocs pin.
package mux

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"udt/internal/packet"
)

// DestPrefix is the size in bytes of the destination-socket-ID prefix
// carried ahead of every data and control packet of an established flow.
const DestPrefix = 4

// Flow consumes datagrams demultiplexed to one endpoint. The buffer is
// only valid for the duration of the call (the reader reuses it), exactly
// like the engine's own datagram handler contract.
type Flow interface {
	HandleDatagram(raw []byte)
}

// IDValid reports whether id lies in the socket-ID space: top bit set and
// the control-type bits (16..30) above every real control type, so a
// prefixed datagram's first word can never be confused with the first
// word of an unprefixed handshake (or of any other UDT packet).
func IDValid(id int32) bool {
	u := uint32(id)
	return u&(1<<31) != 0 && (u>>16)&0x7FFF > uint32(packet.TypeMessageDrop)
}

// MakeID forces a random word into the valid socket-ID space (see IDValid).
func MakeID(raw int32) int32 {
	u := uint32(raw) | 1<<31
	if (u>>16)&0x7FFF <= uint32(packet.TypeMessageDrop) {
		u |= 1 << 19
	}
	return int32(u)
}

// PutDest stamps the destination socket ID into the first DestPrefix bytes
// of dst.
func PutDest(dst []byte, id int32) {
	binary.BigEndian.PutUint32(dst, uint32(id))
}

const numShards = 16

// shard is one lock-striped slice of the socket-ID table, padded out to a
// cache line so neighbouring shards' locks do not false-share.
type shard struct {
	mu    sync.RWMutex
	flows map[int32]Flow
	_     [24]byte
}

// Core is the demultiplexer for one shared socket: a sharded socket-ID
// table and drop counters. All methods are safe for concurrent use;
// Dispatch is called from the socket's read loop while flows register and
// unregister from other goroutines.
type Core struct {
	handshake func(raw []byte, from net.Addr)

	shards [numShards]shard

	unknownDest   atomic.Uint64
	shortDatagram atomic.Uint64
}

// NewCore builds a demultiplexer. handshake receives every handshake
// control packet long enough to carry the socket-ID words (it may be nil
// to ignore them); it runs on the read-loop goroutine and must not retain
// raw.
func NewCore(handshake func(raw []byte, from net.Addr)) *Core {
	c := &Core{handshake: handshake}
	for i := range c.shards {
		c.shards[i].flows = make(map[int32]Flow)
	}
	return c
}

// shardOf selects the lock stripe for a socket ID: FNV-1a over its four
// bytes, masked to the shard count.
func shardOf(id int32) int {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	x := uint32(id)
	for i := 0; i < 4; i++ {
		h ^= x & 0xFF
		h *= prime
		x >>= 8
	}
	return int(h & (numShards - 1))
}

// Dispatch classifies one received datagram and delivers it (see the
// package comment for the order). raw is only valid for the duration of
// the call.
func (c *Core) Dispatch(raw []byte, from net.Addr) {
	if len(raw) < DestPrefix {
		c.shortDatagram.Add(1)
		return
	}
	w0 := binary.BigEndian.Uint32(raw)
	if id := int32(w0); IDValid(id) {
		if len(raw) < DestPrefix+packet.DataHeaderSize {
			// A prefix with no room for even a data header behind it.
			c.shortDatagram.Add(1)
			return
		}
		s := &c.shards[shardOf(id)]
		s.mu.RLock()
		f := s.flows[id]
		s.mu.RUnlock()
		if f == nil {
			c.unknownDest.Add(1)
			return
		}
		f.HandleDatagram(raw[DestPrefix:])
		return
	}
	if !packet.IsHandshake(raw) {
		// No socket ID and not connection setup: it belongs to no flow.
		c.unknownDest.Add(1)
		return
	}
	if len(raw) < packet.CtrlHeaderSize+packet.HandshakeExtBody {
		// No room for the socket-ID words every handshake carries.
		c.shortDatagram.Add(1)
		return
	}
	if c.handshake != nil {
		c.handshake(raw, from)
	}
}

// CountUnknownDest records a drop the handshake handler decided on: a
// decodable request or response that names no valid socket ID has no flow
// it could belong to, the same verdict Dispatch reaches for a data packet.
func (c *Core) CountUnknownDest() { c.unknownDest.Add(1) }

// AllocID draws random words from rand until one lands on an unused socket
// ID, registers f under it, and returns the ID.
func (c *Core) AllocID(rand func() int32, f Flow) int32 {
	for {
		id := MakeID(rand())
		s := &c.shards[shardOf(id)]
		s.mu.Lock()
		if _, used := s.flows[id]; !used {
			s.flows[id] = f
			s.mu.Unlock()
			return id
		}
		s.mu.Unlock()
	}
}

// Register binds f to an explicitly chosen socket ID, for callers that
// assign IDs deterministically (the chaos harness). It reports false if
// the ID is invalid or already bound.
func (c *Core) Register(id int32, f Flow) bool {
	if !IDValid(id) {
		return false
	}
	s := &c.shards[shardOf(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, used := s.flows[id]; used {
		return false
	}
	s.flows[id] = f
	return true
}

// Unregister removes the socket-ID binding; subsequent datagrams for it
// count as unknown destinations.
func (c *Core) Unregister(id int32) {
	s := &c.shards[shardOf(id)]
	s.mu.Lock()
	delete(s.flows, id)
	s.mu.Unlock()
}

// Flows returns the number of socket-ID-bound flows.
func (c *Core) Flows() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.flows)
		s.mu.RUnlock()
	}
	return n
}

// Counters returns the running totals of datagrams dropped because they
// named no resident flow — an unknown socket ID, no socket ID at all, or a
// handshake request/response advertising an invalid one — and of datagrams
// too short for their class: under the prefix, a prefix with no packet
// behind it, or a handshake without room for the socket-ID words.
func (c *Core) Counters() (unknownDest, shortDatagram uint64) {
	return c.unknownDest.Load(), c.shortDatagram.Load()
}
