// Package secure implements the Secure UDT subsystem: an authenticated
// handshake extension, a stateless source-address cookie against
// spoofed-source handshake floods, and an opt-in AEAD data channel
// (AES-256-GCM from crypto/cipher) with per-direction keys derived from the
// pre-shared key and the handshake nonces via HKDF-SHA256.
//
// Everything on the per-packet hot path — sealing, opening, replay
// checking, cookie validation and handshake-MAC verification — is
// allocation-free after setup, so the transport's 0 allocs/packet gate
// holds with crypto enabled. The cipher is the standard library's; what
// stays in the package is what the standard library cannot do without
// allocating on the path a handshake flood hammers (crypto/hmac costs five
// allocations per MAC, so HMAC-SHA256 and HKDF-Expand run on the stack
// over sha256.Sum256) or does not ship (SipHash-2-4 for the cookie). Test
// vectors from RFC 4231, RFC 5869 and the SipHash paper pin them.
//
// Key schedule (all HKDF-SHA256; the "v2" label separates it from the "v1"
// schedule that keyed the package's first cipher, so a v1 endpoint fails
// the handshake MAC at dial time rather than being granted a channel it
// cannot open):
//
//	PRK      = HKDF-Extract(salt="udt-secure-v2", IKM=PSK)
//	hsKey    = HKDF-Expand(PRK, "hs auth", 32)
//	c2s‖s2c  = HKDF-Expand(PRK, "data keys" ‖ CN ‖ SN, 64)
//
// where CN and SN are the 16-byte client and server handshake nonces. The
// handshake MAC is HMAC-SHA256(hsKey, body ‖ peerNonce) over the encoded
// handshake body with its MAC field zeroed; a response binds the
// requester's nonce, so a reflected or replayed response fails
// verification.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"sync/atomic"
)

// Wire-format costs and field sizes.
const (
	// Overhead is the per-data-packet byte cost of AEAD mode: the GCM
	// tag appended after the sealed payload. The data header
	// (sequence number and timestamp) stays in the clear — the sequence
	// number is bound through the nonce, and the timestamp is neither
	// read by the receive engine nor authenticated (see the threat model
	// in DESIGN.md).
	Overhead = 16
	// CtrlOverhead is the per-control-packet byte cost of AEAD mode: the
	// GCM tag plus an 8-byte control sequence number (the anti-replay
	// counter, also the nonce). The 12-byte control header stays in the
	// clear for demultiplexing but is covered as associated data.
	CtrlOverhead = 16 + 8
	// HSNonceLen is the length of the random nonce each side contributes
	// in its handshake for session-key derivation.
	HSNonceLen = 16
	// MACLen is the length of the handshake authenticator (HMAC-SHA256).
	MACLen = 32
	// CookieLen is the length of the stateless source-address cookie.
	CookieLen = 8
	// KeyLen is the length of an AES-256-GCM key.
	KeyLen = 32
)

// SecFlags bits advertised and granted in the handshake extension.
const (
	// FlagAuth marks a handshake carrying the authentication option
	// (nonce, cookie, MAC). It is set on every secure handshake.
	FlagAuth uint32 = 1 << 0
	// FlagAEAD requests (in a dial) or grants (in a response) the sealed
	// data channel.
	FlagAEAD uint32 = 1 << 1
)

// Keys holds the key material derived from a pre-shared key: the
// handshake-authentication key and the master PRK that session keys are
// expanded from. Deriving Keys once per endpoint amortizes the HKDF
// extract over every connection.
type Keys struct {
	hs  [32]byte
	prk [32]byte
}

// DeriveKeys runs the key schedule's extract step over the pre-shared key.
func DeriveKeys(psk []byte) *Keys {
	k := &Keys{}
	k.prk = hkdfExtract([]byte("udt-secure-v2"), psk)
	hkdfExpand(&k.prk, []byte("hs auth"), k.hs[:])
	return k
}

// HandshakeMAC computes the authenticator over an encoded handshake body
// (with its MAC field zeroed by the caller) bound to the peer's nonce:
// HMAC-SHA256(hsKey, body ‖ peerNonce). For an initial request, where no
// peer nonce exists yet, peerNonce is empty. Allocation-free.
func (k *Keys) HandshakeMAC(body, peerNonce []byte) [32]byte {
	return hmacSHA256(k.hs[:], body, peerNonce)
}

// VerifyHandshakeMAC checks mac against HandshakeMAC(body, peerNonce) in
// constant time. Allocation-free.
func (k *Keys) VerifyHandshakeMAC(body, peerNonce, mac []byte) bool {
	want := k.HandshakeMAC(body, peerNonce)
	return subtle.ConstantTimeCompare(want[:], mac) == 1
}

// SessionKeys expands the per-connection directional keys from the two
// handshake nonces: the first key seals client→server traffic, the second
// server→client.
func (k *Keys) SessionKeys(clientNonce, serverNonce []byte) (c2s, s2c [KeyLen]byte) {
	var info [9 + 2*HSNonceLen]byte
	n := copy(info[:], "data keys")
	n += copy(info[n:], clientNonce)
	copy(info[n:], serverNonce)
	var out [2 * KeyLen]byte
	hkdfExpand(&k.prk, info[:], out[:])
	copy(c2s[:], out[:KeyLen])
	copy(s2c[:], out[KeyLen:])
	return c2s, s2c
}

// epochTracker infers the 32-bit nonce epoch of a 31-bit wrapping data
// sequence number. Both directions of a flow run the same deterministic
// rule, so no epoch bytes travel on the wire: a sequence circularly ahead
// of the newest one seen but numerically smaller has wrapped into the next
// epoch; one circularly behind but numerically larger (a retransmission
// from just before a wrap) belongs to the previous epoch.
type epochTracker struct {
	epoch uint32
	ref   int32
}

// epochOf returns seq's epoch without mutating the tracker, so an
// unauthenticated (possibly attacker-chosen) sequence number cannot
// corrupt the inference state; newer reports whether seq would become the
// newest sequence observed, in which case the caller commits it — only
// after the packet authenticates.
func (t *epochTracker) epochOf(seq int32) (e uint32, newer bool) {
	e = t.epoch
	switch {
	case seqCmp(seq, t.ref) > 0:
		if seq < t.ref {
			e++
		}
		return e, true
	case seq > t.ref:
		e--
	}
	return e, false
}

// commit records seq as the newest authenticated sequence in epoch e.
func (t *epochTracker) commit(seq int32, e uint32) {
	t.epoch, t.ref = e, seq
}

// seqCmp is seqno.Cmp, duplicated here to keep the package dependency-free
// (it is pinned equal to the real one by a test).
func seqCmp(a, b int32) int {
	const threshold = 0x3FFFFFFF
	d := a - b
	if d > threshold || d < -threshold {
		d = b - a
	}
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	default:
		return 0
	}
}

// direction is one half of a Session: the AEAD under that direction's key,
// the epoch tracker of its data sequence numbers, and the nonce scratch.
// The scratch lives here and not on the stack because a nonce passed
// through the cipher.AEAD interface escapes — one heap allocation per
// packet otherwise.
type direction struct {
	aead  cipher.AEAD
	epoch epochTracker
	nonce [12]byte
}

// newDirection builds the AES-256-GCM instance for one directional key.
func newDirection(key *[KeyLen]byte, isn int32) direction {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("secure: " + err.Error()) // KeyLen is a valid AES key size
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic("secure: " + err.Error()) // AES has GCM's 128-bit block
	}
	return direction{aead: aead, epoch: epochTracker{ref: isn}}
}

// dataNonce fills the scratch with the data-packet nonce epoch ‖ seq ‖ 0x00….
func (d *direction) dataNonce(epoch uint32, seq int32) []byte {
	binary.LittleEndian.PutUint32(d.nonce[0:4], epoch)
	binary.LittleEndian.PutUint32(d.nonce[4:8], uint32(seq))
	d.nonce[8] = 0
	return d.nonce[:]
}

// ctrlNonce fills the scratch with the control-packet nonce ctrlseq ‖ 0x01….
func (d *direction) ctrlNonce(seq uint64) []byte {
	binary.LittleEndian.PutUint64(d.nonce[0:8], seq)
	d.nonce[8] = 1
	return d.nonce[:]
}

// Session is the per-connection sealing state: one AES-256-GCM instance,
// nonce tracker and nonce scratch per direction, a send counter for the
// authenticated control channel, and an anti-replay window over the peer's
// control counter. Data-packet nonces are epoch ‖ seqno ‖ 0x00…, control
// nonces ctrlseq ‖ 0x01…, so the two channels never collide under the
// shared directional key. Retransmitted data packets re-seal to
// byte-identical ciphertext (same nonce, same plaintext — the cleartext
// timestamp is excluded from AEAD coverage precisely so a resend is not a
// second message under a reused nonce).
//
// A Session is not internally locked: the sender-side methods (SealData,
// SealCtrl) must be serialized by the caller, as must the receiver-side
// methods (OpenData, OpenCtrl). The two sides may run concurrently with
// each other — they share no state, each direction owning its own scratch.
type Session struct {
	send direction
	recv direction

	ctrlSend uint64
	recvWin  Window

	aead bool

	// Drop counters are atomics so a stats snapshot may read them while
	// the receive path is counting.
	authFail   atomic.Uint64
	replayDrop atomic.Uint64
}

// NewSession builds the sealing state for one connection. client reports
// which side this endpoint played in the handshake (it selects which
// directional key seals outbound traffic); localISN and peerISN seed the
// epoch trackers with each direction's initial sequence number; aead
// reports whether the data channel is sealed (the control channel always
// is once a Session exists).
func NewSession(k *Keys, clientNonce, serverNonce []byte, client bool, localISN, peerISN int32, aead bool) *Session {
	sendKey, recvKey := k.SessionKeys(clientNonce, serverNonce)
	if !client {
		sendKey, recvKey = recvKey, sendKey
	}
	return &Session{
		send: newDirection(&sendKey, localISN),
		recv: newDirection(&recvKey, peerISN),
		aead: aead,
	}
}

// AEAD reports whether the data channel is sealed (as opposed to only the
// control channel and handshake being authenticated).
func (s *Session) AEAD() bool { return s.aead }

// Drops returns the cumulative receive-side rejection counters: packets
// that failed authentication and authenticated control packets dropped as
// replays.
func (s *Session) Drops() (authFail, replays uint64) {
	return s.authFail.Load(), s.replayDrop.Load()
}

// SealData seals a full data packet (8-byte clear header + payload) in
// place, appending the GCM tag, and returns the grown slice. pkt must have
// at least Overhead bytes of spare capacity. Allocation-free.
func (s *Session) SealData(pkt []byte) []byte {
	seq := int32(binary.BigEndian.Uint32(pkt[0:4]) & 0x7FFFFFFF)
	e, newer := s.send.epoch.epochOf(seq)
	if newer {
		s.send.epoch.commit(seq, e)
	}
	n := len(pkt)
	out := pkt[:n+Overhead]
	s.send.aead.Seal(out[:8], s.send.dataNonce(e, seq), out[8:n], nil)
	return out
}

// OpenData authenticates and decrypts a sealed data packet in place and
// returns the packet shrunk to its plaintext length. ok is false — and the
// packet must be dropped: GCM zeroes the payload it refuses — when the
// packet is too short or fails authentication. Duplicate (retransmitted)
// data packets open fine and are passed through: protocol-level
// deduplication is the engine's job, and its dup-triggered re-ACK is
// load-bearing. Allocation-free.
func (s *Session) OpenData(pkt []byte) (out []byte, ok bool) {
	if len(pkt) < 8+Overhead {
		s.authFail.Add(1)
		return nil, false
	}
	seq := int32(binary.BigEndian.Uint32(pkt[0:4]) & 0x7FFFFFFF)
	e, newer := s.recv.epoch.epochOf(seq)
	out, err := s.recv.aead.Open(pkt[:8], s.recv.dataNonce(e, seq), pkt[8:], nil)
	if err != nil {
		s.authFail.Add(1)
		return nil, false
	}
	if newer {
		s.recv.epoch.commit(seq, e)
	}
	return out, true
}

// SealCtrl seals a control packet in place: the 12-byte header stays clear
// (it is covered as associated data), the body is encrypted, and the tag
// plus the 8-byte control sequence number are appended — tag first,
// because GCM writes it directly after the ciphertext. pkt must have at
// least CtrlOverhead bytes of spare capacity. Allocation-free.
func (s *Session) SealCtrl(pkt []byte) []byte {
	s.ctrlSend++
	n := len(pkt)
	out := pkt[:n+CtrlOverhead]
	s.send.aead.Seal(out[:12], s.send.ctrlNonce(s.ctrlSend), out[12:n], out[:12])
	binary.LittleEndian.PutUint64(out[n+Overhead:], s.ctrlSend)
	return out
}

// OpenCtrl authenticates, decrypts and replay-checks a sealed control
// packet in place, returning the packet shrunk to its plaintext length.
// ok is false — drop the packet: GCM zeroes a body it refuses — when it
// is short, fails authentication, or its control sequence number was
// already accepted (a replay, e.g. an off-path attacker re-injecting a
// captured shutdown). Allocation-free.
func (s *Session) OpenCtrl(pkt []byte) (out []byte, ok bool) {
	if len(pkt) < 12+CtrlOverhead {
		s.authFail.Add(1)
		return nil, false
	}
	sealed := len(pkt) - 8
	seq := binary.LittleEndian.Uint64(pkt[sealed:])
	out, err := s.recv.aead.Open(pkt[:12], s.recv.ctrlNonce(seq), pkt[12:sealed], pkt[:12])
	if err != nil {
		s.authFail.Add(1)
		return nil, false
	}
	if !s.recvWin.Admit(seq) {
		s.replayDrop.Add(1)
		return nil, false
	}
	return out, true
}
