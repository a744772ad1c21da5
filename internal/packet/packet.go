// Package packet defines UDT's wire format: fixed-size headers for data
// packets and the eight control packet types, plus the compressed loss-list
// encoding used inside NAK reports.
//
// The format follows the paper-era UDT protocol (and its Internet-Draft):
// all fields are big-endian; the highest bit of the first 32-bit word
// distinguishes data (0) from control (1) packets. Data packets carry a
// 31-bit packet-based sequence number and a relative timestamp. Control
// packets carry a 15-bit type, an "additional info" word whose meaning
// depends on the type, a timestamp, and a type-specific control information
// field.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"udt/internal/seqno"
)

// Header sizes in bytes.
const (
	DataHeaderSize = 8  // seq(4) + timestamp(4)
	CtrlHeaderSize = 12 // flag|type(4) + additional info(4) + timestamp(4)
)

// ControlType identifies a control packet.
type ControlType uint16

// Control packet types (paper §4.8 and the UDT Internet-Draft).
const (
	TypeHandshake   ControlType = 0x0
	TypeKeepAlive   ControlType = 0x1
	TypeACK         ControlType = 0x2
	TypeNAK         ControlType = 0x3
	TypeCongestion  ControlType = 0x4 // congestion warning (delay-based; obsolete, kept for compat)
	TypeShutdown    ControlType = 0x5
	TypeACK2        ControlType = 0x6
	TypeMessageDrop ControlType = 0x7
)

func (t ControlType) String() string {
	switch t {
	case TypeHandshake:
		return "handshake"
	case TypeKeepAlive:
		return "keepalive"
	case TypeACK:
		return "ack"
	case TypeNAK:
		return "nak"
	case TypeCongestion:
		return "congestion-warning"
	case TypeShutdown:
		return "shutdown"
	case TypeACK2:
		return "ack2"
	case TypeMessageDrop:
		return "message-drop"
	default:
		return fmt.Sprintf("control(%#x)", uint16(t))
	}
}

const ctrlFlag = uint32(1) << 31

// Common decode errors.
var (
	ErrShort       = errors.New("packet: datagram too short")
	ErrBadType     = errors.New("packet: unknown control type")
	ErrBadLossList = errors.New("packet: malformed compressed loss list")
)

// IsControl reports whether the raw datagram holds a control packet.
// Datagrams shorter than 4 bytes are reported as control so that the caller's
// subsequent Decode returns ErrShort.
func IsControl(raw []byte) bool {
	if len(raw) < 4 {
		return true
	}
	return binary.BigEndian.Uint32(raw)&ctrlFlag != 0
}

// Data is a decoded data packet. Payload aliases the decode buffer.
type Data struct {
	Seq       int32 // 31-bit packet sequence number
	Timestamp int32 // microseconds since connection start
	Payload   []byte
}

// EncodeData writes the data packet into dst, which must have room for
// DataHeaderSize + len(p.Payload) bytes, and returns the encoded length.
func EncodeData(dst []byte, p *Data) (int, error) {
	n := DataHeaderSize + len(p.Payload)
	if len(dst) < n {
		return 0, fmt.Errorf("packet: buffer too small for data packet: %d < %d", len(dst), n)
	}
	binary.BigEndian.PutUint32(dst[0:4], uint32(p.Seq)&^ctrlFlag)
	binary.BigEndian.PutUint32(dst[4:8], uint32(p.Timestamp))
	copy(dst[DataHeaderSize:], p.Payload)
	return n, nil
}

// DecodeData parses a raw datagram as a data packet. The returned payload
// aliases raw.
func DecodeData(raw []byte) (Data, error) {
	if len(raw) < DataHeaderSize {
		return Data{}, ErrShort
	}
	w0 := binary.BigEndian.Uint32(raw[0:4])
	if w0&ctrlFlag != 0 {
		return Data{}, errors.New("packet: not a data packet")
	}
	return Data{
		Seq:       int32(w0),
		Timestamp: int32(binary.BigEndian.Uint32(raw[4:8])),
		Payload:   raw[DataHeaderSize:],
	}, nil
}

// Handshake is the connection setup control packet body.
//
// The body is the paper's seven 32-bit words followed by a socket-ID pair
// (two more words, the extension UDT v4 later folded into its header):
// SockID names the sender's endpoint on its socket and PeerSockID echoes
// the destination's, once known. Every handshake carries the pair — flows
// are addressed by socket ID and by nothing else — so a body shorter than
// HandshakeExtBody (the paper's own 28-byte handshake included) does not
// decode.
//
// A secure endpoint appends the authentication option after the socket-ID
// pair: a flags word, a 16-byte nonce for session-key derivation, the
// 8-byte stateless source-address cookie, and a 32-byte HMAC over
// everything before it (see internal/secure for the key schedule). A body
// shorter than HandshakeSecBody decodes with SecFlags zero — a clear
// endpoint, handled by the peer's Config.AllowUnauth policy.
//
// A rendezvous dialer (paper §4: both sides dial simultaneously) appends
// the rendezvous option — a flags word and an 8-byte tie-break nonce —
// after the socket-ID pair (clear handshakes) or after the authentication
// cookie (secure handshakes). The MAC always stays the final field and
// covers the rendezvous option, so a secure rendezvous request cannot have
// its trailer stripped or altered in flight. Old peers ignore the option:
// a clear rendezvous request decodes on a pre-rendezvous listener as a
// plain request (useful: rendezvous-to-listener still connects), while a
// secure one fails MAC verification there and is dropped.
type Handshake struct {
	Version    int32 // protocol version; this implementation speaks 4
	SockType   int32 // 0 = stream (the only mode the paper's UDT supports)
	InitSeq    int32 // initial packet sequence number
	MSS        int32 // maximum segment size (total UDP payload bytes)
	FlowWindow int32 // maximum flow window (packets)
	ReqType    int32 // 1 = request, -1 = response, -2 = cookie challenge
	ConnID     int32 // connection identifier chosen by the initiator
	SockID     int32 // sender's socket ID (only a cookie challenge leaves it 0)
	PeerSockID int32 // destination's socket ID as known to the sender (0 = unknown)

	SecFlags uint32   // authentication option flags (0 = option absent)
	Nonce    [16]byte // this side's key-derivation nonce
	Cookie   uint64   // source-address cookie (echoed from a challenge)

	RdvFlags uint32 // rendezvous option flags (0 = option absent)
	RdvNonce uint64 // rendezvous tie-break nonce

	MAC [32]byte // HMAC-SHA256 over the body bytes before this field
}

// Sec reports whether the handshake carries the authentication option.
func (h *Handshake) Sec() bool { return h.SecFlags != 0 }

// Rdv reports whether the handshake carries the rendezvous option.
func (h *Handshake) Rdv() bool { return h.RdvFlags != 0 }

// RdvDial is the RdvFlags value a rendezvous dialer sets: both sides send
// requests carrying it, and the deterministic tie-break on (Cookie,
// RdvNonce, ConnID) picks which side answers.
const RdvDial uint32 = 1

// Handshake request types carried in ReqType.
const (
	// HSRequest is a connection request.
	HSRequest = 1
	// HSResponse answers a request and concludes the handshake.
	HSResponse = -1
	// HSCookie is a stateless cookie challenge: the listener's demand
	// that a secure requester prove its source address by echoing the
	// enclosed cookie in a fresh request, before the listener allocates
	// any connection state.
	HSCookie = -2
)

// Handshake body sizes in bytes: the nine words every handshake carries
// (the paper's seven plus the socket-ID pair) — the floor below which
// nothing is encoded or decoded — the authentication-extended body, and
// the rendezvous-extended variants of the clear and secure bodies. The
// decoder discriminates by length, so every size must stay distinct and
// ordered.
const (
	HandshakeExtBody = 36
	HandshakeSecBody = HandshakeExtBody + 4 + 16 + 8 + 32

	// rdvOptionSize is the rendezvous option: flags word + tie-break nonce.
	rdvOptionSize = 4 + 8

	// HandshakeRdvBody is a clear rendezvous request: the extended body
	// plus the rendezvous option (no MAC).
	HandshakeRdvBody = HandshakeExtBody + rdvOptionSize

	// HandshakeSecRdvBody is a secure rendezvous request: the rendezvous
	// option sits between the cookie and the (still final) MAC.
	HandshakeSecRdvBody = HandshakeSecBody + rdvOptionSize

	// handshakeMACOff is the offset of the MAC within a secure body
	// without the rendezvous option; the authenticator covers everything
	// before it. With the option the MAC shifts to the end of the body —
	// HandshakeMACInput discriminates by length.
	handshakeMACOff = HandshakeSecBody - 32
)

// Version is the protocol version this package speaks.
const Version = 4

// ACK is the acknowledgement control packet body (paper §3.1, §3.2, §3.4).
// Beyond the cumulative acknowledgement it feeds back the receiver-side
// measurements that drive the sender's window and rate control.
type ACK struct {
	AckID    int32 // ACK sequence number, echoed by ACK2 (in the header's additional-info word)
	Seq      int32 // all packets before this sequence number have been received
	RTT      int32 // microseconds
	RTTVar   int32 // microseconds
	AvailBuf int32 // available receiver buffer (packets)
	RecvRate int32 // packet arrival speed (packets per second)
	Capacity int32 // estimated link capacity (packets per second)
}

// LightACKBody is the control-info length of a "light" ACK carrying only Seq.
// The reference implementation sends light ACKs when acknowledging very
// frequently; we support decoding both.
const LightACKBody = 4

// FullACKBody is the control-info length of a full ACK.
const FullACKBody = 24

// NAK is the negative acknowledgement: an explicit compressed loss report.
type NAK struct {
	Losses []Range
}

// Range is an inclusive range of lost sequence numbers.
type Range struct {
	Start, End int32
}

// Count returns the number of sequence numbers covered by r.
func (r Range) Count() int32 { return seqno.Len(r.Start, r.End) }

// Control is a decoded control packet.
type Control struct {
	Type      ControlType
	Extra     int32 // additional info word (ACK ID for ACK/ACK2; first msg seq for MessageDrop)
	Timestamp int32
	Body      []byte // raw control information field (aliases the decode buffer)
}

// DecodeControl parses the common control header. The type-specific body is
// left raw in Body; use DecodeACK / DecodeNAK / DecodeHandshake to interpret.
func DecodeControl(raw []byte) (Control, error) {
	if len(raw) < CtrlHeaderSize {
		return Control{}, ErrShort
	}
	w0 := binary.BigEndian.Uint32(raw[0:4])
	if w0&ctrlFlag == 0 {
		return Control{}, errors.New("packet: not a control packet")
	}
	t := ControlType((w0 >> 16) & 0x7FFF)
	if t > TypeMessageDrop {
		return Control{}, ErrBadType
	}
	return Control{
		Type:      t,
		Extra:     int32(binary.BigEndian.Uint32(raw[4:8])),
		Timestamp: int32(binary.BigEndian.Uint32(raw[8:12])),
		Body:      raw[CtrlHeaderSize:],
	}, nil
}

func putCtrlHeader(dst []byte, t ControlType, extra, ts int32) {
	binary.BigEndian.PutUint32(dst[0:4], ctrlFlag|uint32(t)<<16)
	binary.BigEndian.PutUint32(dst[4:8], uint32(extra))
	binary.BigEndian.PutUint32(dst[8:12], uint32(ts))
}

// EncodeHandshake writes a handshake control packet and returns its length.
// The socket-ID words are always written; the rendezvous option is appended
// only when h.RdvFlags is nonzero and the authentication option only when
// h.SecFlags is nonzero. The MAC field is written as given — compute it
// afterwards over the slice HandshakeMACInput returns.
func EncodeHandshake(dst []byte, h *Handshake, ts int32) (int, error) {
	body := HandshakeExtBody
	if h.Rdv() {
		body = HandshakeRdvBody
	}
	if h.Sec() {
		body = HandshakeSecBody
		if h.Rdv() {
			body = HandshakeSecRdvBody
		}
	}
	n := CtrlHeaderSize + body
	if len(dst) < n {
		return 0, fmt.Errorf("packet: buffer too small for handshake: %d < %d", len(dst), n)
	}
	putCtrlHeader(dst, TypeHandshake, 0, ts)
	b := dst[CtrlHeaderSize:]
	for i, v := range []int32{h.Version, h.SockType, h.InitSeq, h.MSS, h.FlowWindow, h.ReqType, h.ConnID, h.SockID, h.PeerSockID} {
		binary.BigEndian.PutUint32(b[i*4:], uint32(v))
	}
	switch {
	case h.Sec():
		binary.BigEndian.PutUint32(b[36:], h.SecFlags)
		copy(b[40:56], h.Nonce[:])
		binary.BigEndian.PutUint64(b[56:64], h.Cookie)
		macOff := handshakeMACOff
		if h.Rdv() {
			binary.BigEndian.PutUint32(b[64:], h.RdvFlags)
			binary.BigEndian.PutUint64(b[68:76], h.RdvNonce)
			macOff = HandshakeSecRdvBody - 32
		}
		copy(b[macOff:macOff+32], h.MAC[:])
	case h.Rdv():
		binary.BigEndian.PutUint32(b[36:], h.RdvFlags)
		binary.BigEndian.PutUint64(b[40:48], h.RdvNonce)
	}
	return n, nil
}

// HandshakeMACInput splits an encoded secure handshake packet into the
// body prefix the authenticator covers and the MAC field itself (both
// aliasing pkt). The control header — whose timestamp a retransmitting
// dialer may refresh — is deliberately outside the covered prefix. The
// split point is length-discriminated the same way DecodeHandshake is:
// a body long enough for the rendezvous option puts the MAC after it, so
// the authenticator covers the rendezvous trailer too. err is non-nil
// when pkt is too short to carry the authentication option.
func HandshakeMACInput(pkt []byte) (input, mac []byte, err error) {
	if len(pkt) < CtrlHeaderSize+HandshakeSecBody {
		return nil, nil, ErrShort
	}
	b := pkt[CtrlHeaderSize:]
	macOff := handshakeMACOff
	if len(b) >= HandshakeSecRdvBody {
		macOff = HandshakeSecRdvBody - 32
	}
	return b[:macOff], b[macOff : macOff+32], nil
}

// DecodeHandshake interprets the body of a handshake control packet. A
// body without room for the socket-ID words is ErrShort.
func DecodeHandshake(c Control) (Handshake, error) {
	if c.Type != TypeHandshake {
		return Handshake{}, fmt.Errorf("packet: %v is not a handshake", c.Type)
	}
	if len(c.Body) < HandshakeExtBody {
		return Handshake{}, ErrShort
	}
	get := func(i int) int32 { return int32(binary.BigEndian.Uint32(c.Body[i*4:])) }
	h := Handshake{
		Version:    get(0),
		SockType:   get(1),
		InitSeq:    get(2),
		MSS:        get(3),
		FlowWindow: get(4),
		ReqType:    get(5),
		ConnID:     get(6),
		SockID:     get(7),
		PeerSockID: get(8),
	}
	switch {
	case len(c.Body) >= HandshakeSecRdvBody:
		h.SecFlags = binary.BigEndian.Uint32(c.Body[36:])
		copy(h.Nonce[:], c.Body[40:56])
		h.Cookie = binary.BigEndian.Uint64(c.Body[56:64])
		// The rendezvous nonce is meaningful only when the option is
		// present (flags nonzero); leaving it zero otherwise keeps
		// decode∘encode canonical for non-rendezvous handshakes padded
		// out to this length.
		if f := binary.BigEndian.Uint32(c.Body[64:]); f != 0 {
			h.RdvFlags = f
			h.RdvNonce = binary.BigEndian.Uint64(c.Body[68:76])
		}
		copy(h.MAC[:], c.Body[HandshakeSecRdvBody-32:HandshakeSecRdvBody])
	case len(c.Body) >= HandshakeSecBody:
		h.SecFlags = binary.BigEndian.Uint32(c.Body[36:])
		copy(h.Nonce[:], c.Body[40:56])
		h.Cookie = binary.BigEndian.Uint64(c.Body[56:64])
		copy(h.MAC[:], c.Body[handshakeMACOff:HandshakeSecBody])
	case len(c.Body) >= HandshakeRdvBody:
		if f := binary.BigEndian.Uint32(c.Body[36:]); f != 0 {
			h.RdvFlags = f
			h.RdvNonce = binary.BigEndian.Uint64(c.Body[40:48])
		}
	}
	return h, nil
}

// IsHandshake reports whether the raw datagram is a handshake control
// packet, without decoding it — the cheap test demultiplexers run on every
// datagram that does not start with a socket ID.
func IsHandshake(raw []byte) bool {
	if len(raw) < 4 {
		return false
	}
	w0 := binary.BigEndian.Uint32(raw)
	return w0&ctrlFlag != 0 && ControlType((w0>>16)&0x7FFF) == TypeHandshake
}

// EncodeACK writes a full ACK control packet and returns its length.
func EncodeACK(dst []byte, a *ACK, ts int32) (int, error) {
	n := CtrlHeaderSize + FullACKBody
	if len(dst) < n {
		return 0, fmt.Errorf("packet: buffer too small for ack: %d < %d", len(dst), n)
	}
	putCtrlHeader(dst, TypeACK, a.AckID, ts)
	b := dst[CtrlHeaderSize:]
	for i, v := range []int32{a.Seq, a.RTT, a.RTTVar, a.AvailBuf, a.RecvRate, a.Capacity} {
		binary.BigEndian.PutUint32(b[i*4:], uint32(v))
	}
	return n, nil
}

// EncodeLightACK writes a light ACK carrying only the cumulative sequence.
func EncodeLightACK(dst []byte, ackID, seq, ts int32) (int, error) {
	n := CtrlHeaderSize + LightACKBody
	if len(dst) < n {
		return 0, fmt.Errorf("packet: buffer too small for light ack: %d < %d", len(dst), n)
	}
	putCtrlHeader(dst, TypeACK, ackID, ts)
	binary.BigEndian.PutUint32(dst[CtrlHeaderSize:], uint32(seq))
	return n, nil
}

// DecodeACK interprets the body of an ACK control packet. Light ACKs yield
// zero values for all fields except AckID and Seq.
func DecodeACK(c Control) (ACK, error) {
	if c.Type != TypeACK {
		return ACK{}, fmt.Errorf("packet: %v is not an ack", c.Type)
	}
	if len(c.Body) < LightACKBody {
		return ACK{}, ErrShort
	}
	a := ACK{
		AckID: c.Extra,
		Seq:   int32(binary.BigEndian.Uint32(c.Body[0:4])),
	}
	if len(c.Body) >= FullACKBody {
		get := func(i int) int32 { return int32(binary.BigEndian.Uint32(c.Body[i*4:])) }
		a.RTT = get(1)
		a.RTTVar = get(2)
		a.AvailBuf = get(3)
		a.RecvRate = get(4)
		a.Capacity = get(5)
	}
	return a, nil
}

// EncodeACK2 writes an ACK2 control packet acknowledging ACK number ackID.
func EncodeACK2(dst []byte, ackID, ts int32) (int, error) {
	if len(dst) < CtrlHeaderSize {
		return 0, fmt.Errorf("packet: buffer too small for ack2: %d < %d", len(dst), CtrlHeaderSize)
	}
	putCtrlHeader(dst, TypeACK2, ackID, ts)
	return CtrlHeaderSize, nil
}

// EncodeNAK writes a NAK carrying the compressed loss list and returns its
// length. Ranges must be non-overlapping and in increasing order.
func EncodeNAK(dst []byte, losses []Range, ts int32) (int, error) {
	n := CtrlHeaderSize + compressedLen(losses)*4
	if len(dst) < n {
		return 0, fmt.Errorf("packet: buffer too small for nak: %d < %d", len(dst), n)
	}
	putCtrlHeader(dst, TypeNAK, 0, ts)
	CompressLoss(dst[CtrlHeaderSize:], losses)
	return n, nil
}

// DecodeNAK interprets the body of a NAK control packet.
func DecodeNAK(c Control) (NAK, error) {
	if c.Type != TypeNAK {
		return NAK{}, fmt.Errorf("packet: %v is not a nak", c.Type)
	}
	losses, err := DecompressLoss(c.Body)
	if err != nil {
		return NAK{}, err
	}
	return NAK{Losses: losses}, nil
}

// EncodeSimple writes a body-less control packet (keep-alive, shutdown,
// congestion warning).
func EncodeSimple(dst []byte, t ControlType, ts int32) (int, error) {
	if len(dst) < CtrlHeaderSize {
		return 0, fmt.Errorf("packet: buffer too small for %v: %d < %d", t, len(dst), CtrlHeaderSize)
	}
	putCtrlHeader(dst, t, 0, ts)
	return CtrlHeaderSize, nil
}

// NAKSize returns the exact encoded size of a NAK carrying losses —
// the sizing callers need to allocate (or arena-reserve) before EncodeNAK.
func NAKSize(losses []Range) int {
	return CtrlHeaderSize + compressedLen(losses)*4
}

// compressedLen returns the number of 32-bit words the compressed encoding
// of losses occupies.
func compressedLen(losses []Range) int {
	n := 0
	for _, r := range losses {
		if r.Start == r.End {
			n++
		} else {
			n += 2
		}
	}
	return n
}

// CompressLoss encodes loss ranges using the paper's Appendix scheme: a
// sequence number with the flag bit set opens a range that is closed by the
// next (flag-less) number; a flag-less number on its own is a single loss.
// dst must have room for compressedLen(losses)*4 bytes. It returns the number
// of bytes written.
func CompressLoss(dst []byte, losses []Range) int {
	off := 0
	for _, r := range losses {
		if r.Start == r.End {
			binary.BigEndian.PutUint32(dst[off:], uint32(r.Start))
			off += 4
		} else {
			binary.BigEndian.PutUint32(dst[off:], uint32(r.Start)|ctrlFlag)
			binary.BigEndian.PutUint32(dst[off+4:], uint32(r.End))
			off += 8
		}
	}
	return off
}

// DecompressLoss decodes a compressed loss list.
func DecompressLoss(body []byte) ([]Range, error) {
	if len(body)%4 != 0 {
		return nil, ErrBadLossList
	}
	var out []Range
	for i := 0; i < len(body); i += 4 {
		w := binary.BigEndian.Uint32(body[i:])
		if w&ctrlFlag != 0 {
			if i+8 > len(body) {
				return nil, ErrBadLossList
			}
			end := binary.BigEndian.Uint32(body[i+4:])
			if end&ctrlFlag != 0 {
				return nil, ErrBadLossList
			}
			start := int32(w &^ ctrlFlag)
			if seqno.Cmp(start, int32(end)) >= 0 {
				return nil, ErrBadLossList
			}
			out = append(out, Range{Start: start, End: int32(end)})
			i += 4
		} else {
			out = append(out, Range{Start: int32(w), End: int32(w)})
		}
	}
	return out, nil
}
