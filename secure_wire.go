package udt

import (
	"encoding/binary"
	"net"

	"udt/internal/packet"
	"udt/internal/secure"
)

// hsBufSize is the encode buffer size for handshake packets: the control
// header plus the largest (secure) body, rounded up.
const hsBufSize = 128

// secFlags derives the handshake SecFlags a Config advertises: the
// authentication option whenever a PSK is set, plus the AEAD request when
// the sealed data channel is wanted.
func (c *Config) secFlags() uint32 {
	if len(c.PSK) == 0 {
		return 0
	}
	f := secure.FlagAuth
	if c.AEAD {
		f |= secure.FlagAEAD
	}
	return f
}

// fillNonce draws a 16-byte key-derivation nonce from the endpoint's
// handshake randomness source. The nonce travels in the clear — it is a
// key-separation salt, not a secret — but it must be unique per
// connection under one PSK, or two sessions would derive identical keys
// and repeat GCM nonces under them.
func fillNonce(n *[16]byte, randInt31 func() int32) {
	for i := 0; i < 16; i += 4 {
		binary.LittleEndian.PutUint32(n[i:], uint32(randInt31()))
	}
}

// signHandshake computes the authenticator over an encoded handshake
// packet in place: HMAC over the body prefix (header timestamp excluded)
// bound to the peer's nonce, written into the packet's MAC field.
func signHandshake(k *secure.Keys, pkt []byte, peerNonce []byte) error {
	input, mac, err := packet.HandshakeMACInput(pkt)
	if err != nil {
		return err
	}
	sum := k.HandshakeMAC(input, peerNonce)
	copy(mac, sum[:])
	return nil
}

// signHandshakeHS computes the authenticator for a handshake that will be
// (re-)encoded later — e.g. the pinned response a listener replays to
// duplicate requests — and stores it in hs.MAC. The codec is canonical and
// the control-header timestamp is outside MAC coverage, so any later
// encoding of hs carries a valid authenticator.
func signHandshakeHS(k *secure.Keys, hs *packet.Handshake, peerNonce []byte) error {
	hs.MAC = [32]byte{}
	var buf [hsBufSize]byte
	n, err := packet.EncodeHandshake(buf[:], hs, 0)
	if err != nil {
		return err
	}
	input, _, err := packet.HandshakeMACInput(buf[:n])
	if err != nil {
		return err
	}
	hs.MAC = k.HandshakeMAC(input, peerNonce)
	return nil
}

// verifyHandshakeRaw checks the authenticator of a received handshake
// packet against its own bytes — the zero-copy server-side check, run
// before any connection state exists. Allocation-free.
func verifyHandshakeRaw(k *secure.Keys, raw []byte, peerNonce []byte) bool {
	input, mac, err := packet.HandshakeMACInput(raw)
	if err != nil {
		return false
	}
	return k.VerifyHandshakeMAC(input, peerNonce, mac)
}

// verifyHandshakeHS checks the authenticator of a decoded handshake by
// re-encoding it canonically (the codec is canonical: decode∘encode is the
// identity on valid packets, which the packet fuzz target pins). It serves
// the client side, where the response reaches the dialing goroutine
// already decoded.
func verifyHandshakeHS(k *secure.Keys, hs *packet.Handshake, peerNonce []byte) bool {
	cp := *hs
	mac := cp.MAC
	cp.MAC = [32]byte{}
	var buf [hsBufSize]byte
	n, err := packet.EncodeHandshake(buf[:], &cp, 0)
	if err != nil {
		return false
	}
	input, _, err := packet.HandshakeMACInput(buf[:n])
	if err != nil {
		return false
	}
	return k.VerifyHandshakeMAC(input, peerNonce, mac[:])
}

// cookieAddr renders a transport address into dst for cookie keying: IP
// bytes plus port for UDP (the overwhelmingly common case, alloc-free
// when dst is a stack buffer), the String() form for other fabrics. Only
// the source address is bound — the cookie proves reachability, nothing
// more.
func cookieAddr(dst []byte, a net.Addr) []byte {
	if u, ok := a.(*net.UDPAddr); ok {
		dst = append(dst, u.IP...)
		return append(dst, byte(u.Port), byte(u.Port>>8))
	}
	return append(dst, a.String()...)
}

// grantAEAD resolves the sealed-data-channel negotiation: on iff both
// sides asked for it.
func grantAEAD(local, remote uint32) bool {
	return local&secure.FlagAEAD != 0 && remote&secure.FlagAEAD != 0
}
