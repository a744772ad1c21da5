package secure

import (
	"crypto/hmac"
	"crypto/sha256"
)

// HKDF-SHA256 (RFC 5869) and a stack-only HMAC-SHA256 for short messages.
// The HMAC avoids crypto/hmac's per-call hash allocations by assembling
// ipad ‖ message in a fixed stack buffer and using sha256.Sum256, which
// keeps handshake-MAC verification — the path a spoofed-source flood
// hammers — allocation-free.

// hmacMaxMsg bounds the message length the stack HMAC accepts. Handshake
// bodies are under 128 bytes; anything longer is a programming error.
const hmacMaxMsg = 192

// hmacSHA256 computes HMAC-SHA256(key, m1 ‖ m2) entirely on the stack.
// len(m1)+len(m2) must not exceed hmacMaxMsg.
func hmacSHA256(key, m1, m2 []byte) [32]byte {
	if len(m1)+len(m2) > hmacMaxMsg {
		panic("secure: hmacSHA256 message too long")
	}
	var k [64]byte
	if len(key) > 64 {
		d := sha256.Sum256(key)
		copy(k[:], d[:])
	} else {
		copy(k[:], key)
	}
	var in [64 + hmacMaxMsg]byte
	for i := 0; i < 64; i++ {
		in[i] = k[i] ^ 0x36
	}
	n := 64 + copy(in[64:], m1)
	n += copy(in[n:], m2)
	inner := sha256.Sum256(in[:n])
	var out [64 + 32]byte
	for i := 0; i < 64; i++ {
		out[i] = k[i] ^ 0x5c
	}
	copy(out[64:], inner[:])
	return sha256.Sum256(out[:])
}

// hkdfExtract computes PRK = HMAC(salt, ikm). It runs once per endpoint,
// over a pre-shared key of any length, so it takes crypto/hmac's
// allocating path rather than the bounded stack one.
func hkdfExtract(salt, ikm []byte) (prk [32]byte) {
	h := hmac.New(sha256.New, salt)
	h.Write(ikm)
	h.Sum(prk[:0])
	return prk
}

// hkdfExpand fills out with HKDF-Expand(prk, info) output keying material.
// len(out) must not exceed 255×32 bytes (RFC 5869); callers here stay
// under three blocks.
func hkdfExpand(prk *[32]byte, info []byte, out []byte) {
	var t [32]byte
	first := true
	ctr := byte(1)
	for len(out) > 0 {
		var msg [32 + hmacMaxMsg]byte
		n := 0
		if !first {
			n = copy(msg[:], t[:])
		}
		n += copy(msg[n:], info)
		msg[n] = ctr
		n++
		t = hmacSHA256(prk[:], msg[:n], nil)
		k := copy(out, t[:])
		out = out[k:]
		first = false
		ctr++
	}
}
