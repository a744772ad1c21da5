package packet

import (
	"bytes"
	"testing"
)

func secHandshake() Handshake {
	h := Handshake{
		Version:    Version,
		InitSeq:    123456,
		MSS:        1500,
		FlowWindow: 25600,
		ReqType:    HSRequest,
		ConnID:     999,
		SockID:     0x40000001,
		PeerSockID: 0x40000002,
		SecFlags:   3,
		Cookie:     0xdeadbeefcafef00d,
	}
	for i := range h.Nonce {
		h.Nonce[i] = byte(i + 1)
	}
	for i := range h.MAC {
		h.MAC[i] = byte(0xA0 + i)
	}
	return h
}

func TestSecureHandshakeRoundTrip(t *testing.T) {
	h := secHandshake()
	buf := make([]byte, 256)
	n, err := EncodeHandshake(buf, &h, 99)
	if err != nil {
		t.Fatal(err)
	}
	if n != CtrlHeaderSize+HandshakeSecBody {
		t.Fatalf("encoded length %d, want %d", n, CtrlHeaderSize+HandshakeSecBody)
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandshake(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}

	// Zero socket IDs (a cookie challenge's SockID) are words on the wire
	// like any other: same length, same offsets.
	h2 := h
	h2.SockID, h2.PeerSockID = 0, 0
	n2, err := EncodeHandshake(buf, &h2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != CtrlHeaderSize+HandshakeSecBody {
		t.Fatalf("zero-ID secure length %d", n2)
	}
	c2, _ := DecodeControl(buf[:n2])
	got2, err := DecodeHandshake(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != h2 {
		t.Fatalf("zero-ID round trip mismatch: %+v", got2)
	}
}

// A body cut down to the socket-ID words decodes with SecFlags zero — the
// negotiate-down signal — and the fields ahead of the option intact; cut
// any shorter (the paper's 28 bytes) it does not decode at all.
func TestSecureHandshakeNegotiatesDown(t *testing.T) {
	h := secHandshake()
	buf := make([]byte, 256)
	if _, err := EncodeHandshake(buf, &h, 0); err != nil {
		t.Fatal(err)
	}
	c, err := DecodeControl(buf[:CtrlHeaderSize+HandshakeExtBody])
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandshake(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sec() {
		t.Fatal("clear-length body still flags secure")
	}
	if got.ConnID != h.ConnID || got.InitSeq != h.InitSeq || got.SockID != h.SockID {
		t.Fatalf("fields ahead of the option lost: %+v", got)
	}
	c.Body = c.Body[:28]
	if _, err := DecodeHandshake(c); err != ErrShort {
		t.Fatalf("28-byte body: err = %v, want ErrShort", err)
	}
}

func TestHandshakeMACInput(t *testing.T) {
	h := secHandshake()
	buf := make([]byte, 256)
	n, err := EncodeHandshake(buf, &h, 7)
	if err != nil {
		t.Fatal(err)
	}
	input, mac, err := HandshakeMACInput(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(input) != HandshakeSecBody-32 || len(mac) != 32 {
		t.Fatalf("split sizes %d/%d", len(input), len(mac))
	}
	if !bytes.Equal(mac, h.MAC[:]) {
		t.Fatal("mac slice does not alias the MAC field")
	}
	// The covered prefix ends exactly where the MAC begins.
	if !bytes.Equal(input[len(input)-8:], buf[CtrlHeaderSize+56:CtrlHeaderSize+64]) {
		t.Fatal("input does not end at the cookie")
	}
	if _, _, err := HandshakeMACInput(buf[:CtrlHeaderSize+HandshakeExtBody]); err == nil {
		t.Fatal("short packet accepted")
	}
}

// FuzzDecodeHandshake throws arbitrary bytes at the control + handshake
// decoders: they must never panic (Go bounds-checks make any over-read a
// panic, so this also proves no over-read) and anything that decodes as
// secure must re-encode/re-decode to the same handshake.
func FuzzDecodeHandshake(f *testing.F) {
	h := secHandshake()
	buf := make([]byte, 256)
	n, _ := EncodeHandshake(buf, &h, 1)
	f.Add(append([]byte(nil), buf[:n]...))
	h.SecFlags = 0
	n, _ = EncodeHandshake(buf, &h, 1)
	f.Add(append([]byte(nil), buf[:n]...))
	f.Add(append([]byte(nil), buf[:CtrlHeaderSize+28]...)) // the paper's body: must not decode
	f.Add([]byte{0x80, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, CtrlHeaderSize+HandshakeSecBody))

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeControl(raw)
		if err != nil {
			return
		}
		if c.Type != TypeHandshake {
			return
		}
		hs, err := DecodeHandshake(c)
		if short := len(c.Body) < HandshakeExtBody; short != (err != nil) {
			t.Fatalf("body of %d bytes: err = %v", len(c.Body), err)
		}
		if err != nil {
			return
		}
		if _, _, err := HandshakeMACInput(raw); err != nil && len(c.Body) >= HandshakeSecBody {
			t.Fatalf("MACInput refused a body of %d bytes", len(c.Body))
		}
		// Canonicality (decode∘encode identity) holds for every handshake
		// but one kind: a non-secure body padded out to secure length
		// decodes junk into the option fields by design (the length
		// discriminator trusts SecFlags), and re-encoding it legitimately
		// drops the junk.
		if !hs.Sec() && len(c.Body) >= HandshakeSecBody {
			return
		}
		out := make([]byte, CtrlHeaderSize+HandshakeSecRdvBody)
		n, err := EncodeHandshake(out, &hs, c.Timestamp)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		c2, err := DecodeControl(out[:n])
		if err != nil {
			t.Fatalf("re-decode control: %v", err)
		}
		hs2, err := DecodeHandshake(c2)
		if err != nil {
			t.Fatalf("re-decode handshake: %v", err)
		}
		if hs2 != hs {
			t.Fatalf("re-encode changed the handshake:\n%+v\n%+v", hs, hs2)
		}
	})
}
