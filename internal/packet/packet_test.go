package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"udt/internal/seqno"
)

func TestDataRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	p := Data{Seq: 12345, Timestamp: 987654, Payload: payload}
	buf := make([]byte, 1500)
	n, err := EncodeData(buf, &p)
	if err != nil {
		t.Fatal(err)
	}
	if n != DataHeaderSize+len(payload) {
		t.Fatalf("encoded length %d, want %d", n, DataHeaderSize+len(payload))
	}
	if IsControl(buf[:n]) {
		t.Fatal("data packet classified as control")
	}
	got, err := DecodeData(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != p.Seq || got.Timestamp != p.Timestamp || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDataEncodeShortBuffer(t *testing.T) {
	p := Data{Seq: 1, Payload: make([]byte, 100)}
	if _, err := EncodeData(make([]byte, 50), &p); err == nil {
		t.Fatal("expected error for short buffer")
	}
}

func TestDecodeDataErrors(t *testing.T) {
	if _, err := DecodeData(make([]byte, 3)); err != ErrShort {
		t.Fatalf("got %v, want ErrShort", err)
	}
	buf := make([]byte, 16)
	buf[0] = 0x80 // control flag
	if _, err := DecodeData(buf); err == nil {
		t.Fatal("expected error decoding control as data")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Handshake{
		Version:    Version,
		SockType:   0,
		InitSeq:    424242,
		MSS:        1500,
		FlowWindow: 25600,
		ReqType:    1,
		ConnID:     777,
	}
	buf := make([]byte, 128)
	n, err := EncodeHandshake(buf, &h, 55)
	if err != nil {
		t.Fatal(err)
	}
	if !IsControl(buf[:n]) {
		t.Fatal("handshake not classified as control")
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if c.Type != TypeHandshake || c.Timestamp != 55 {
		t.Fatalf("header mismatch: %+v", c)
	}
	got, err := DecodeHandshake(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, h)
	}
}

func TestACKRoundTrip(t *testing.T) {
	a := ACK{AckID: 9, Seq: 100000, RTT: 100000, RTTVar: 25000, AvailBuf: 8192, RecvRate: 83333, Capacity: 83334}
	buf := make([]byte, 64)
	n, err := EncodeACK(buf, &a, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeACK(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, a)
	}
}

func TestLightACK(t *testing.T) {
	buf := make([]byte, 64)
	n, err := EncodeLightACK(buf, 3, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != CtrlHeaderSize+LightACKBody {
		t.Fatalf("light ack length %d", n)
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeACK(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.AckID != 3 || got.Seq != 500 || got.RTT != 0 {
		t.Fatalf("light ack mismatch: %+v", got)
	}
}

func TestACK2(t *testing.T) {
	buf := make([]byte, 64)
	n, err := EncodeACK2(buf, 41, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if c.Type != TypeACK2 || c.Extra != 41 {
		t.Fatalf("ack2 mismatch: %+v", c)
	}
}

func TestSimpleControls(t *testing.T) {
	buf := make([]byte, 64)
	for _, typ := range []ControlType{TypeKeepAlive, TypeShutdown, TypeCongestion} {
		n, err := EncodeSimple(buf, typ, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeControl(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if c.Type != typ || len(c.Body) != 0 {
			t.Fatalf("%v round trip mismatch: %+v", typ, c)
		}
	}
}

func TestNAKRoundTrip(t *testing.T) {
	losses := []Range{{3, 3}, {6, 15}, {18, 18}, {20, 21}}
	buf := make([]byte, 256)
	n, err := EncodeNAK(buf, losses, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	nak, err := DecodeNAK(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(nak.Losses) != len(losses) {
		t.Fatalf("got %d ranges, want %d", len(nak.Losses), len(losses))
	}
	for i := range losses {
		if nak.Losses[i] != losses[i] {
			t.Fatalf("range %d: got %+v want %+v", i, nak.Losses[i], losses[i])
		}
	}
}

func TestNAKPaperExample(t *testing.T) {
	// Paper Appendix: the segment 0x80000003, 0x80000006... — adjusted to the
	// described semantics: flagged start, plain end; lone plain number is a
	// single loss. Encode [3,3] wait — use the documented example:
	// losses 3; 6..15; 18 encode as {3, 6|F, 15, 18}? The appendix example
	// lists flagged-start pairs; verify both directions on that shape.
	losses := []Range{{3, 3}, {6, 15}, {18, 18}}
	words := compressedLen(losses)
	if words != 4 {
		t.Fatalf("compressed length %d words, want 4", words)
	}
	total := int32(0)
	for _, r := range losses {
		total += r.Count()
	}
	if total != 12 {
		t.Fatalf("covered %d seqnos, want 12", total)
	}
}

func TestDecompressMalformed(t *testing.T) {
	// Truncated range: flagged start with no end.
	b := []byte{0x80, 0, 0, 5}
	if _, err := DecompressLoss(b); err != ErrBadLossList {
		t.Fatalf("got %v, want ErrBadLossList", err)
	}
	// Flagged end.
	b = []byte{0x80, 0, 0, 5, 0x80, 0, 0, 9}
	if _, err := DecompressLoss(b); err != ErrBadLossList {
		t.Fatalf("got %v, want ErrBadLossList", err)
	}
	// Not a multiple of 4.
	if _, err := DecompressLoss(make([]byte, 7)); err != ErrBadLossList {
		t.Fatalf("got %v, want ErrBadLossList", err)
	}
	// Inverted range (start >= end).
	b = []byte{0x80, 0, 0, 9, 0, 0, 0, 5}
	if _, err := DecompressLoss(b); err != ErrBadLossList {
		t.Fatalf("got %v, want ErrBadLossList", err)
	}
}

func TestDecodeControlErrors(t *testing.T) {
	if _, err := DecodeControl(make([]byte, 4)); err != ErrShort {
		t.Fatalf("got %v, want ErrShort", err)
	}
	buf := make([]byte, CtrlHeaderSize)
	// Data flag where control expected.
	if _, err := DecodeControl(buf); err == nil {
		t.Fatal("expected error decoding data as control")
	}
	// Unknown type (0x7FFF).
	buf[0], buf[1] = 0xFF, 0xFF
	if _, err := DecodeControl(buf); err != ErrBadType {
		t.Fatalf("got %v, want ErrBadType", err)
	}
}

func TestIsControlShort(t *testing.T) {
	if !IsControl(nil) || !IsControl(make([]byte, 3)) {
		t.Fatal("short datagrams must classify as control so decoding reports ErrShort")
	}
}

// randomLosses builds a sorted, disjoint loss-range list from a random seed.
func randomLosses(rng *rand.Rand, n int) []Range {
	var out []Range
	s := int32(rng.Intn(1000))
	for i := 0; i < n; i++ {
		width := int32(rng.Intn(30))
		out = append(out, Range{Start: s, End: seqno.Add(s, width)})
		s = seqno.Add(s, width+2+int32(rng.Intn(100)))
	}
	return out
}

func TestPropNAKRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		losses := randomLosses(rng, int(n%64)+1)
		buf := make([]byte, CtrlHeaderSize+8*len(losses))
		sz, err := EncodeNAK(buf, losses, 0)
		if err != nil {
			return false
		}
		c, err := DecodeControl(buf[:sz])
		if err != nil {
			return false
		}
		nak, err := DecodeNAK(c)
		if err != nil || len(nak.Losses) != len(losses) {
			return false
		}
		for i := range losses {
			if nak.Losses[i] != losses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDataRoundTrip(t *testing.T) {
	f := func(seq int32, ts int32, payload []byte) bool {
		if seq < 0 {
			seq &= seqno.Max
		}
		p := Data{Seq: seq, Timestamp: ts, Payload: payload}
		buf := make([]byte, DataHeaderSize+len(payload))
		n, err := EncodeData(buf, &p)
		if err != nil {
			return false
		}
		got, err := DecodeData(buf[:n])
		return err == nil && got.Seq == seq && got.Timestamp == ts && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestControlTypeString(t *testing.T) {
	for typ, want := range map[ControlType]string{
		TypeHandshake: "handshake", TypeACK: "ack", TypeNAK: "nak",
		TypeACK2: "ack2", TypeShutdown: "shutdown", TypeKeepAlive: "keepalive",
		TypeCongestion: "congestion-warning", TypeMessageDrop: "message-drop",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if ControlType(0x99).String() == "" {
		t.Error("unknown type must still stringify")
	}
}

// TestHandshakeSockIDRoundTrip quick-checks the clear handshake: whatever
// the socket IDs — zero included — it encodes to the 36-byte body and
// decodes back field-for-field.
func TestHandshakeSockIDRoundTrip(t *testing.T) {
	// The authentication and rendezvous options have their own round-trip
	// tests and fuzz targets.
	roundTrip := func(h Handshake) bool {
		h.SecFlags, h.Nonce, h.Cookie, h.MAC = 0, [16]byte{}, 0, [32]byte{}
		h.RdvFlags, h.RdvNonce = 0, 0
		buf := make([]byte, 128)
		n, err := EncodeHandshake(buf, &h, 7)
		if err != nil || n != CtrlHeaderSize+HandshakeExtBody || !IsHandshake(buf[:n]) {
			return false
		}
		c, err := DecodeControl(buf[:n])
		if err != nil {
			return false
		}
		got, err := DecodeHandshake(c)
		return err == nil && got == h
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Errorf("handshake round trip: %v", err)
	}
	if !roundTrip(Handshake{Version: Version, ReqType: HSRequest, ConnID: 3, PeerSockID: 12}) {
		t.Error("zero-SockID handshake did not round-trip on the 36-byte body")
	}
}

// TestHandshakeOldNewCompat pins what is left of the matrix between the
// paper's 28-byte handshake and this one: none. A body without the
// socket-ID words is ErrShort at every length below HandshakeExtBody, and
// the first length that decodes is the one the encoder emits.
func TestHandshakeOldNewCompat(t *testing.T) {
	h := Handshake{
		Version: Version, InitSeq: 99, MSS: 1472, FlowWindow: 25600,
		ReqType: 1, ConnID: 31337, SockID: -0x7ff70000, PeerSockID: 12,
	}
	buf := make([]byte, 128)
	n, err := EncodeHandshake(buf, &h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != CtrlHeaderSize+HandshakeExtBody {
		t.Fatalf("encode length %d, want %d", n, CtrlHeaderSize+HandshakeExtBody)
	}
	c, err := DecodeControl(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	body := c.Body
	for cut := 0; cut < HandshakeExtBody; cut++ { // 28, the paper's body, among them
		c.Body = body[:cut]
		if _, err := DecodeHandshake(c); err != ErrShort {
			t.Fatalf("%d-byte body: err = %v, want ErrShort", cut, err)
		}
	}
	c.Body = body
	if got, err := DecodeHandshake(c); err != nil || got != h {
		t.Fatalf("full body: %+v, %v; want %+v", got, err, h)
	}
}

// TestIsHandshake checks the demultiplexer's cheap classifier against every
// control type and a data packet.
func TestIsHandshake(t *testing.T) {
	buf := make([]byte, 64)
	n, _ := EncodeHandshake(buf, &Handshake{Version: Version, SockID: 0}, 0)
	if !IsHandshake(buf[:n]) {
		t.Fatal("handshake not recognized")
	}
	n, _ = EncodeSimple(buf, TypeKeepAlive, 0)
	if IsHandshake(buf[:n]) {
		t.Fatal("keep-alive classified as handshake")
	}
	n, _ = EncodeData(buf, &Data{Seq: 0, Payload: []byte("x")})
	if IsHandshake(buf[:n]) {
		t.Fatal("data packet classified as handshake")
	}
	if IsHandshake(buf[:3]) {
		t.Fatal("short datagram classified as handshake")
	}
}
