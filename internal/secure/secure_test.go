package secure

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"udt/internal/seqno"
)

// makeSessions builds the two ends of one secured flow.
func makeSessions(aead bool, clientISN, serverISN int32) (client, server *Session) {
	k := DeriveKeys([]byte("test psk"))
	cn := bytes.Repeat([]byte{1}, HSNonceLen)
	sn := bytes.Repeat([]byte{2}, HSNonceLen)
	client = NewSession(k, cn, sn, true, clientISN, serverISN, aead)
	server = NewSession(k, cn, sn, false, serverISN, clientISN, aead)
	return client, server
}

// ctrlPacket encodes a minimal control packet: an ACK-ish 12-byte header
// and body, with room to seal.
func ctrlPacket(body string) []byte {
	b := make([]byte, 12+len(body), 12+len(body)+CtrlOverhead)
	binary.BigEndian.PutUint32(b[0:], 1<<31|2<<16)
	copy(b[12:], body)
	return b
}

// dataPacket encodes a minimal data packet: seq, timestamp, payload.
func dataPacket(seq int32, ts uint32, payload []byte) []byte {
	b := make([]byte, 8+len(payload), 8+len(payload)+Overhead)
	binary.BigEndian.PutUint32(b[0:], uint32(seq))
	binary.BigEndian.PutUint32(b[4:], ts)
	copy(b[8:], payload)
	return b
}

func TestSealOpenDataRoundtrip(t *testing.T) {
	c, s := makeSessions(true, 100, 5000)
	payload := []byte("the quick brown fox")
	pkt := dataPacket(100, 42, payload)
	sealed := c.SealData(pkt)
	if len(sealed) != 8+len(payload)+Overhead {
		t.Fatalf("sealed length %d", len(sealed))
	}
	if bytes.Contains(sealed, payload) {
		t.Fatal("payload visible in sealed packet")
	}
	plain, ok := s.OpenData(sealed)
	if !ok {
		t.Fatal("open failed")
	}
	if !bytes.Equal(plain[8:], payload) {
		t.Fatalf("payload mismatch: %q", plain[8:])
	}

	// Tampering with the sequence number changes the nonce: refused.
	pkt2 := c.SealData(dataPacket(101, 43, payload))
	binary.BigEndian.PutUint32(pkt2[0:], 102)
	if _, ok := s.OpenData(pkt2); ok {
		t.Fatal("accepted packet with altered seqno")
	}
	if af, _ := s.Drops(); af != 1 {
		t.Fatalf("authFail = %d, want 1", af)
	}

	// A replayed (duplicate) data packet opens fine — dedup is the
	// engine's job and its dup-triggered re-ACK depends on seeing it.
	pkt3 := c.SealData(dataPacket(103, 44, payload))
	dup := append([]byte(nil), pkt3...)
	if _, ok := s.OpenData(pkt3); !ok {
		t.Fatal("first copy refused")
	}
	if _, ok := s.OpenData(dup); !ok {
		t.Fatal("duplicate data packet refused — engine dedup starved")
	}
}

// A retransmission — the same seq and payload sealed again after newer
// packets, even across a wrap — must produce byte-identical ciphertext:
// the nonce repeats but so does the message, so no new information leaks
// and chaos replay stays bit-identical.
func TestRetransmissionSealsIdentically(t *testing.T) {
	isn := seqno.Max - 2
	c, s := makeSessions(true, isn, 0)
	payload := []byte("retransmit me")
	first := append([]byte(nil), c.SealData(dataPacket(isn, 7, payload))...)
	// Advance across the 31-bit wrap.
	for i := 1; i <= 4; i++ {
		sq := seqno.Add(isn, int32(i))
		got, ok := s.OpenData(c.SealData(dataPacket(sq, 7, payload)))
		if !ok {
			t.Fatalf("packet %d refused across wrap", i)
		}
		if !bytes.Equal(got[8:], payload) {
			t.Fatalf("packet %d corrupted", i)
		}
	}
	// Now retransmit the pre-wrap seq: same bytes as the original seal,
	// and the (post-wrap) receiver still opens it.
	again := c.SealData(dataPacket(isn, 7, payload))
	if !bytes.Equal(first, again) {
		t.Fatalf("retransmission not byte-identical:\n%x\n%x", first, again)
	}
	if _, ok := s.OpenData(again); !ok {
		t.Fatal("receiver refused pre-wrap retransmission")
	}
}

// Epoch inference survives long runs crossing several wraps.
func TestEpochInferenceAcrossWraps(t *testing.T) {
	c, s := makeSessions(true, seqno.Max-10, 0)
	seq := seqno.Max - 10
	payload := []byte("x")
	for i := 0; i < 50; i++ {
		if _, ok := s.OpenData(c.SealData(dataPacket(seq, 0, payload))); !ok {
			t.Fatalf("refused at step %d seq %d", i, seq)
		}
		seq = seqno.Add(seq, seqno.Max/3) // giant strides force wraps fast
	}
}

// An unauthenticated garbage header must not poison the receiver's epoch
// tracker: genuine traffic keeps flowing after a spoof attempt.
func TestSpoofedHeaderDoesNotPoisonEpoch(t *testing.T) {
	c, s := makeSessions(true, 0, 0)
	payload := []byte("legit")
	if _, ok := s.OpenData(c.SealData(dataPacket(0, 0, payload))); !ok {
		t.Fatal("baseline packet refused")
	}
	// Forged packet claiming a far-future, wrap-adjacent seq.
	forged := dataPacket(seqno.Max-1, 0, []byte("evil"))
	forged = forged[:len(forged)+Overhead] // junk tag
	if _, ok := s.OpenData(forged); ok {
		t.Fatal("forgery accepted")
	}
	for i := int32(1); i < 5; i++ {
		if _, ok := s.OpenData(c.SealData(dataPacket(i, 0, payload))); !ok {
			t.Fatalf("genuine packet %d refused after spoof", i)
		}
	}
}

func TestSealOpenCtrlRoundtripAndReplay(t *testing.T) {
	c, s := makeSessions(false, 0, 0)
	sealed := c.SealCtrl(ctrlPacket("ack body"))
	replay := append([]byte(nil), sealed...)
	plain, ok := s.OpenCtrl(sealed)
	if !ok {
		t.Fatal("open failed")
	}
	if string(plain[12:]) != "ack body" {
		t.Fatalf("body mismatch: %q", plain[12:])
	}
	// The exact same wire bytes again: replay, refused.
	if _, ok := s.OpenCtrl(replay); ok {
		t.Fatal("replayed control packet accepted")
	}
	if _, rep := s.Drops(); rep != 1 {
		t.Fatalf("replayDrop = %d, want 1", rep)
	}
	// Header tampering breaks the AAD coverage.
	sealed2 := c.SealCtrl(ctrlPacket("nak body"))
	sealed2[2] ^= 0xff
	if _, ok := s.OpenCtrl(sealed2); ok {
		t.Fatal("accepted control packet with altered header")
	}
	// Empty-body control packets (keepalive, shutdown) work too.
	sealed3 := c.SealCtrl(ctrlPacket(""))
	if _, ok := s.OpenCtrl(sealed3); !ok {
		t.Fatal("empty-body control packet refused")
	}
}

// One flipped bit anywhere the AEAD covers — and in the clear fields that
// feed the nonce — must be refused and counted exactly once as an
// authentication failure, never as a replay.
func TestTamperRejected(t *testing.T) {
	const payload = "tamper with me"
	dataLen, ctrlLen := 8+len(payload), 12+len(payload)
	cases := []struct {
		name string
		ctrl bool
		at   int // byte whose low bit is flipped
	}{
		{"data clear seq", false, 3},
		{"data payload", false, 8 + 2},
		{"data tag", false, dataLen + Overhead - 1},
		{"ctrl header as AAD", true, 2},
		{"ctrl body", true, 12 + 1},
		{"ctrl tag", true, ctrlLen + 3},
		{"ctrl ctrlseq", true, ctrlLen + Overhead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s := makeSessions(true, 100, 5000)
			var ok bool
			if tc.ctrl {
				pkt := c.SealCtrl(ctrlPacket(payload))
				pkt[tc.at] ^= 1
				_, ok = s.OpenCtrl(pkt)
			} else {
				pkt := c.SealData(dataPacket(100, 42, []byte(payload)))
				pkt[tc.at] ^= 1
				_, ok = s.OpenData(pkt)
			}
			if ok {
				t.Fatal("tampered packet accepted")
			}
			if af, rep := s.Drops(); af != 1 || rep != 0 {
				t.Fatalf("authFail, replays = %d, %d; want 1, 0", af, rep)
			}
		})
	}
}

// The sender and receiver halves of one Session may run concurrently; under
// -race this fails if the two directions ever share state, the nonce
// scratch above all.
func TestSealAndOpenConcurrently(t *testing.T) {
	const n = 2000
	c, s := makeSessions(true, 0, 0)
	payload := bytes.Repeat([]byte{0xAB}, 100)
	inbound := make([][]byte, n) // server → client, sealed up front
	for i := range inbound {
		inbound[i] = s.SealData(dataPacket(int32(i), 0, payload))
	}
	outbound := make([][]byte, 0, 2*n) // client → server, sealed while the client opens
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			outbound = append(outbound, c.SealData(dataPacket(int32(i), 0, payload)), c.SealCtrl(ctrlPacket("ack")))
		}
	}()
	for i, pkt := range inbound {
		if _, ok := c.OpenData(pkt); !ok {
			t.Fatalf("client refused inbound packet %d while sealing", i)
		}
	}
	wg.Wait()
	for i, pkt := range outbound {
		ok := false
		if i%2 == 0 {
			_, ok = s.OpenData(pkt)
		} else {
			_, ok = s.OpenCtrl(pkt)
		}
		if !ok {
			t.Fatalf("server refused outbound packet %d sealed while the client was opening", i)
		}
	}
}

// Directional keys must differ: a packet a client sealed cannot be opened
// as if the server had sent it (no reflection).
func TestDirectionalKeys(t *testing.T) {
	c, _ := makeSessions(true, 0, 0)
	c2, _ := makeSessions(true, 0, 0)
	pkt := c.SealData(dataPacket(0, 0, []byte("hello")))
	if _, ok := c2.OpenData(pkt); ok {
		t.Fatal("client opened a client-sealed packet: directions share a key")
	}
}

func TestWindowEdgeCases(t *testing.T) {
	var w Window
	if !w.Admit(0) {
		t.Fatal("first seq 0 refused")
	}
	if w.Admit(0) {
		t.Fatal("duplicate seq 0 accepted")
	}
	if !w.Admit(5) || w.Admit(5) {
		t.Fatal("in-window behavior wrong at 5")
	}
	// Large forward jump clears the ring.
	if !w.Admit(100000) {
		t.Fatal("forward jump refused")
	}
	// Reordered but in-window: accept once.
	if !w.Admit(100000 - WindowSize + 1) {
		t.Fatal("in-window old seq refused")
	}
	if w.Admit(100000 - WindowSize + 1) {
		t.Fatal("in-window old seq accepted twice")
	}
	// Beyond the window: refused even though never seen.
	if w.Admit(100000 - WindowSize) {
		t.Fatal("stale seq accepted")
	}
	// Sliding by exactly one ring word keeps older in-window bits.
	var w2 Window
	for i := uint64(0); i < 64; i++ {
		if !w2.Admit(i) {
			t.Fatalf("seq %d refused", i)
		}
	}
	if !w2.Admit(64 + 63) {
		t.Fatal("head advance refused")
	}
	if w2.Admit(63) {
		t.Fatal("old duplicate accepted after word advance")
	}
	if !w2.Admit(70) {
		t.Fatal("fresh in-window seq refused after word advance")
	}
}

func TestCookieSource(t *testing.T) {
	cs := NewCookieSource(1, 2, 1_000_000)
	addr := []byte("10.0.0.1:9000")
	now := int64(50_000)
	ck := cs.Cookie(now, addr)
	if !cs.Valid(now, addr, ck) {
		t.Fatal("fresh cookie invalid")
	}
	if cs.Valid(now, []byte("10.0.0.2:9000"), ck) {
		t.Fatal("cookie valid for a different source")
	}
	if cs.Valid(now, addr, ck^1) {
		t.Fatal("flipped cookie accepted")
	}
	// Still valid one rotation later (previous-key grace)…
	if !cs.Valid(now+1_000_000, addr, ck) {
		t.Fatal("cookie dead after one rotation")
	}
	// …but not after two.
	if cs.Valid(now+2_000_001, addr, ck) {
		t.Fatal("cookie alive after two rotations")
	}
}

func TestHandshakeMACBindsPeerNonce(t *testing.T) {
	k := DeriveKeys([]byte("psk"))
	body := []byte("handshake body bytes")
	nonce := bytes.Repeat([]byte{9}, HSNonceLen)
	mac := k.HandshakeMAC(body, nonce)
	if !k.VerifyHandshakeMAC(body, nonce, mac[:]) {
		t.Fatal("self-verify failed")
	}
	other := bytes.Repeat([]byte{8}, HSNonceLen)
	if k.VerifyHandshakeMAC(body, other, mac[:]) {
		t.Fatal("MAC valid under a different peer nonce")
	}
	k2 := DeriveKeys([]byte("psk2"))
	if k2.VerifyHandshakeMAC(body, nonce, mac[:]) {
		t.Fatal("MAC valid under a different PSK")
	}
}

// v1HandshakeMAC is HandshakeMAC("handshake body bytes", 16×0x09) under
// PSK "0123456789abcdef" as computed by the last commit of the "v1" key
// schedule (ChaCha20-Poly1305 channel).
const v1HandshakeMAC = "af33c49c6efb4cf9e7bd02d861cdd4a001187433e237e14daf34ee8fcb946bc3"

// An endpoint built before the cipher change must be refused at the
// handshake, not granted a channel whose packets it cannot open.
func TestV1HandshakeMACRefused(t *testing.T) {
	k := DeriveKeys([]byte("0123456789abcdef"))
	body := []byte("handshake body bytes")
	nonce := bytes.Repeat([]byte{9}, HSNonceLen)
	if k.VerifyHandshakeMAC(body, nonce, unhex(t, v1HandshakeMAC)) {
		t.Fatal("accepted a handshake MAC from the v1 key schedule")
	}
}

// refHMAC is HMAC-SHA256 from the standard library, the reference the
// in-package key schedule is compared against.
func refHMAC(key []byte, parts ...[]byte) []byte {
	h := hmac.New(sha256.New, key)
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// The key schedule must match RFC 5869 over crypto/hmac for any PSK
// length, including around hmacMaxMsg where the stack HMAC stops taking
// messages, and across the two-block expand that yields the session keys.
func TestKeyScheduleMatchesReference(t *testing.T) {
	cn := bytes.Repeat([]byte{1}, HSNonceLen)
	sn := bytes.Repeat([]byte{2}, HSNonceLen)
	for _, n := range []int{16, hmacMaxMsg, hmacMaxMsg + 1, 1024} {
		psk := make([]byte, n)
		for i := range psk {
			psk[i] = byte(i * 7)
		}
		prk := refHMAC([]byte("udt-secure-v2"), psk)
		hs := refHMAC(prk, []byte("hs auth"), []byte{1})
		info := append(append([]byte("data keys"), cn...), sn...)
		t1 := refHMAC(prk, info, []byte{1})
		t2 := refHMAC(prk, t1, info, []byte{2})

		k := DeriveKeys(psk)
		if !bytes.Equal(k.prk[:], prk) || !bytes.Equal(k.hs[:], hs) {
			t.Errorf("PSK of %d bytes: DeriveKeys differs from the reference", n)
		}
		c2s, s2c := k.SessionKeys(cn, sn)
		if !bytes.Equal(c2s[:], t1) || !bytes.Equal(s2c[:], t2) {
			t.Errorf("PSK of %d bytes: SessionKeys differs from the reference", n)
		}
	}
}

// The package-local seqCmp must stay pinned to seqno.Cmp.
func TestSeqCmpMatchesSeqno(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		a := rng.Int31()
		b := rng.Int31()
		if seqCmp(a, b) != seqno.Cmp(a, b) {
			t.Fatalf("seqCmp(%d,%d) = %d, seqno.Cmp = %d", a, b, seqCmp(a, b), seqno.Cmp(a, b))
		}
	}
}

// Every hot-path operation must be allocation-free after setup: these are
// the primitives under the transport's 0 allocs/packet gate.
func TestHotPathAllocs(t *testing.T) {
	c, s := makeSessions(true, 0, 0)
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	pkt := dataPacket(0, 0, payload)
	seq := int32(0)
	if n := testing.AllocsPerRun(200, func() {
		binary.BigEndian.PutUint32(pkt[0:], uint32(seq))
		sealed := c.SealData(pkt[:8+len(payload)])
		if _, ok := s.OpenData(sealed); !ok {
			t.Fatal("open failed")
		}
		seq++
	}); n != 0 {
		t.Fatalf("data seal/open allocates %v/op", n)
	}

	ctrl := ctrlPacket("sixteen-byte-ack")
	if n := testing.AllocsPerRun(200, func() {
		sealed := c.SealCtrl(ctrl[:12+16])
		if _, ok := s.OpenCtrl(sealed); !ok {
			t.Fatal("ctrl open failed")
		}
	}); n != 0 {
		t.Fatalf("ctrl seal/open allocates %v/op", n)
	}

	cs := NewCookieSource(1, 2, 0)
	addr := []byte("192.0.2.1:4242")
	if n := testing.AllocsPerRun(200, func() {
		ck := cs.Cookie(1000, addr)
		if !cs.Valid(1000, addr, ck) {
			t.Fatal("cookie invalid")
		}
	}); n != 0 {
		t.Fatalf("cookie path allocates %v/op", n)
	}

	k := DeriveKeys([]byte("psk"))
	body := bytes.Repeat([]byte{3}, 96)
	nonce := bytes.Repeat([]byte{4}, HSNonceLen)
	mac := k.HandshakeMAC(body, nonce)
	if n := testing.AllocsPerRun(200, func() {
		if !k.VerifyHandshakeMAC(body, nonce, mac[:]) {
			t.Fatal("verify failed")
		}
	}); n != 0 {
		t.Fatalf("handshake MAC verify allocates %v/op", n)
	}
}

// BenchmarkSealData measures the per-packet sealing cost at a wire-size
// payload: the crypto alone. Its whole-stack cost is the repository
// benchmark's bulk_aead workload against bulk_clear.
func BenchmarkSealData(b *testing.B) {
	c, _ := makeSessions(true, 0, 0)
	payload := bytes.Repeat([]byte{0xAB}, 1448)
	pkt := dataPacket(0, 0, payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint32(pkt[0:], uint32(i&0x7FFFFFFF))
		c.SealData(pkt[:8+len(payload)])
	}
}

// BenchmarkHandshakeAuth measures the full listener-side authenticated
// handshake compute: cookie check, MAC verify, MAC of the response, and
// session-key derivation.
func BenchmarkHandshakeAuth(b *testing.B) {
	k := DeriveKeys([]byte("bench psk"))
	body := bytes.Repeat([]byte{3}, 96)
	cn := bytes.Repeat([]byte{1}, HSNonceLen)
	sn := bytes.Repeat([]byte{2}, HSNonceLen)
	mac := k.HandshakeMAC(body, nil)
	cs := NewCookieSource(1, 2, 0)
	addr := []byte("192.0.2.1:4242")
	ck := cs.Cookie(0, addr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !cs.Valid(0, addr, ck) {
			b.Fatal("cookie")
		}
		if !k.VerifyHandshakeMAC(body, nil, mac[:]) {
			b.Fatal("mac")
		}
		_ = k.HandshakeMAC(body, cn)
		_, _ = k.SessionKeys(cn, sn)
	}
}
