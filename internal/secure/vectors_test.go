package secure

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// Known-answer vectors for the wire format, computed independently with
// crypto/hmac and crypto/cipher alone: PSK "known-answer pre-shared key",
// nonces 16×0x01 and 16×0x02, client ISN 100. They pin the key schedule
// label, both nonce layouts, the AAD choice and the trailer order —
// hdr ‖ ct ‖ tag for data, hdr ‖ ct ‖ tag ‖ ctrlseq for control.
func TestWireFormatKnownAnswers(t *testing.T) {
	k := DeriveKeys([]byte("known-answer pre-shared key"))
	cn := bytes.Repeat([]byte{1}, HSNonceLen)
	sn := bytes.Repeat([]byte{2}, HSNonceLen)
	c := NewSession(k, cn, sn, true, 100, 5000, true)

	data := c.SealData(dataPacket(100, 42, []byte("the quick brown fox")))
	wantData := unhex(t, "000000640000002a"+ // seq 100, timestamp 42, in the clear
		"7d1c8fc51908ae441196e3bc4ac1b4c10abdc8"+ // ciphertext
		"9a45ff3b3ddd2e86f78bdbc478cda40d") // tag
	if !bytes.Equal(data, wantData) {
		t.Errorf("SealData:\n got %x\nwant %x", data, wantData)
	}

	ctrl := c.SealCtrl(ctrlPacket("ack body"))
	wantCtrl := unhex(t, "800200000000000000000000"+ // header, clear but authenticated
		"81cdd8e60940ce3c"+ // ciphertext
		"5b5296523956f2c02d22b3537b4171d0"+ // tag
		"0100000000000000") // ctrlseq 1, little-endian
	if !bytes.Equal(ctrl, wantCtrl) {
		t.Errorf("SealCtrl:\n got %x\nwant %x", ctrl, wantCtrl)
	}
}

// SipHash-2-4 reference vectors (Aumasson & Bernstein appendix): key
// 000102…0f over the prefix inputs 00 01 02 ….
func TestSipHashVectors(t *testing.T) {
	var in [8]byte
	for i := range in {
		in[i] = byte(i)
	}
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 0x726fdb47dd0e0e31},
		{1, 0x74f839c593dc67fd},
		{8, 0x93f5f5799a932462},
	}
	const k0, k1 = 0x0706050403020100, 0x0f0e0d0c0b0a0908
	for _, c := range cases {
		if got := siphash(k0, k1, in[:c.n]); got != c.want {
			t.Errorf("siphash(len %d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

// RFC 4231 test case 1 pins the stack HMAC-SHA256.
func TestHMACSHA256RFC4231(t *testing.T) {
	key := bytes.Repeat([]byte{0x0b}, 20)
	want := unhex(t, "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
	got := hmacSHA256(key, []byte("Hi There"), nil)
	if !bytes.Equal(got[:], want) {
		t.Fatalf("hmac mismatch: got %x want %x", got, want)
	}
	// Two-part messages concatenate.
	got2 := hmacSHA256(key, []byte("Hi "), []byte("There"))
	if got2 != got {
		t.Fatal("split message changed the MAC")
	}
}

// RFC 5869 test case 1 pins extract and expand.
func TestHKDFRFC5869(t *testing.T) {
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := unhex(t, "000102030405060708090a0b0c")
	info := unhex(t, "f0f1f2f3f4f5f6f7f8f9")
	wantPRK := unhex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM := unhex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := hkdfExtract(salt, ikm)
	if !bytes.Equal(prk[:], wantPRK) {
		t.Fatalf("PRK mismatch: got %x want %x", prk, wantPRK)
	}
	okm := make([]byte, len(wantOKM))
	hkdfExpand(&prk, info, okm)
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM mismatch: got %x want %x", okm, wantOKM)
	}
}
