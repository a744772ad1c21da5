package udt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"udt/fabric"
	"udt/internal/packet"
)

// rdvPipe runs Rendezvous simultaneously from both ends of an in-process
// fabric pipe and returns the two established connections.
func rdvPipe(t *testing.T, cfgA, cfgB *Config) (*Conn, *Conn) {
	t.Helper()
	a, b := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 12})
	type res struct {
		c   *Conn
		err error
	}
	ra := make(chan res, 1)
	go func() {
		c, err := Rendezvous(a, fabric.Addr("pipe-b"), cfgA)
		ra <- res{c, err}
	}()
	cb, errB := Rendezvous(b, fabric.Addr("pipe-a"), cfgB)
	rA := <-ra
	if rA.err != nil || errB != nil {
		t.Fatalf("rendezvous: a=%v b=%v", rA.err, errB)
	}
	t.Cleanup(func() {
		rA.c.Close() //nolint:errcheck
		cb.Close()   //nolint:errcheck
	})
	return rA.c, cb
}

// exchange pushes a payload in both directions at once and verifies each
// side receives the other's bytes intact.
func exchange(t *testing.T, a, b *Conn, n int) {
	t.Helper()
	msgA := bytes.Repeat([]byte("a"), n)
	msgB := bytes.Repeat([]byte("b"), n)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	send := func(c *Conn, msg []byte) {
		defer wg.Done()
		if _, err := c.Write(msg); err != nil {
			errs <- err
		}
	}
	recv := func(c *Conn, want []byte) {
		defer wg.Done()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			errs <- err
			return
		}
		if !bytes.Equal(got, want) {
			errs <- errors.New("payload corrupted in transit")
		}
	}
	wg.Add(4)
	go send(a, msgA)
	go send(b, msgB)
	go recv(a, msgB)
	go recv(b, msgA)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestRendezvousOverPipe(t *testing.T) {
	a, b := rdvPipe(t, nil, nil)
	exchange(t, a, b, 64<<10)
}

// TestRendezvousSecure crosses two PSK-authenticated rendezvous dials with
// a sealed data channel: the crossing response must verify and both
// directions must decrypt.
func TestRendezvousSecure(t *testing.T) {
	psk := []byte("0123456789abcdef0123456789abcdef")
	cfgA := &Config{PSK: psk, AEAD: true}
	cfgB := &Config{PSK: psk, AEAD: true}
	a, b := rdvPipe(t, cfgA, cfgB)
	if !aeadOn(a) || !aeadOn(b) {
		t.Fatal("rendezvous crossing did not negotiate the sealed channel")
	}
	exchange(t, a, b, 32<<10)
}

// TestRendezvousToListener pins rendezvous→listener interop: a request
// carrying the rendezvous option that reaches a Mux with no rendezvous
// pending is served by its listener like an ordinary dial — including the
// secure path's stateless cookie challenge.
func TestRendezvousToListener(t *testing.T) {
	for _, sec := range []bool{false, true} {
		name := "clear"
		if sec {
			name = "secure"
		}
		t.Run(name, func(t *testing.T) {
			var cfg *Config
			if sec {
				cfg = &Config{PSK: []byte("0123456789abcdef0123456789abcdef")}
			}
			a, b := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 12})
			ln, err := ListenOn(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close() //nolint:errcheck
			acc := make(chan *Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					acc <- c
				}
			}()
			ca, err := Rendezvous(a, fabric.Addr("pipe-b"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ca.Close() //nolint:errcheck
			var cb *Conn
			select {
			case cb = <-acc:
			case <-time.After(10 * time.Second):
				t.Fatal("listener never accepted the rendezvous request")
			}
			defer cb.Close() //nolint:errcheck
			exchange(t, ca, cb, 16<<10)
		})
	}
}

// TestRendezvousTimeout: with a silent peer the dial must die at the
// configured handshake deadline, and the failed Rendezvous must have
// closed the transport it took ownership of.
func TestRendezvousTimeout(t *testing.T) {
	a, _ := fabric.NewPipe(fabric.PipeConfig{Depth: 8})
	start := time.Now()
	_, err := Rendezvous(a, fabric.Addr("pipe-b"), &Config{HandshakeTimeout: 300 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el < 250*time.Millisecond || el > 5*time.Second {
		t.Fatalf("timed out after %v, want ≈300ms", el)
	}
	if _, err := a.WriteTo([]byte("x"), nil); err == nil {
		t.Fatal("transport still open after failed rendezvous")
	}
}

// TestRendezvousBusy: a Mux admits one pending rendezvous per remote
// address; a second concurrent attempt is refused immediately.
func TestRendezvousBusy(t *testing.T) {
	a, _ := fabric.NewPipe(fabric.PipeConfig{Depth: 8})
	m, err := NewMux(a, &Config{HandshakeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Rendezvous(fabric.Addr("pipe-b")) //nolint:errcheck // times out after the check below
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := m.Rendezvous(fabric.Addr("pipe-b")); err == nil {
		t.Fatal("second concurrent rendezvous to the same peer succeeded")
	}
	m.Close() //nolint:errcheck
	<-done
}

// TestRdvWins pins the tie-break: antisymmetric on every component, with
// cookie outranking nonce outranking connection ID.
func TestRdvWins(t *testing.T) {
	mk := func(cookie uint64, nonce uint64, connID int32) *packet.Handshake {
		return &packet.Handshake{Cookie: cookie, RdvNonce: nonce, ConnID: connID}
	}
	cases := []struct{ a, b *packet.Handshake }{
		{mk(2, 0, 0), mk(1, 9, 9)},  // cookie dominates
		{mk(1, 5, 0), mk(1, 4, 9)},  // then nonce
		{mk(1, 5, 7), mk(1, 5, 3)},  // then connID
		{mk(0, 0, -1), mk(0, 0, 1)}, // connID compares unsigned
	}
	for i, c := range cases {
		if !rdvWins(c.a, c.b) || rdvWins(c.b, c.a) {
			t.Fatalf("case %d: tie-break not antisymmetric", i)
		}
	}
	eq := mk(1, 2, 3)
	if rdvWins(eq, eq) {
		t.Fatal("exact tie produced a winner")
	}
}

// TestRendezvousCrossingStress races repeated simultaneous crossings —
// alongside ordinary dials to a listener on the same two mux sockets —
// to shake out races between the read-loop accept path and the dialing
// goroutines (run under -race in CI's `make fabric` gate).
func TestRendezvousCrossingStress(t *testing.T) {
	aEnd, bEnd := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 14})
	// Distinct seeds keep the tie-break nonces independent.
	ma, err := NewMux(aEnd, &Config{Rand: rand.New(rand.NewSource(101))})
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close() //nolint:errcheck
	mb, err := NewMux(bEnd, &Config{Rand: rand.New(rand.NewSource(202))})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close() //nolint:errcheck
	ln, err := mb.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { // serve ordinary dials arriving between the crossings
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c *Conn) {
				io.Copy(io.Discard, c) //nolint:errcheck
				c.Close()              //nolint:errcheck
			}(c)
		}
	}()

	iters := 25
	if testing.Short() {
		iters = 5
	}
	for i := 0; i < iters; i++ {
		var ca, cb, cd *Conn
		var errA, errB, errD error
		var wg sync.WaitGroup
		wg.Add(3)
		// mb's rendezvous starts first: if ma's request reached mb before
		// mb had a rendezvous pending, mb's listener would serve it (the
		// documented fallback) and strand mb's own rendezvous. mb's early
		// request to ma is merely dropped (ma has no listener) and
		// retransmitted, so this ordering keeps the crossing unambiguous.
		go func() { defer wg.Done(); cb, errB = mb.Rendezvous(fabric.Addr("pipe-a")) }()
		time.Sleep(10 * time.Millisecond)
		go func() { defer wg.Done(); ca, errA = ma.Rendezvous(fabric.Addr("pipe-b")) }()
		go func() { defer wg.Done(); cd, errD = ma.Dial(fabric.Addr("pipe-b")) }()
		wg.Wait()
		if errA != nil || errB != nil || errD != nil {
			t.Fatalf("iter %d: rendezvous a=%v b=%v dial=%v", i, errA, errB, errD)
		}
		exchange(t, ca, cb, 4<<10)
		if _, err := cd.Write([]byte("dial traffic")); err != nil {
			t.Fatalf("iter %d: dial write: %v", i, err)
		}
		ca.Close() //nolint:errcheck
		cb.Close() //nolint:errcheck
		cd.Close() //nolint:errcheck
	}
}

// BenchmarkRendezvousHandshake measures crossing latency — both sides
// calling Mux.Rendezvous to established connection — over an in-process
// pipe, reporting the median so a rare lost-crossing retransmission (a
// 250 ms outlier by design) does not swamp the typical figure.
func BenchmarkRendezvousHandshake(b *testing.B) {
	aEnd, bEnd := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 12})
	ma, err := NewMux(aEnd, &Config{Rand: rand.New(rand.NewSource(301))})
	if err != nil {
		b.Fatal(err)
	}
	defer ma.Close() //nolint:errcheck
	mb, err := NewMux(bEnd, &Config{Rand: rand.New(rand.NewSource(302))})
	if err != nil {
		b.Fatal(err)
	}
	defer mb.Close() //nolint:errcheck

	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ca, cb *Conn
		var errA, errB error
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(2)
		go func() { defer wg.Done(); ca, errA = ma.Rendezvous(fabric.Addr("pipe-b")) }()
		go func() { defer wg.Done(); cb, errB = mb.Rendezvous(fabric.Addr("pipe-a")) }()
		wg.Wait()
		lat = append(lat, float64(time.Since(start).Microseconds()))
		if errA != nil || errB != nil {
			b.Fatalf("rendezvous: a=%v b=%v", errA, errB)
		}
		ca.Close() //nolint:errcheck
		cb.Close() //nolint:errcheck
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)/2], "p50_us")
}
