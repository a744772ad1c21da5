package fabric

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// framedPair builds two adapters over an in-process stream pair.
func framedPair(t testing.TB) (*Framed, *Framed) {
	t.Helper()
	ac, bc := net.Pipe()
	a := NewFramed(ac, FramedConfig{LocalAddr: "stream-a", RemoteAddr: "stream-b"})
	b := NewFramed(bc, FramedConfig{LocalAddr: "stream-b", RemoteAddr: "stream-a"})
	t.Cleanup(func() { a.Close(); b.Close() }) //nolint:errcheck
	return a, b
}

func TestFramedRoundTrip(t *testing.T) {
	a, b := framedPair(t)
	sizes := []int{1, 7, 512, 1472, 9000}
	for _, sz := range sizes {
		msg := bytes.Repeat([]byte{byte(sz)}, sz)
		if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16384)
		b.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		n, from, err := b.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != sz || !bytes.Equal(buf[:n], msg) {
			t.Fatalf("size %d: got %d bytes", sz, n)
		}
		if from.String() != "stream-a" {
			t.Fatalf("from = %v", from)
		}
	}
}

// Datagram boundaries must survive the stream: many small writes from both
// directions arrive as the same discrete datagrams, in order.
func TestFramedBoundaries(t *testing.T) {
	a, b := framedPair(t)
	const count = 200
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		for i := 0; i < count; i++ {
			b.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			n, _, err := b.ReadFrom(buf)
			if err != nil {
				done <- err
				return
			}
			if n != 3 || buf[0] != byte(i) {
				done <- errors.New("boundary or order violated")
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < count; i++ {
		if _, err := a.WriteTo([]byte{byte(i), 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFramedDeadline(t *testing.T) {
	_, b := framedPair(t)
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
	_, _, err := b.ReadFrom(make([]byte, 16))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout net.Error", err)
	}
}

// A dead stream surfaces its error from ReadFrom — after any frames the
// pump had already queued are drained.
func TestFramedStreamDeath(t *testing.T) {
	ac, bc := net.Pipe()
	a := NewFramed(ac, FramedConfig{})
	b := NewFramed(bc, FramedConfig{})
	defer b.Close() //nolint:errcheck
	if _, err := a.WriteTo([]byte("last words"), nil); err != nil {
		t.Fatal(err)
	}
	// Give the pump time to queue the frame, then kill the stream.
	time.Sleep(20 * time.Millisecond)
	a.Close() //nolint:errcheck
	buf := make([]byte, 64)
	n, _, err := b.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "last words" {
		t.Fatalf("queued frame lost: n=%d err=%v", n, err)
	}
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Fatal("read from dead stream succeeded")
	}
}

// An oversized frame length is stream corruption: the adapter must die
// with a descriptive error rather than desynchronize.
func TestFramedCorruption(t *testing.T) {
	ac, bc := net.Pipe()
	b := NewFramed(bc, FramedConfig{MaxDatagram: 1024})
	defer b.Close()                             //nolint:errcheck
	go ac.Write([]byte{0xff, 0xff, 0xff, 0xff}) //nolint:errcheck
	_, _, err := b.ReadFrom(make([]byte, 16))
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want corruption error", err)
	}
}

// TestFramedAllocs gates the zero-allocation discipline on the framed hot
// path: with frames queued, WriteTo + ReadFrom recycle every buffer.
func TestFramedAllocs(t *testing.T) {
	ac, bc := net.Pipe()
	a := NewFramed(ac, FramedConfig{})
	b := NewFramed(bc, FramedConfig{})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	msg := make([]byte, 1024)
	buf := make([]byte, 2048)
	// Reader drains continuously so the writer never blocks on net.Pipe.
	// No deadline: a blocking read without one takes the timer-free path,
	// so the reader goroutine contributes no allocations either.
	got := make(chan struct{}, 4096)
	go func() {
		for {
			if n, _, err := b.ReadFrom(buf); err != nil {
				return
			} else if n > 0 {
				got <- struct{}{}
			}
		}
	}()
	// Warm the pools.
	for i := 0; i < 64; i++ {
		a.WriteTo(msg, nil) //nolint:errcheck
		<-got
	}
	avg := testing.AllocsPerRun(500, func() {
		a.WriteTo(msg, nil) //nolint:errcheck
		<-got
	})
	if avg > 0.05 {
		t.Fatalf("framed data path allocates %.3f allocs/packet, want 0", avg)
	}
}

// BenchmarkFramedThroughput measures raw datagram goodput through the
// framed adapter over a real TCP loopback connection: the overlay fast
// path.
func BenchmarkFramedThroughput(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	sc := <-accepted
	fa := NewFramed(cc, FramedConfig{LocalAddr: "bench-a", RemoteAddr: "bench-b"})
	fb := NewFramed(sc, FramedConfig{LocalAddr: "bench-b", RemoteAddr: "bench-a", Depth: 4096})
	defer fa.Close() //nolint:errcheck
	defer fb.Close() //nolint:errcheck

	const size = 1472
	msg := make([]byte, size)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			fb.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
			if _, _, err := fb.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	b.SetBytes(size)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := fa.WriteTo(msg, nil); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	el := time.Since(start)
	b.ReportMetric(float64(b.N)*size*8/el.Seconds()/1e6, "Mbps")
}
