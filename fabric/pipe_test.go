package fabric

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := NewPipe(PipeConfig{})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck

	msg := []byte("hello over the fabric")
	if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, from, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("got %q", buf[:n])
	}
	if from.String() != "pipe-a" || from.Network() != "fabric" {
		t.Fatalf("from = %v/%v", from.Network(), from)
	}
	if a.LocalAddr().String() != "pipe-a" || b.LocalAddr().String() != "pipe-b" {
		t.Fatalf("addrs %v %v", a.LocalAddr(), b.LocalAddr())
	}
}

func TestPipeAddressing(t *testing.T) {
	a, b := NewPipe(PipeConfig{AddrA: "left", AddrB: "right"})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	// A nil destination is the implied peer; a wrong one is a wiring bug.
	if _, err := a.WriteTo([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteTo([]byte("x"), Addr("elsewhere")); err == nil {
		t.Fatal("write to a third party on a point-to-point pipe succeeded")
	}
}

func TestPipeDeadline(t *testing.T) {
	a, b := NewPipe(PipeConfig{})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck

	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond)) //nolint:errcheck
	start := time.Now()
	_, _, err := b.ReadFrom(make([]byte, 16))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want net.Error with Timeout()", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline wildly late")
	}
	// An already-expired deadline fails immediately; clearing it restores
	// indefinite blocking for queued data.
	b.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
	if _, _, err := b.ReadFrom(make([]byte, 16)); err == nil {
		t.Fatal("expired deadline read succeeded")
	}
	b.SetReadDeadline(time.Time{}) //nolint:errcheck
	a.WriteTo([]byte("late"), nil) //nolint:errcheck
	if _, _, err := b.ReadFrom(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestPipeClose(t *testing.T) {
	a, b := NewPipe(PipeConfig{})
	done := make(chan error, 1)
	go func() {
		_, _, err := b.ReadFrom(make([]byte, 16))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close() //nolint:errcheck
	b.Close() //nolint:errcheck — idempotent
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked reader")
	}
	if _, err := b.WriteTo([]byte("x"), nil); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	// Writes toward a closed peer vanish like UDP into the void.
	if _, err := a.WriteTo([]byte("x"), nil); err != nil {
		t.Fatalf("write to closed peer errored: %v", err)
	}
}

func TestPipeDropOnFull(t *testing.T) {
	a, b := NewPipe(PipeConfig{Depth: 2})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	for i := 0; i < 5; i++ {
		if _, err := a.WriteTo([]byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Drops(); got != 3 {
		t.Fatalf("drops = %d, want 3", got)
	}
}

func TestPipeBlocking(t *testing.T) {
	a, b := NewPipe(PipeConfig{Depth: 1, Block: true})
	defer b.Close() //nolint:errcheck

	// Fill the queue, then block on the next write until the reader drains.
	if _, err := a.WriteTo([]byte("1"), nil); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		a.WriteTo([]byte("2"), nil) //nolint:errcheck
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write to a full blocking pipe returned before drain")
	case <-time.After(30 * time.Millisecond):
	}
	if _, _, err := b.ReadFrom(make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked writer never resumed")
	}
	if a.Drops() != 0 {
		t.Fatalf("blocking pipe dropped %d", a.Drops())
	}
	// Close must wake a blocked writer (the resumed write above already
	// refilled the single-slot queue).
	blocked := make(chan error, 1)
	go func() {
		_, err := a.WriteTo([]byte("4"), nil)
		blocked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close() //nolint:errcheck
	select {
	case err := <-blocked:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("err = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked writer")
	}
}

// TestPipeConcurrentReaders blocks several readers on one endpoint with a
// deadline set: only one of them can hold the endpoint's own timer, and every
// one must still see the deadline — and, after it, data.
func TestPipeConcurrentReaders(t *testing.T) {
	a, b := NewPipe(PipeConfig{})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	const readers = 4
	for round := 0; round < 3; round++ {
		b.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		errs := make(chan error, readers)
		for i := 0; i < readers; i++ {
			go func() {
				_, _, err := b.ReadFrom(make([]byte, 16))
				errs <- err
			}()
		}
		for i := 0; i < readers; i++ {
			select {
			case err := <-errs:
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("round %d: err = %v, want a timeout", round, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of %d blocked readers never saw the deadline", round, readers-i, readers)
			}
		}
	}
	b.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
	got := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			_, _, err := b.ReadFrom(make([]byte, 16))
			got <- err
		}()
	}
	for i := 0; i < readers; i++ {
		a.WriteTo([]byte{byte(i)}, nil) //nolint:errcheck
	}
	for i := 0; i < readers; i++ {
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a reader blocked under a distant deadline missed its datagram")
		}
	}
}

// TestPipeAllocs gates the zero-allocation discipline on the pipe's hot
// path: with data queued, WriteTo + ReadFrom recycle every buffer; and a
// read that has to block with a deadline set — what a UDT read loop does
// whenever its flows go quiet — re-arms the endpoint's timer instead of
// making one.
func TestPipeAllocs(t *testing.T) {
	a, b := NewPipe(PipeConfig{})
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	msg := make([]byte, 1024)
	buf := make([]byte, 2048)
	// Warm the pool.
	for i := 0; i < 64; i++ {
		a.WriteTo(msg, nil) //nolint:errcheck
		b.ReadFrom(buf)     //nolint:errcheck
	}
	avg := testing.AllocsPerRun(1000, func() {
		a.WriteTo(msg, nil) //nolint:errcheck
		b.ReadFrom(buf)     //nolint:errcheck
	})
	if avg > 0.01 {
		t.Fatalf("pipe data path allocates %.3f allocs/packet, want 0", avg)
	}
	avg = testing.AllocsPerRun(100, func() {
		b.SetReadDeadline(time.Now().Add(200 * time.Microsecond)) //nolint:errcheck
		if _, _, err := b.ReadFrom(buf); err != ErrTimeout {
			t.Fatalf("read of an empty pipe: %v, want the deadline", err)
		}
	})
	t.Logf("blocking read that meets its deadline: %.2f allocs/read", avg)
	if avg > 0.01 {
		t.Fatalf("blocking read that meets its deadline allocates %.3f allocs/read, want 0", avg)
	}
	// Woken by data instead: the writer waits until the reader has asked.
	kick := make(chan struct{})
	go func() {
		for range kick {
			time.Sleep(100 * time.Microsecond)
			a.WriteTo(msg, nil) //nolint:errcheck
		}
	}()
	defer close(kick)
	b.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
	avg = testing.AllocsPerRun(100, func() {
		kick <- struct{}{}
		if _, _, err := b.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("blocking read woken by data: %.2f allocs/read", avg)
	if avg > 0.01 {
		t.Fatalf("blocking read woken by data allocates %.3f allocs/read, want 0", avg)
	}
}
