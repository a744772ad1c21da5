package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"udt"
	"udt/internal/netem"
)

// RealConfig parameterizes a RunReal transfer: the full concurrent udt
// stack (DialOn/ListenOn, its goroutines, the wall clock) over a netem
// fabric, client "c" sending Payload bytes to server "s".
type RealConfig struct {
	// Seed drives the payload, the handshake randomness and the fabric.
	Seed int64
	// Payload is the client→server transfer size in bytes.
	Payload int
	// Link is applied to both directions.
	Link netem.LinkConfig
	// UDT overrides the endpoint configuration; Rand is always replaced
	// with a Seed-derived source so handshakes are reproducible.
	UDT udt.Config
	// Timeout bounds the whole transfer in wall time. Default 60 s.
	Timeout time.Duration
}

// RealResult is the outcome of a RunReal transfer.
type RealResult struct {
	// OK reports the server received exactly the bytes the client sent.
	OK bool
	// SentHash and RecvHash are FNV-64a digests of both stream ends.
	SentHash, RecvHash uint64
	// RecvBytes is how much the server read before EOF.
	RecvBytes int
	// Elapsed is the wall-clock duration of the transfer.
	Elapsed time.Duration
	// Client and Server are the final protocol counters of each endpoint.
	Client, Server udt.Stats
	// PathCS and PathSC are the fabric's impairment counters per direction.
	PathCS, PathSC netem.PathStats
}

// RunReal pushes cfg.Payload bytes through the production udt stack over
// an impaired netem fabric and verifies the stream arrives bit-exactly.
// Unlike Run it is concurrent and wall-clock timed: packet-level replay is
// not deterministic, but the impairment draw sequence per path still is.
func RunReal(cfg RealConfig) (RealResult, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	nw, epC, epS, payload, err := realFabric(cfg.Seed, cfg.Payload, cfg.Link)
	if err != nil {
		return RealResult{}, err
	}

	ucfg := cfg.UDT
	ucfg.Rand = rand.New(rand.NewSource(cfg.Seed + 1)) //nolint:gosec
	ln, err := udt.ListenOn(epS, &ucfg)
	if err != nil {
		return RealResult{}, err
	}
	defer ln.Close() //nolint:errcheck

	start := time.Now()
	conn, err := udt.DialOn(epC, epS.LocalAddr(), &ucfg)
	if err != nil {
		return RealResult{SentHash: hashOf(payload)}, err
	}
	return realTransfer(cfg.Timeout, nw, payload, start, conn, ln.Accept)
}

// realFabric is the head the wall-clock runs share: draw the seed-derived
// payload and join endpoints "c" and "s" of a fresh fabric by link.
func realFabric(seed int64, size int, link netem.LinkConfig) (nw *netem.Net, epC, epS *netem.Endpoint, payload []byte, err error) {
	payload = make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(payload) //nolint:errcheck,gosec // reproducibility, not crypto
	nw = netem.New(seed, nil)
	if epC, err = nw.Endpoint("c"); err == nil {
		epS, err = nw.Endpoint("s")
	}
	nw.SetLink("c", "s", link)
	return nw, epC, epS, payload, err
}

// realTransfer is the transfer tail RunReal and RunRendezvous share: write
// payload on client, poll until it is drained and close; meanwhile read the
// connection accept yields into a running hash; then fill the result.
func realTransfer(timeout time.Duration, nw *netem.Net, payload []byte, start time.Time, client *udt.Conn, accept func() (*udt.Conn, error)) (RealResult, error) {
	res := RealResult{SentHash: hashOf(payload)}
	type recvEnd struct {
		bytes int
		hash  hashState
		stats udt.Stats
		err   error
	}
	recvDone := make(chan recvEnd, 1)
	go func() {
		r := recvEnd{hash: newHash()}
		sc, err := accept()
		if err != nil {
			r.err = err
			recvDone <- r
			return
		}
		buf := make([]byte, 65536)
		for {
			n, err := sc.Read(buf)
			r.hash.write(buf[:n])
			r.bytes += n
			// Done on byte count, not only EOF: the closing client owns its
			// whole mux, so if the lossy link eats the shutdown packet there
			// is nobody left to retransmit it and waiting for EOF turns into
			// a peer-death timeout.
			if r.bytes < len(payload) && err == nil {
				continue
			}
			r.stats = sc.Stats()
			if r.bytes < len(payload) && err != io.EOF {
				r.err = err
			}
			recvDone <- r
			return
		}
	}()

	if _, err := client.Write(payload); err != nil {
		client.Close() //nolint:errcheck
		return res, fmt.Errorf("chaos: write: %w", err)
	}
	drainDeadline := time.Now().Add(timeout)
	for !client.Drained() {
		if time.Now().After(drainDeadline) {
			client.Close() //nolint:errcheck
			return res, fmt.Errorf("chaos: transfer not drained within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Client = client.Stats()
	client.Close() //nolint:errcheck

	select {
	case r := <-recvDone:
		res.RecvBytes, res.RecvHash, res.Server = r.bytes, uint64(r.hash), r.stats
		if r.err != nil {
			return res, fmt.Errorf("chaos: server: %w", r.err)
		}
	case <-time.After(timeout):
		return res, fmt.Errorf("chaos: server read not finished within %v", timeout)
	}
	res.OK = res.RecvBytes == len(payload) && res.RecvHash == res.SentHash
	res.Elapsed = time.Since(start)
	res.PathCS = nw.PathStats("c", "s")
	res.PathSC = nw.PathStats("s", "c")
	return res, nil
}
