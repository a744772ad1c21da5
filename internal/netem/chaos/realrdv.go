package chaos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"udt"
	"udt/internal/netem"
	"udt/udtfs"
)

// RunRendezvous crosses two simultaneous udt.Rendezvous dials over an
// impaired netem fabric — the full concurrent stack under the wall clock,
// like RunReal — then pushes cfg.Payload bytes c→s and verifies the
// stream arrives bit-exactly. Loss on the link exercises the crossing's
// request retransmission; the two sides draw handshake randomness from
// distinct seed-derived sources so the tie-break nonces are independent.
func RunRendezvous(cfg RealConfig) (RealResult, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	nw, epC, epS, payload, err := realFabric(cfg.Seed, cfg.Payload, cfg.Link)
	if err != nil {
		return RealResult{}, err
	}

	cfgC := cfg.UDT
	cfgC.Rand = rand.New(rand.NewSource(cfg.Seed + 1)) //nolint:gosec
	cfgC.HandshakeTimeout = cfg.Timeout
	cfgS := cfg.UDT
	cfgS.Rand = rand.New(rand.NewSource(cfg.Seed + 2)) //nolint:gosec
	cfgS.HandshakeTimeout = cfg.Timeout

	start := time.Now()
	type rdv struct {
		c   *udt.Conn
		err error
	}
	sDone := make(chan rdv, 1)
	go func() {
		c, err := udt.Rendezvous(epS, epC.LocalAddr(), &cfgS)
		sDone <- rdv{c, err}
	}()
	cc, errC := udt.Rendezvous(epC, epS.LocalAddr(), &cfgC)
	sr := <-sDone
	if errC != nil || sr.err != nil {
		if cc != nil {
			cc.Close() //nolint:errcheck
		}
		if sr.c != nil {
			sr.c.Close() //nolint:errcheck
		}
		return RealResult{SentHash: hashOf(payload)}, fmt.Errorf("chaos: rendezvous: c=%v s=%v", errC, sr.err)
	}
	defer sr.c.Close() //nolint:errcheck
	return realTransfer(cfg.Timeout, nw, payload, start, cc, func() (*udt.Conn, error) { return sr.c, nil })
}

// FSConfig parameterizes a RunFS transfer: a udtfs server and resumable
// Fetcher over an impaired netem fabric, with the serving connection
// killed mid-transfer to force a resume.
type FSConfig struct {
	// Seed drives the payload, the handshake randomness and the fabric.
	Seed int64
	// Payload is the served file's size in bytes.
	Payload int
	// Link is applied to both directions.
	Link netem.LinkConfig
	// KillAt kills the serving connection once after this many payload
	// bytes have reached the client, forcing the Fetcher to re-dial and
	// resume. 0 leaves the transfer unmolested.
	KillAt int64
	// UDT overrides the endpoint configuration; Rand is always replaced
	// with a Seed-derived source.
	UDT udt.Config
	// Timeout bounds the whole transfer in wall time. Default 60 s.
	Timeout time.Duration
}

// FSResult is the outcome of a RunFS transfer.
type FSResult struct {
	// OK reports the fetched stream is byte-identical to the served file.
	OK bool
	// WantHash and GotHash are FNV-64a digests of the file and the
	// assembled fetch.
	WantHash, GotHash uint64
	// Bytes is how much the Fetcher delivered.
	Bytes int64
	// Killed reports the scripted mid-transfer kill fired.
	Killed bool
	// Resumes is how many connection deaths the Fetcher survived.
	Resumes int
	// Elapsed is the wall-clock duration of the fetch.
	Elapsed time.Duration
	// PathCS and PathSC are the fabric's impairment counters per direction.
	PathCS, PathSC netem.PathStats
}

// fsKillWriter accumulates the fetched stream and fires kill once, as
// soon as threshold bytes have arrived.
type fsKillWriter struct {
	hash      hashState
	n         int64
	threshold int64
	kill      func()
	killed    bool
}

// Write hashes and counts the chunk, triggering the kill at the threshold.
func (k *fsKillWriter) Write(p []byte) (int, error) {
	k.hash.write(p)
	k.n += int64(len(p))
	if k.threshold > 0 && !k.killed && k.n >= k.threshold {
		k.killed = true
		k.kill()
	}
	return len(p), nil
}

// RunFS serves a seed-derived file through udtfs over an impaired netem
// fabric and fetches it resumably with the production stack: a listener
// and server on one endpoint, a persistent client Mux on the other that
// survives connection deaths, and (with KillAt > 0) a scripted kill of
// the serving connection mid-body so the Fetcher must re-dial through
// the impairment and resume from its verified offset. OK requires the
// assembled bytes to be identical to the served file.
func RunFS(cfg FSConfig) (FSResult, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	nw, epC, epS, payload, err := realFabric(cfg.Seed, cfg.Payload, cfg.Link)
	if err != nil {
		return FSResult{}, err
	}
	dir, err := os.MkdirTemp("", "udtfs-chaos-")
	if err != nil {
		return FSResult{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	path := dir + "/payload.bin"
	if err := os.WriteFile(path, payload, 0o600); err != nil {
		return FSResult{}, err
	}

	ucfg := cfg.UDT
	ucfg.Rand = rand.New(rand.NewSource(cfg.Seed + 1)) //nolint:gosec
	ln, err := udt.ListenOn(epS, &ucfg)
	if err != nil {
		return FSResult{}, err
	}
	defer ln.Close() //nolint:errcheck

	srv := udtfs.NewServer(udtfs.ServerConfig{})
	defer srv.Close() //nolint:errcheck
	srv.Register("payload", path)

	// Track served connections so the kill can hit the one mid-transfer.
	var smu sync.Mutex
	var sconns []*udt.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			smu.Lock()
			sconns = append(sconns, c)
			smu.Unlock()
			go srv.ServeConn(c) //nolint:errcheck
		}
	}()

	m, err := udt.NewMux(epC, &ucfg)
	if err != nil {
		return FSResult{}, err
	}
	defer m.Close() //nolint:errcheck

	res := FSResult{WantHash: hashOf(payload)}
	kw := &fsKillWriter{hash: newHash(), threshold: cfg.KillAt, kill: func() {
		smu.Lock()
		var c *udt.Conn
		if n := len(sconns); n > 0 {
			c = sconns[n-1]
		}
		smu.Unlock()
		if c != nil {
			c.Close() //nolint:errcheck
		}
	}}
	f := &udtfs.Fetcher{Dial: func() (*udt.Conn, error) { return m.Dial(epS.LocalAddr()) }}
	start := time.Now()
	fr, err := f.Fetch("payload", kw)
	res.Elapsed = time.Since(start)
	res.Bytes = fr.Bytes
	res.Killed = kw.killed
	res.Resumes = fr.Resumes
	res.GotHash = uint64(kw.hash)
	res.PathCS = nw.PathStats("c", "s")
	res.PathSC = nw.PathStats("s", "c")
	if err != nil {
		return res, fmt.Errorf("chaos: fetch: %w", err)
	}
	want := sha256.Sum256(payload)
	res.OK = fr.Bytes == int64(len(payload)) && res.GotHash == res.WantHash && fr.SHA256 == want
	return res, nil
}
