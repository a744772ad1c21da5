// Package chaos is the fault-injection harness: it drives the UDT protocol
// over a netem fabric and asserts end-to-end properties — data integrity
// under impairment, eventual peer-death detection across partitions,
// bounded recovery times.
//
// The virtual-clock drivers — Run (two peers), RunMux (socket-ID
// demultiplexed flows) and internal/campaign (multi-node topologies) — all
// schedule Peers with the one Driver loop, single-threaded under a
// netem.VirtualClock, so an entire transfer — every packet arrival, timer
// expiry and impairment draw — is a deterministic function of its
// configuration: two runs with the same seed produce bit-identical results,
// and simulated minutes elapse in milliseconds of real time. A Peer is the
// shared core.Endpoint — the byte-level protocol path udt.Conn ships —
// under a payload model; what the replay does not cover is the concurrency
// around it (handshake, scheduler, locks). RunReal, RunRendezvous and RunFS
// execute that: the full udt stack (goroutines, wall clock) over the same
// fabric, trading replayability for coverage.
package chaos

import (
	"math/rand"
	"sort"

	"udt/internal/core"
	"udt/internal/netem"
	"udt/internal/secure"
	"udt/internal/seqno"
)

// Event is a scripted mid-transfer fault: at virtual time At (µs from the
// start of the run), Do is applied to the fabric. Events fire in At order,
// on the driver goroutine, so they are part of the deterministic replay.
type Event struct {
	// At is the virtual time of the fault, µs from the start of the run.
	At int64
	// Do mutates the fabric: partition, heal, change a link's impairments.
	Do func(nw *netem.Net)
}

// Config parameterizes one virtual-clock chaos run between two peers named
// "a" and "b".
type Config struct {
	// Seed drives every random choice: the payload bytes, the handshake
	// sequence numbers and all netem impairment draws.
	Seed int64
	// PayloadA and PayloadB are the bytes a and b send (either may be 0).
	PayloadA, PayloadB int
	// MSS is the UDT packet size in bytes. Default 1472.
	MSS int
	// SndBufPkts and RcvBufPkts size the peer buffers. Default 4096.
	SndBufPkts, RcvBufPkts int
	// Link is applied to both directions before the run starts.
	Link netem.LinkConfig
	// MinEXP and PeerDeathTime tune failure detection, in µs; zero keeps
	// the core defaults (300 ms floor, 5 s death).
	MinEXP, PeerDeathTime int64
	// Events are scripted faults, fired in At order.
	Events []Event
	// MaxVirtualTime aborts the run after this much virtual time, µs.
	// Default 120 s.
	MaxVirtualTime int64
	// CCA and CCB name each peer's congestion controller ("native",
	// "ctcp", "scalable", "hstcp"). Empty selects the native law with a
	// nil factory — the exact pre-pluggable construction path.
	CCA, CCB string
	// Secure runs the transfer over the sealed AEAD channel: both peers
	// hold seed-derived sessions (key material drawn from the run's RNG,
	// exactly as a completed authenticated handshake would leave them) and
	// every packet is sealed on send and opened on receive. Duplication
	// impairments then double as replay attacks against the control
	// channel, which the anti-replay window must absorb without breaking
	// the transfer.
	Secure bool
}

// PeerResult is one endpoint's outcome.
type PeerResult struct {
	// SentBytes is how much of the peer's payload entered the send buffer.
	SentBytes int
	// RecvBytes is how many stream bytes were read out of the receiver.
	RecvBytes int
	// RecvOK reports the received stream matched the peer's payload
	// byte-for-byte (FNV-64a over length and content).
	RecvOK bool
	// RecvHash is the FNV-64a digest of the received stream.
	RecvHash uint64
	// Broken reports the engine declared the peer dead (EXP expiry).
	Broken bool
	// BrokenAt is the virtual time of death detection, µs (0 if !Broken).
	BrokenAt int64
	// AuthFails and ReplayDrops are the secure session's receive-side
	// rejection counters (zero on cleartext runs).
	AuthFails, ReplayDrops uint64
	// Stats is the engine's final protocol counters.
	Stats core.Stats
}

// Result is the outcome of one chaos run. Under the virtual clock it is a
// pure function of the Config — compare two same-seed Results with
// reflect.DeepEqual to verify determinism.
type Result struct {
	// OK reports both transfers completed with matching checksums.
	OK bool
	// TimedOut reports the run hit MaxVirtualTime before finishing.
	TimedOut bool
	// Elapsed is the virtual duration of the run, µs.
	Elapsed int64
	// A and B are the per-endpoint outcomes.
	A, B PeerResult
	// PathAB and PathBA are the fabric's impairment counters per direction.
	PathAB, PathBA netem.PathStats
}

// Driver is the one virtual-clock scheduling loop: Run, RunMux and
// campaign.Run differ only in how a round pumps datagrams through their
// Peers, when they are done, and which deadlines of their own bound the
// sleep. Everything runs on the calling goroutine, so a whole run is a
// deterministic function of its inputs.
type Driver struct {
	// Clock and Net are the run's virtual clock and the fabric on it.
	Clock *netem.VirtualClock
	Net   *netem.Net
	// Events are scripted faults; Run fires them in At order, each before
	// the pump of its instant.
	Events []Event
	// MaxVirtualTime aborts the run, µs.
	MaxVirtualTime int64
	// Pump runs one scheduling round at virtual time now and reports
	// whether anything happened; the round repeats at the same instant
	// until nothing does.
	Pump func(now int64) (progress bool)
	// Done is the completion check, evaluated after every pump.
	Done func(now int64) bool
	// NextWake folds the caller's deadlines into bound, returning the
	// earliest.
	NextWake func(bound int64) int64
}

// Run drives the loop until Done reports completion (false) or the clock
// reaches MaxVirtualTime (true).
func (d Driver) Run() (timedOut bool) {
	events := append([]Event(nil), d.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for {
		now := d.Clock.Now()
		progress := false
		for len(events) > 0 && events[0].At <= now {
			events[0].Do(d.Net)
			events = events[1:]
			progress = true
		}
		if d.Pump(now) {
			progress = true
		}
		if d.Done(now) {
			return false
		}
		if now >= d.MaxVirtualTime {
			return true
		}
		if progress {
			continue // re-pump at the same instant before sleeping
		}
		wake := d.MaxVirtualTime
		if len(events) > 0 && events[0].At < wake {
			wake = events[0].At
		}
		wake = d.NextWake(wake)
		if t, ok := d.Clock.NextEvent(); ok && t < wake {
			wake = t
		}
		if wake <= now {
			wake = now + 1 // guarantee progress even on zero-delay links
		}
		d.Clock.AdvanceTo(wake)
	}
}

// allDone reports whether every peer is finished or dead, recording the
// instant of any death it observes.
func allDone(now int64, peers []*Peer) bool {
	done := true
	for _, p := range peers {
		if !p.NoteBroken(now) && !p.Finished() {
			done = false
		}
	}
	return done
}

// nextWake folds every peer's next deadline into bound.
func nextWake(bound int64, peers []*Peer) int64 {
	for _, p := range peers {
		bound = p.NextWake(bound)
	}
	return bound
}

// Run executes one chaos transfer under a virtual clock and returns its
// outcome. It is fully deterministic: same Config, same Result.
func Run(cfg Config) Result {
	if cfg.MaxVirtualTime == 0 {
		cfg.MaxVirtualTime = 120_000_000
	}
	vc := netem.NewVirtualClock(0)
	nw := netem.New(cfg.Seed, vc)
	rng := rand.New(rand.NewSource(cfg.Seed)) //nolint:gosec // reproducibility, not crypto

	epA, err := nw.Endpoint("a")
	if err != nil {
		panic(err) // fresh fabric: cannot collide
	}
	epB, _ := nw.Endpoint("b")
	nw.SetLink("a", "b", cfg.Link)

	payA := make([]byte, cfg.PayloadA)
	rng.Read(payA) //nolint:errcheck // never fails
	payB := make([]byte, cfg.PayloadB)
	rng.Read(payB) //nolint:errcheck

	isnA := rng.Int31() & seqno.Max
	isnB := rng.Int31() & seqno.Max
	// Seed-derived sealing state, drawn after the payloads and ISNs so a
	// secure run moves the same stream bytes as its cleartext twin.
	var secA, secB *secure.Session
	if cfg.Secure {
		var psk [32]byte
		var nonceA, nonceB [16]byte
		rng.Read(psk[:])    //nolint:errcheck // never fails
		rng.Read(nonceA[:]) //nolint:errcheck
		rng.Read(nonceB[:]) //nolint:errcheck
		keys := secure.DeriveKeys(psk[:])
		secA = secure.NewSession(keys, nonceA[:], nonceB[:], true, isnA, isnB, true)
		secB = secure.NewSession(keys, nonceA[:], nonceB[:], false, isnB, isnA, true)
	}
	oa := PeerOptions{
		Name: "a", MSS: cfg.MSS, SndBufPkts: cfg.SndBufPkts, RcvBufPkts: cfg.RcvBufPkts,
		MinEXP: cfg.MinEXP, PeerDeathTime: cfg.PeerDeathTime,
		CC: cfg.CCA, ISN: isnA, PeerISN: isnB, Payload: payA, Expect: payB, Secure: secA,
		Out: func(b []byte) { epA.WriteTo(b, epB.LocalAddr()) }, //nolint:errcheck // losses are the point
	}
	ob := oa
	ob.Name, ob.CC, ob.ISN, ob.PeerISN, ob.Payload, ob.Expect, ob.Secure = "b", cfg.CCB, isnB, isnA, payB, payA, secB
	ob.Out = func(b []byte) { epB.WriteTo(b, epA.LocalAddr()) } //nolint:errcheck
	a, b := NewPeer(oa), NewPeer(ob)
	a.Start(vc.Now())
	b.Start(vc.Now())

	peers := []*Peer{a, b}
	eps := []*netem.Endpoint{epA, epB}
	rbuf := make([]byte, 65536)
	res := Result{}
	res.TimedOut = Driver{
		Clock: vc, Net: nw, Events: cfg.Events, MaxVirtualTime: cfg.MaxVirtualTime,
		Pump: func(now int64) (progress bool) {
			for i, p := range peers {
				if p.Eng.Broken() {
					continue
				}
				for {
					n, _, ok := eps[i].TryReadFrom(rbuf)
					if !ok {
						break
					}
					p.Deliver(now, rbuf[:n])
					progress = true
				}
				if p.Service(now) {
					progress = true
				}
			}
			return progress
		},
		Done:     func(now int64) bool { return allDone(now, peers) },
		NextWake: func(bound int64) int64 { return nextWake(bound, peers) },
	}.Run()

	res.Elapsed = vc.Now()
	res.A = a.Result()
	res.B = b.Result()
	res.OK = !res.TimedOut && a.Finished() && b.Finished() && res.A.RecvOK && res.B.RecvOK
	res.PathAB = nw.PathStats("a", "b")
	res.PathBA = nw.PathStats("b", "a")
	epA.Close() //nolint:errcheck
	epB.Close() //nolint:errcheck
	return res
}
