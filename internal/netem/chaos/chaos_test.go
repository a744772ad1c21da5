package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"udt"
	"udt/internal/netem"
)

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{
		Seed:     99,
		PayloadA: 512 << 10,
		PayloadB: 256 << 10,
		Link:     netem.LinkConfig{Delay: 3000, Jitter: 2000, Loss: 0.02, Dup: 0.002, Corrupt: 0.001},
	}
	one, two := Run(cfg), Run(cfg)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", one, two)
	}
	if !one.OK {
		t.Fatalf("transfer failed: %+v", one)
	}
	if one.A.Stats.PktsRetrans == 0 {
		t.Fatal("2% loss produced no retransmissions")
	}
	cfg.Seed = 100
	other := Run(cfg)
	if reflect.DeepEqual(one, other) {
		t.Fatal("different seeds produced identical runs (seed unused?)")
	}
}

// TestPartitionPeerDeathBound scripts a permanent mid-transfer partition
// and requires both engines to detect peer death inside the window
// [PeerDeathTime, 2.5·PeerDeathTime] after the cut — the silence
// requirement is a lower bound, and the capped EXP backoff means 16
// expirations land not far above it.
func TestPartitionPeerDeathBound(t *testing.T) {
	const (
		cutAt     = 30_000
		deathTime = 2_000_000
	)
	r := Run(Config{
		Seed:           5,
		PayloadA:       4 << 20,
		PayloadB:       4 << 20,
		Link:           netem.LinkConfig{Delay: 2000, RateMbps: 100, QueuePkts: 64},
		Events:         PartitionAt(cutAt, 0),
		MinEXP:         50_000,
		PeerDeathTime:  deathTime,
		MaxVirtualTime: 30_000_000,
	})
	if r.TimedOut {
		t.Fatalf("run timed out: %+v", r)
	}
	for name, p := range map[string]PeerResult{"a": r.A, "b": r.B} {
		if !p.Broken {
			t.Fatalf("peer %s never detected death: %+v", name, p)
		}
		since := p.BrokenAt - cutAt
		if since < deathTime {
			t.Errorf("peer %s died %dµs after the cut, before the %dµs silence bound", name, since, deathTime)
		}
		if since > deathTime*5/2 {
			t.Errorf("peer %s took %dµs to die, beyond 2.5×PeerDeathTime", name, since)
		}
	}
}

// TestScenarioRecovery pins the two recovery scripts: a healed partition
// and a transient loss episode must both end in a complete, checksum-clean
// transfer with no death declared.
func TestScenarioRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []Event
	}{
		{"partition-heal", PartitionAt(20_000, 320_000)},
		{"loss-episode", LossBurst(15_000, 150_000, 0.3)},
		{"rtt-step", RTTStep(15_000, 25_000)},
	} {
		r := Run(Config{
			Seed:     21,
			PayloadA: 512 << 10,
			PayloadB: 512 << 10,
			Link:     netem.LinkConfig{Delay: 2000, RateMbps: 100, QueuePkts: 64},
			Events:   tc.events,
		})
		if !r.OK || r.A.Broken || r.B.Broken {
			t.Errorf("%s: no recovery: ok=%v timedout=%v a=%+v b=%+v",
				tc.name, r.OK, r.TimedOut, r.A, r.B)
		}
	}
}

// TestQuickMatrixPasses keeps the CI matrix itself under test: every cell
// must meet its success criterion at the default seed.
func TestQuickMatrixPasses(t *testing.T) {
	for _, cr := range RunMatrix(1, QuickMatrix()) {
		if !cr.Pass {
			t.Errorf("%s failed: %+v", cr.Case.Name, cr.Result)
		}
	}
}

// TestCCMatrixPasses runs the congestion-control matrix: every pluggable
// law must carry its transfer, and the fairness cells must complete with
// both laws making progress on the shared link.
func TestCCMatrixPasses(t *testing.T) {
	for _, cr := range RunMatrix(1, CCMatrix()) {
		if !cr.Pass {
			if cr.Mux != nil {
				t.Errorf("%s failed: %+v", cr.Case.Name, *cr.Mux)
			} else {
				t.Errorf("%s failed: %+v", cr.Case.Name, cr.Result)
			}
			continue
		}
		if cr.Mux != nil {
			for i, f := range cr.Mux.Flows {
				if f.GoodputAMbps <= 0 || f.GoodputBMbps <= 0 {
					t.Errorf("%s: flow %d (%s) reported zero goodput: %+v", cr.Case.Name, i, f.CC, f)
				}
			}
		}
	}
}

// TestCCMatrixDeterministic pins the tentpole's replay requirement: a
// fairness cell racing two different laws over one seeded path must be a
// pure function of the seed, per-flow goodput included.
func TestCCMatrixDeterministic(t *testing.T) {
	cell := Case{}
	for _, cs := range CCMatrix() {
		if cs.Name == "cc-fair-native-ctcp" {
			cell = cs
		}
	}
	if cell.Name == "" {
		t.Fatal("cc-fair-native-ctcp cell missing from CCMatrix")
	}
	run := func() CaseResult { return RunMatrix(42, []Case{cell})[0] }
	one := run()
	two := run()
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("same-seed CC race diverged:\n%+v\n%+v", one, two)
	}
	if !one.Pass {
		t.Fatalf("cc-fair-native-ctcp failed at seed 42: %+v", *one.Mux)
	}
}

// TestSecureChaosReplayIdentity pins the Secure mode three ways: a sealed
// run is a pure function of the seed (bit-identical replay), it delivers
// the exact stream its cleartext twin delivers (crypto is invisible to the
// application), and under a duplicating link the control-channel replays
// are absorbed by the anti-replay window rather than surfacing as failures.
func TestSecureChaosReplayIdentity(t *testing.T) {
	cfg := Config{
		Seed:     17,
		PayloadA: 512 << 10,
		PayloadB: 256 << 10,
		Link:     netem.LinkConfig{Delay: 3000, Jitter: 1000, Loss: 0.01, Dup: 0.01},
		Secure:   true,
	}
	one, two := Run(cfg), Run(cfg)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("same-seed secure runs diverged:\n%+v\n%+v", one, two)
	}
	if !one.OK {
		t.Fatalf("sealed transfer failed: %+v", one)
	}
	if one.A.AuthFails != 0 || one.B.AuthFails != 0 {
		t.Fatalf("impairment alone caused auth failures: a=%+v b=%+v", one.A, one.B)
	}
	if one.A.ReplayDrops+one.B.ReplayDrops == 0 {
		t.Fatal("1% duplication produced no control replays — the window was never exercised")
	}

	clear := cfg
	clear.Secure = false
	plain := Run(clear)
	if !plain.OK {
		t.Fatalf("cleartext twin failed: %+v", plain)
	}
	if plain.A.RecvHash != one.A.RecvHash || plain.B.RecvHash != one.B.RecvHash {
		t.Fatalf("sealed and cleartext runs delivered different streams: %x/%x vs %x/%x",
			one.A.RecvHash, one.B.RecvHash, plain.A.RecvHash, plain.B.RecvHash)
	}
}

// TestRunRealSecureImpaired drives the production stack — authenticated
// handshake, cookie exchange, sealed channel — through loss and asserts
// the transfer is bit-exact with the crypto counters in their expected
// states.
func TestRunRealSecureImpaired(t *testing.T) {
	psk := []byte("chaos runreal pre-shared key 32b")
	res, err := RunReal(RealConfig{
		Seed:    13,
		Payload: 1 << 20,
		Link:    netem.LinkConfig{Delay: 2000, Jitter: 1000, Loss: 0.01},
		UDT:     udt.Config{PSK: psk, AEAD: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("sealed transfer not bit-exact: %+v", res)
	}
	if res.Client.PktsRetrans == 0 {
		t.Fatal("1% loss produced no retransmissions")
	}
	if res.Server.CookieSent == 0 {
		t.Fatalf("secure dial skipped the cookie exchange: %+v", res.Server)
	}
	if res.Client.AuthRejects != 0 || res.Server.AuthRejects != 0 {
		t.Fatalf("impairment alone produced auth rejects: client=%+v server=%+v", res.Client, res.Server)
	}
}

func TestRunRealCleanLink(t *testing.T) {
	res, err := RunReal(RealConfig{Seed: 2, Payload: 1 << 20, Link: netem.LinkConfig{Delay: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("transfer not bit-exact: %+v", res)
	}
}

// TestDriverLoop pins the shared scheduling loop's two contracts: scripted
// events fire in At order, each before the pump of its instant, and a
// zero-delay link — whose delivery is due at the very instant it was
// written, so the earliest wake is not in the future — still advances the
// clock by 1 µs instead of spinning.
func TestDriverLoop(t *testing.T) {
	vc := netem.NewVirtualClock(0)
	nw := netem.New(1, vc)
	epA, _ := nw.Endpoint("a")
	epB, _ := nw.Endpoint("b")
	nw.SetLink("a", "b", netem.LinkConfig{}) // zero delay
	var log []string
	note := func(s string) func(*netem.Net) { return func(*netem.Net) { log = append(log, s) } }
	arrivedAt := int64(-1)
	buf := make([]byte, 16)
	timedOut := Driver{
		Clock: vc, Net: nw, MaxVirtualTime: 1000,
		Events: []Event{{At: 3, Do: note("ev3a")}, {At: 2, Do: note("ev2")}, {At: 3, Do: note("ev3b")}},
		Pump: func(now int64) bool {
			log = append(log, fmt.Sprintf("pump@%d", now))
			if now == 0 && len(log) == 1 {
				epA.WriteTo([]byte("x"), epB.LocalAddr()) //nolint:errcheck
			}
			if _, _, ok := epB.TryReadFrom(buf); ok {
				arrivedAt = now
				return true
			}
			return false
		},
		Done:     func(now int64) bool { return now >= 3 },
		NextWake: func(bound int64) int64 { return bound },
	}.Run()
	if timedOut {
		t.Fatal("loop timed out")
	}
	if arrivedAt != 1 {
		t.Fatalf("zero-delay datagram arrived at %d µs, want 1 (wake <= now must step to now+1)", arrivedAt)
	}
	// Progress (the arrival at 1, the event at 2) re-pumps the same instant
	// before the clock moves.
	want := "pump@0 pump@1 pump@1 ev2 pump@2 pump@2 ev3a ev3b pump@3"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
}
