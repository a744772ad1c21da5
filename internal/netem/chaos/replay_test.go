package chaos

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// quickMatrixDigest folds every observable field of a QuickMatrix run into
// one FNV-64a value: virtual elapsed time, timeout flags, both peers' full
// counter sets, per-direction path impairment counters, and the mux cell's
// per-flow outcomes. Any behavioral drift in the engine, the fabric, or the
// driver loop changes it.
func quickMatrixDigest(seed int64) uint64 {
	h := fnv.New64a()
	for _, cr := range RunMatrix(seed, QuickMatrix()) {
		fmt.Fprintf(h, "%s|%v|%d|%v|%+v|%+v|%v|%s|%s\n",
			cr.Case.Name, cr.Pass, cr.Result.Elapsed, cr.Result.TimedOut, cr.Result.A, cr.Result.B, cr.Mux,
			realDigest(cr.Real), fsDigest(cr.FS))
	}
	return h.Sum64()
}

// realDigest and fsDigest fold only the seed-deterministic outcome of the
// wall-clock cells: payload digests and byte counts are pure functions of
// the seed when the cell passes, while Elapsed, Stats counters, and the
// exact resume count depend on real scheduling and are excluded.
func realDigest(r *RealResult) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("ok=%v sent=%016x recv=%016x n=%d", r.OK, r.SentHash, r.RecvHash, r.RecvBytes)
}

func fsDigest(r *FSResult) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("ok=%v want=%016x got=%016x n=%d killed=%v resumed=%v",
		r.OK, r.WantHash, r.GotHash, r.Bytes, r.Killed, r.Resumes > 0)
}

// TestQuickMatrixReplayDigest pins the QuickMatrix replay to the exact
// digest produced before the timer-wheel/worker-pool refactor. The chaos
// harness drives internal/core engines single-threaded under the virtual
// clock, so this value is a bit-identical oracle: if a refactor of the
// engine's timer bookkeeping changes any scheduling decision, any counter,
// or any byte on the wire, this test fails — even if every transfer still
// completes.
//
// If you change protocol behavior ON PURPOSE (new control packet, different
// timer policy), re-derive the constant by running this test with -v and
// copying the printed digest; note the change in the PR description.
//
// Re-derived for Secure UDT: the matrix gained the secure-aead-replay cell
// and PeerResult gained the AuthFails/ReplayDrops counters, both folded
// into the digest. Pre-existing cells' engine behavior is unchanged.
//
// Re-derived for rendezvous + udtfs: the matrix gained the wall-clock
// rdv-loss-1pct and fs-kill-resume cells, folded via their deterministic
// outcome fields only (realDigest/fsDigest). The virtual-clock cells'
// digest contributions are unchanged.
//
// Re-derived for the one wake rule (PR 25): Peer sleeps on the production
// wake instead of NextTimer, and a keep-alive no longer moves the EXP
// deadline. Ten of the twelve virtual-clock cells move with the FreezeEnd
// fold the old rule lacked; loss-episode and mux-64flows move again with the
// keep-alive fix. Parking and the unsent-data rule move nothing once both
// are in place (CHANGES.md, PR 25).
func TestQuickMatrixReplayDigest(t *testing.T) {
	const pinned uint64 = 0x9a26122e94a720b0
	got := quickMatrixDigest(1)
	t.Logf("QuickMatrix(seed=1) digest: %016x", got)
	if got != pinned {
		t.Fatalf("QuickMatrix replay digest drifted: got %016x, pinned %016x — engine behavior is no longer bit-identical", got, pinned)
	}
}
