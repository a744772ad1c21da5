package campaign

import (
	"bytes"
	"testing"

	"udt/internal/netem"
	"udt/internal/netem/chaos"
)

// smallDumbbell is the unit-scale campaign most tests drive: 4 mixed-law
// flows over a rate-capped bottleneck, staggered arrivals.
func smallDumbbell(seed int64) Spec {
	topo, flows := Dumbbell(4,
		netem.LinkConfig{Delay: 500, RateMbps: 50, QueuePkts: 64},
		netem.LinkConfig{Delay: 2000, RateMbps: 20, QueuePkts: 32},
	)
	flows = AssignPayload(flows, 64<<10)
	flows = AssignCC(flows, "native", "bbrlite")
	flows = Staggered(flows, 0, 10_000)
	return Spec{Name: "small", Seed: seed, Topology: topo, Flows: flows}
}

func TestSmallDumbbellCompletes(t *testing.T) {
	rep, mon, err := Run(smallDumbbell(3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.TimedOut {
		t.Fatalf("campaign failed: %s", rep)
	}
	if rep.Summary.FlowsOK != 4 || rep.Summary.Flows != 4 {
		t.Fatalf("flows ok = %d/%d", rep.Summary.FlowsOK, rep.Summary.Flows)
	}
	if rep.Misrouted != 0 || rep.Unroutable != 0 {
		t.Fatalf("routing errors: misrouted=%d unroutable=%d", rep.Misrouted, rep.Unroutable)
	}
	for _, f := range rep.Flows {
		if !f.RecvOK || f.RecvBytes != 64<<10 || f.GoodputMbps <= 0 {
			t.Fatalf("flow %+v", f)
		}
		if f.P99AckUs <= 0 {
			t.Fatalf("flow %d has no ack-latency measurement", f.ID)
		}
	}
	if rep.Summary.JainIndex <= 0 || rep.Summary.JainIndex > 1 {
		t.Fatalf("jain = %v", rep.Summary.JainIndex)
	}
	// Both laws appear in the per-CC breakdown, in sorted order.
	if len(rep.Summary.CCGoodput) != 2 ||
		rep.Summary.CCGoodput[0].CC != "bbrlite" || rep.Summary.CCGoodput[1].CC != "native" {
		t.Fatalf("cc breakdown %+v", rep.Summary.CCGoodput)
	}
	// The monitor collected engine telemetry for every flow.
	for i := range rep.Flows {
		if len(mon.FlowSeries(i)) == 0 {
			t.Fatalf("no perf records for flow %d", i)
		}
	}
	// And sampled the bottleneck queue in both directions.
	if len(mon.LinkSeries("l", "r")) == 0 || len(mon.LinkSeries("r", "l")) == 0 {
		t.Fatal("no bottleneck queue samples")
	}
}

func TestBottleneckTailDropAccounting(t *testing.T) {
	// A flash crowd into a tiny bottleneck queue must tail-drop, and the
	// per-link accounting must stay consistent: every offered datagram is
	// delivered, queue-dropped, or still in flight — never lost silently.
	topo, flows := Dumbbell(8,
		netem.LinkConfig{Delay: 200, RateMbps: 100, QueuePkts: 64},
		netem.LinkConfig{Delay: 1000, RateMbps: 5, QueuePkts: 8},
	)
	flows = AssignPayload(flows, 16<<10)
	flows = FlashCrowd(flows, 0)
	rep, mon, err := Run(Spec{Name: "crowd", Seed: 5, Topology: topo, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("retransmission must recover from tail drops: %s", rep)
	}
	var bott *LinkReport
	for i := range rep.Links {
		if rep.Links[i].From == "l" && rep.Links[i].To == "r" {
			bott = &rep.Links[i]
		}
	}
	if bott == nil {
		t.Fatal("no l→r link report")
	}
	if bott.DroppedQueue == 0 {
		t.Fatalf("8 flows into a 5 Mb/s 8-packet queue must tail-drop: %+v", bott)
	}
	if got := bott.Delivered + bott.Lost + bott.DroppedQueue + bott.DroppedInboxFull; got > bott.Offered {
		t.Fatalf("link accounting: delivered+dropped %d > offered %d", got, bott.Offered)
	}
	if bott.MaxQueuePkts == 0 {
		t.Fatal("queue occupancy series never saw the standing queue")
	}
	// The queue series is capped by the configured queue depth.
	for _, s := range mon.LinkSeries("l", "r") {
		if s.QueuePkts > 8 {
			t.Fatalf("sampled queue %d exceeds QueuePkts 8", s.QueuePkts)
		}
	}
}

func TestJitterFreeRouterPathIsFIFO(t *testing.T) {
	// On jitter-free, loss-free links, multi-hop forwarding must preserve
	// FIFO order: any reordering through the router chain would surface as
	// receiver loss reports and retransmissions.
	topo, flows := ParkingLot(3,
		netem.LinkConfig{Delay: 500, RateMbps: 100, QueuePkts: 4096},
		netem.LinkConfig{Delay: 1500, RateMbps: 100, QueuePkts: 4096},
	)
	flows = AssignPayload(flows, 32<<10)
	flows = Staggered(flows, 0, 5_000)
	rep, _, err := Run(Spec{Name: "fifo", Seed: 7, Topology: topo, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("parking-lot campaign failed: %s", rep)
	}
	if rep.Summary.RetransTotal != 0 {
		t.Fatalf("FIFO violation: %d retransmissions on a clean path", rep.Summary.RetransTotal)
	}
	for _, f := range rep.Flows {
		if f.Retrans != 0 || f.Timeouts != 0 {
			t.Fatalf("flow %d: retrans=%d timeouts=%d on a clean path", f.ID, f.Retrans, f.Timeouts)
		}
	}
}

// pinnedSmallDumbbellDigest is the replay fingerprint of smallDumbbell(3).
// It must never change on refactors; an intentional behavior change must
// update it in the same commit with an explanation.
const pinnedSmallDumbbellDigest uint64 = 0x4e27470ac8ff3326

func TestSmallDumbbellReplayDigestPinned(t *testing.T) {
	r1, _, err := Run(smallDumbbell(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Run(smallDumbbell(3))
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same seed must produce byte-identical CampaignReport JSONL")
	}
	if d := r1.Digest(); d != pinnedSmallDumbbellDigest {
		t.Fatalf("campaign digest = %#016x, pinned %#016x — protocol or report behavior changed",
			d, pinnedSmallDumbbellDigest)
	}
	// A different seed must explore a different trajectory.
	r3, _, err := Run(smallDumbbell(4))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Digest() == pinnedSmallDumbbellDigest {
		t.Fatal("different seed produced the pinned digest")
	}
}

// pinnedCISetDigests are the replay fingerprints of the CISet campaigns:
// the cross-commit gate on the 100-flow four-law dumbbell and the 32-flow
// star, re-pinned under the same rule as pinnedSmallDumbbellDigest.
var pinnedCISetDigests = map[string]uint64{
	"dumbbell100": 0x56cf5e3c2434421d,
	"star32":      0x381120a8dbc394a8,
}

func TestCISetDigestsPinned(t *testing.T) {
	for _, spec := range CISet() {
		rep, _, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !rep.OK {
			t.Errorf("%s: campaign did not complete: %s", spec.Name, rep)
		}
		if d, want := rep.Digest(), pinnedCISetDigests[spec.Name]; d != want {
			t.Errorf("%s: campaign digest = %#016x, pinned %#016x — protocol or report behavior changed",
				spec.Name, d, want)
		}
	}
}

// TestScriptedEventPerturbsCampaign is the pins' self-test: a behavior
// change must move the digest, or the gates above could pass anything.
func TestScriptedEventPerturbsCampaign(t *testing.T) {
	spec := smallDumbbell(3)
	base, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Events = []chaos.Event{{At: 20_000, Do: func(nw *netem.Net) {
		nw.UpdatePath("l", "r", func(c *netem.LinkConfig) { c.Loss = 0.2 })
	}}}
	perturbed, _, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Digest() == base.Digest() {
		t.Fatal("a 20% mid-run loss episode must change the campaign trajectory")
	}
	if !perturbed.OK {
		t.Fatalf("flows must still recover through the loss: %s", perturbed)
	}
	if perturbed.Summary.RetransTotal <= base.Summary.RetransTotal {
		t.Fatalf("loss episode: retrans %d → %d, expected an increase",
			base.Summary.RetransTotal, perturbed.Summary.RetransTotal)
	}
}

func TestRunRejectsInvalidSpecs(t *testing.T) {
	if _, _, err := Run(Spec{Name: "nil-topo"}); err == nil {
		t.Fatal("nil topology must be rejected")
	}
	topo, _ := Dumbbell(1, netem.LinkConfig{}, netem.LinkConfig{})
	if _, _, err := Run(Spec{Name: "bad-flow", Topology: topo,
		Flows: []FlowSpec{{Src: "s0", Dst: "ghost"}}}); err == nil {
		t.Fatal("unknown flow endpoint must be rejected")
	}
}

func TestCISetSpecsAreWellFormed(t *testing.T) {
	specs := CISet()
	if len(specs) != 2 {
		t.Fatalf("CISet has %d specs", len(specs))
	}
	if specs[0].Name != "dumbbell100" || len(specs[0].Flows) < 100 {
		t.Fatalf("first CI campaign must be the ≥100-flow dumbbell, got %q with %d flows",
			specs[0].Name, len(specs[0].Flows))
	}
	ccs := map[string]bool{}
	for _, f := range specs[0].Flows {
		ccs[f.CC] = true
	}
	if len(ccs) < 3 {
		t.Fatalf("dumbbell100 must mix CC laws, got %v", ccs)
	}
	for _, s := range specs {
		if err := s.Topology.validate(s.Flows); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}
