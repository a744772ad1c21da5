package main

import (
	"reflect"
	"testing"
	"time"
)

// Same -seed ⇒ identical sim_dumbbell protocol metrics. The test runs the
// benchmark's own campaign at a sixteenth of its payload (same topology,
// flows and loss; a tenth of a second instead of one and a half).
func TestSimSameSeedSameProtocolMetrics(t *testing.T) {
	protocol := func(r simRun) []any {
		return []any{r.digest, r.bytes, r.hopPkts, r.goodputMbps, r.flowsPerS, r.doneUs, r.jain, r.ackP99Us, r.retrans, r.queueDrops, r.lossDrops, r.flowsOK}
	}
	seed := subSeed(11, "sim/0")
	a, err := runCampaign(simSpec(seed, simPayload/16), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCampaign(simSpec(seed, simPayload/16), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(protocol(a), protocol(b)) {
		t.Errorf("same seed, different protocol metrics:\n%v\n%v", protocol(a), protocol(b))
	}
	if a.flowsOK != simFlows || a.bytes != simFlows*simPayload/16 || a.goodputMbps <= 0 || a.hopPkts == 0 {
		t.Errorf("campaign did not deliver: %+v", a)
	}
	c, err := runCampaign(simSpec(subSeed(12, "sim/0"), simPayload/16), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Error("a different seed reproduced the same digest: the seed does not reach the campaign")
	}
}

func TestSimCampaignCountFollowsTheWindowOnly(t *testing.T) {
	for _, c := range []struct {
		s    int
		want int
	}{{1, 3}, {10, 4}, {20, 8}, {60, 16}} {
		if got := simCampaigns(time.Duration(c.s) * time.Second); got != c.want {
			t.Errorf("simCampaigns(%ds) = %d, want %d", c.s, got, c.want)
		}
	}
}
