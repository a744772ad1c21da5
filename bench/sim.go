package main

import (
	"fmt"
	"time"

	"udt/internal/campaign"
	"udt/internal/netem"
)

// sim_dumbbell: the paper's §5 half. Sixteen native-law flows of 4 MB each
// start together (a flash crowd) through a dumbbell — 100 Mb/s access
// links, a 100 Mb/s bottleneck with 10 ms one-way delay, a 256-packet
// queue and 1e-4 random loss — on internal/campaign's virtual clock. The
// real engines run; internal/netem, chaos.Peer and internal/campaign do the
// work; nothing depends on the wall clock except how long it takes.
//
// One campaign is bit-identical per seed but not steady across seeds: four
// or five random losses decide which flow finishes last, and the makespan
// goodput moves by ±4 %. So a run is several campaigns, each with its own
// seed derived from -seed, and every metric is the median over them — the
// virtual-clock counterpart of the wall-clock workloads' one-second slices.
// The first campaign is then replayed and must reproduce its digest.

const (
	simFlows   = 16
	simPayload = 4 << 20
	simMSS     = 1472
	simBufPkts = 1024
)

// simSpec is the benchmark's own campaign. It is defined here and not taken
// from campaign.CISet, which later changes may edit.
func simSpec(seed int64, payload int) campaign.Spec {
	topo, flows := campaign.Dumbbell(simFlows,
		netem.LinkConfig{Delay: 500, RateMbps: 100, QueuePkts: 64},
		netem.LinkConfig{Delay: 10000, RateMbps: 100, QueuePkts: 256, Loss: 1e-4})
	flows = campaign.FlashCrowd(campaign.AssignPayload(flows, payload), 0)
	return campaign.Spec{
		Name: "bench-dumbbell", Seed: seed, Topology: topo, Flows: flows,
		MSS: simMSS, SndBufPkts: simBufPkts, RcvBufPkts: simBufPkts,
	}
}

// simCampaigns is how many campaigns a run of the given window makes: one
// per 2.5 s of window asked for, so the same arguments always run the same
// campaigns whatever the machine's speed.
func simCampaigns(window time.Duration) int {
	return max(3, min(16, int(window/(2500*time.Millisecond))))
}

// simRun is what one campaign repetition measured.
type simRun struct {
	seed    int64
	digest  uint64
	wallNs  int64
	cpuNs   int64
	bytes   int64 // payload delivered, all flows
	hopPkts int64 // Σ LinkReport.Offered
	// endpointPkts is Σ Offered over the links leaving a flow endpoint:
	// every packet the 32 engines put on the wire, retransmissions and
	// control included.
	endpointPkts int64

	goodputMbps float64   // Σ RecvBytes×8 / max DoneAtUs
	flowsPerS   float64   // flows / virtual second
	doneUs      []float64 // per-flow completion time, virtual µs, sorted
	jain        float64
	ackP99Us    float64 // max over flows of FlowReport.P99AckUs
	retrans     int64
	queueDrops  int64
	lossDrops   int64
	flowsOK     int
}

// runCampaign runs one campaign and derives every number from its flow and
// link rows — not from Report.Summary, so a later change to the summary
// cannot redefine the benchmark's metrics.
func runCampaign(spec campaign.Spec, log *spanLog, op int64) (simRun, error) {
	r := simRun{seed: spec.Seed}
	cpu0, t0 := cpuNow(), time.Now()
	h := log.begin("campaign.Run", 0, op)
	rep, _, err := campaign.Run(spec)
	log.end(h)
	r.wallNs, r.cpuNs = int64(time.Since(t0)), cpuNow()-cpu0
	if err != nil {
		return r, err
	}

	r.digest = rep.Digest()
	var maxDone int64
	var rates []float64
	for _, f := range rep.Flows {
		r.bytes += int64(f.RecvBytes)
		maxDone = max(maxDone, f.DoneAtUs)
		if f.RecvOK && f.DoneAtUs >= 0 {
			r.flowsOK++
		}
		r.doneUs = append(r.doneUs, float64(f.DoneAtUs-f.StartAtUs))
		rates = append(rates, f.GoodputMbps)
		r.ackP99Us = max(r.ackP99Us, float64(f.P99AckUs))
		r.retrans += f.Retrans
	}
	leaf := map[string]bool{}
	for _, f := range spec.Flows {
		leaf[f.Src], leaf[f.Dst] = true, true
	}
	for _, l := range rep.Links {
		if leaf[l.From] {
			r.endpointPkts += l.Offered
		}
		r.hopPkts += l.Offered
		r.queueDrops += l.DroppedQueue
		r.lossDrops += l.Lost
	}
	if !rep.OK {
		return r, fmt.Errorf("campaign seed %d: report not OK (timed out %v, misrouted %d, unroutable %d)", spec.Seed, rep.TimedOut, rep.Misrouted, rep.Unroutable)
	}
	r.doneUs = sortedCopy(r.doneUs)
	r.goodputMbps = float64(r.bytes) * 8 / float64(maxDone)
	r.flowsPerS = float64(len(rep.Flows)) / (float64(maxDone) / 1e6)
	r.jain = jain(rates)
	return r, nil
}

// eachRun applies f to every run.
func eachRun(runs []simRun, f func(simRun) float64) []float64 {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, f(r))
	}
	return xs
}

func runSim(o runOpts) (*outcome, error) {
	out := newOutcome()
	log := o.tr.log()

	// Set-up: build the spec and run small campaigns of the same shape (64 KiB
	// a flow, ≈30 ms each) for warmFor, which brings the heap and the packet
	// pools to their working state.
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		for k := 0; time.Since(t0) < warmFor; k++ {
			if _, err := runCampaign(simSpec(subSeed(o.seed, fmt.Sprintf("sim-warm/%d/%d", i, k)), simPayload/64), nil, 0); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	n := simCampaigns(o.window)
	runs := make([]simRun, 0, n+1)
	for i := 0; i <= n; i++ {
		seed := subSeed(o.seed, fmt.Sprintf("sim/%d", i%n)) // the last one replays the first
		r, err := runCampaign(simSpec(seed, simPayload), log, int64(i))
		if err != nil {
			out.attempted += simFlows
			out.failed += simFlows
			return out, err
		}
		out.attempted += simFlows
		if bad := simFlows - r.flowsOK; bad > 0 {
			out.failed += int64(bad)
			out.errs = append(out.errs, fmt.Sprintf("campaign seed %d: %d of %d flows did not deliver their payload intact", seed, bad, simFlows))
		}
		runs = append(runs, r)
	}
	if first, replay := runs[0], runs[n]; first.digest != replay.digest {
		out.fail("campaign seed %d: replay digest %x differs from %x — the simulation is not deterministic", first.seed, replay.digest, first.digest)
	}

	// Every virtual-time and counted number is the median over the n
	// campaigns. Cost is the one sim number on the wall clock, and there
	// interference only ever adds: the fastest of the n+1 runs is the
	// steadiest estimate.
	med := func(f func(simRun) float64) float64 { return median(eachRun(runs[:n], f)) }
	fastest := func(f func(simRun) float64) float64 { return sortedCopy(eachRun(runs, f))[0] }
	wallPerPkt := func(r simRun) float64 { return float64(r.wallNs) / float64(r.hopPkts) }
	out.speed["goodput_mbps"] = med(func(r simRun) float64 { return r.goodputMbps })
	out.speed["cpu_ns_per_byte"] = fastest(func(r simRun) float64 { return float64(r.cpuNs) / float64(r.bytes) })
	out.speed["msgs_per_s"] = med(func(r simRun) float64 { return r.flowsPerS })
	out.speed["msg_rtt_p50_us"] = med(func(r simRun) float64 { return percentile(r.doneUs, 50) })
	out.speed["msg_rtt_p90_us"] = med(func(r simRun) float64 { return percentile(r.doneUs, 90) })
	out.e2e["pkts_per_msg"] = med(func(r simRun) float64 { return float64(r.endpointPkts) / simFlows })
	out.e2e["sim_goodput_mbps"] = out.speed["goodput_mbps"]
	out.e2e["sim_jain_index"] = med(func(r simRun) float64 { return r.jain })
	out.e2e["sim_ack_p99_us"] = med(func(r simRun) float64 { return r.ackP99Us })
	out.e2e["setup_s"] = median(setupS)
	out.headline = 1 / fastest(wallPerPkt)
	for _, r := range runs {
		out.cpuNs += float64(r.cpuNs)
	}
	out.notes = append(out.notes,
		"fabric: simulated netem dumbbell on the virtual clock; goodput, msgs/s and message latency are in virtual time, not a real link",
		fmt.Sprintf("%d campaigns (seeds derived from -seed) + 1 replay, digest %x reproduced; a message is one 4 MB flow, its latency the flow's completion time (16 per campaign)", n, runs[0].digest),
		fmt.Sprintf("wall %.0f ms per campaign, %.0f ns per hop-packet (fastest %.0f)", med(func(r simRun) float64 { return float64(r.wallNs) / 1e6 }), med(wallPerPkt), fastest(wallPerPkt)))

	if o.tr != nil {
		// The campaign counters are those of the first campaign — one seed,
		// so they repeat exactly from run to run of the same -seed.
		r := runs[0]
		out.layer["campaign.hop_pkts"] = float64(r.hopPkts)
		out.layer["netem.queue_drops"] = float64(r.queueDrops)
		out.layer["netem.loss_drops"] = float64(r.lossDrops)
		out.layer["campaign.retrans_total"] = float64(r.retrans)
		out.layer["campaign.jain_index"] = r.jain
		out.layer["campaign.ack_p99_us"] = r.ackP99Us
		out.layer["campaign.run_wall_ms"] = fastest(func(r simRun) float64 { return float64(r.wallNs) / 1e6 })
		out.layer["campaign.wall_ns_per_pkt"] = fastest(wallPerPkt)
		for _, r := range runs {
			out.calls["netem_hops"] += float64(r.hopPkts)
		}
	}
	return out, nil
}
