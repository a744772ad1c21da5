package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"udt/internal/netem"
)

// FlowReport is one flow's outcome.
type FlowReport struct {
	ID        int    `json:"id"`
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	CC        string `json:"cc"`
	StartAtUs int64  `json:"start_at_us"`
	// DoneAtUs is the first virtual instant both ends were finished; -1 when
	// the flow never completed.
	DoneAtUs  int64 `json:"done_at_us"`
	SentBytes int   `json:"sent_bytes"`
	RecvBytes int   `json:"recv_bytes"`
	RecvOK    bool  `json:"recv_ok"`
	// GoodputMbps is the delivered rate over the flow's own lifetime
	// (RecvBytes·8/(DoneAt−StartAt)); 0 for unfinished flows.
	GoodputMbps float64 `json:"goodput_mbps"`
	// P99AckUs is the flow's 99th-percentile write→acked latency, µs.
	P99AckUs int64 `json:"p99_ack_us"`
	Retrans  int64 `json:"retrans"`
	Timeouts int64 `json:"timeouts"`
	Broken   bool  `json:"broken"`
}

// LinkReport is one link direction's outcome: the fabric's impairment
// counters plus the monitor's peak queue occupancy.
type LinkReport struct {
	From             string `json:"from"`
	To               string `json:"to"`
	Offered          int64  `json:"offered"`
	Delivered        int64  `json:"delivered"`
	Lost             int64  `json:"lost"`
	DroppedQueue     int64  `json:"dropped_queue"`
	DroppedInboxFull int64  `json:"dropped_inbox"`
	MaxQueuePkts     int    `json:"max_queue_pkts"`
	Samples          int    `json:"samples"`
}

// CCGoodput aggregates goodput for one congestion-control law.
type CCGoodput struct {
	CC      string  `json:"cc"`
	Flows   int     `json:"flows"`
	AggMbps float64 `json:"agg_mbps"`
}

// Summary is the campaign's headline numbers.
type Summary struct {
	Flows   int `json:"flows"`
	FlowsOK int `json:"flows_ok"`
	// AggGoodputMbps sums the per-flow lifetime goodputs.
	AggGoodputMbps float64 `json:"agg_goodput_mbps"`
	MinFlowMbps    float64 `json:"min_flow_mbps"`
	MaxFlowMbps    float64 `json:"max_flow_mbps"`
	// JainIndex is Jain's fairness index over the per-flow goodputs:
	// (Σx)²/(n·Σx²), 1.0 = perfectly fair.
	JainIndex float64 `json:"jain_index"`
	// P99AckUs is the worst per-flow 99th-percentile write→acked latency,
	// µs: the max of the flows' own p99s, not a percentile of the pooled
	// samples.
	P99AckUs     int64 `json:"p99_ack_us"`
	RetransTotal int64 `json:"retrans_total"`
	// CCGoodput breaks aggregate goodput down per law, sorted by name.
	CCGoodput []CCGoodput `json:"cc_goodput"`
}

// Report is one campaign's machine-readable outcome. Field order is fixed
// by the struct definitions and all slices are deterministically ordered,
// so two same-seed runs produce byte-identical JSONL and equal Digests.
type Report struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	ElapsedUs int64  `json:"elapsed_us"`
	OK        bool   `json:"ok"`
	TimedOut  bool   `json:"timed_out"`
	// Misrouted counts datagrams that reached a leaf carrying another
	// node's index; Unroutable counts datagrams a router could not forward.
	// Either nonzero indicates a topology/routing bug and fails the run.
	Misrouted  int64        `json:"misrouted"`
	Unroutable int64        `json:"unroutable"`
	Flows      []FlowReport `json:"-"`
	Links      []LinkReport `json:"-"`
	Summary    Summary      `json:"-"`
}

// jsonlRow wraps each JSONL line with its row type.
type jsonlRow struct {
	Type string `json:"type"`
}

// WriteJSONL emits the report as JSON Lines: one campaign header row, one
// row per flow, one per link direction, and a summary row — the format
// downstream tooling (and the Digest) consumes.
func (r *Report) WriteJSONL(w io.Writer) error {
	type campaignRow struct {
		jsonlRow
		*Report
	}
	type flowRow struct {
		jsonlRow
		FlowReport
	}
	type linkRow struct {
		jsonlRow
		LinkReport
	}
	type summaryRow struct {
		jsonlRow
		Summary
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(campaignRow{jsonlRow{"campaign"}, r}); err != nil {
		return err
	}
	for i := range r.Flows {
		if err := enc.Encode(flowRow{jsonlRow{"flow"}, r.Flows[i]}); err != nil {
			return err
		}
	}
	for i := range r.Links {
		if err := enc.Encode(linkRow{jsonlRow{"link"}, r.Links[i]}); err != nil {
			return err
		}
	}
	return enc.Encode(summaryRow{jsonlRow{"summary"}, r.Summary})
}

// Digest returns the FNV-64a hash of the report's JSONL bytes — the replay
// fingerprint CI pins: same Spec, same Digest.
func (r *Report) Digest() uint64 {
	h := fnv.New64a()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		panic(err) // in-memory encode of plain structs cannot fail
	}
	h.Write(buf.Bytes()) //nolint:errcheck
	return h.Sum64()
}

// summarize computes rep.Summary from the per-flow reports.
func summarize(rep *Report) {
	s := &rep.Summary
	s.Flows = len(rep.Flows)
	byCC := make(map[string]*CCGoodput)
	var sum, sumSq float64
	first := true
	for i := range rep.Flows {
		f := &rep.Flows[i]
		if f.RecvOK && !f.Broken && f.DoneAtUs >= 0 {
			s.FlowsOK++
		}
		g := f.GoodputMbps
		sum += g
		sumSq += g * g
		if first || g < s.MinFlowMbps {
			s.MinFlowMbps = g
		}
		if first || g > s.MaxFlowMbps {
			s.MaxFlowMbps = g
		}
		first = false
		s.RetransTotal += f.Retrans
		if f.P99AckUs > s.P99AckUs {
			s.P99AckUs = f.P99AckUs
		}
		cc := byCC[f.CC]
		if cc == nil {
			cc = &CCGoodput{CC: f.CC}
			byCC[f.CC] = cc
		}
		cc.Flows++
		cc.AggMbps += g
	}
	s.AggGoodputMbps = sum
	if n := float64(s.Flows); n > 0 && sumSq > 0 {
		s.JainIndex = sum * sum / (n * sumSq)
	}
	names := make([]string, 0, len(byCC))
	for n := range byCC {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.CCGoodput = append(s.CCGoodput, *byCC[n])
	}
}

// CISet returns the campaigns the CI gate runs: a 100-flow mixed-law
// dumbbell with Poisson arrivals and a 32-flow flash-crowd star, both sized
// to finish in seconds of wall time under the virtual clock while still
// saturating their bottleneck queues.
func CISet() []Spec {
	dumbTopo, dumbFlows := Dumbbell(100,
		netem.LinkConfig{Delay: 500, RateMbps: 50, QueuePkts: 64},
		netem.LinkConfig{Delay: 2000, RateMbps: 200, QueuePkts: 128},
	)
	dumbFlows = AssignPayload(dumbFlows, 32<<10)
	dumbFlows = AssignCC(dumbFlows, "native", "ctcp", "bbrlite", "hstcp")
	dumbFlows = PoissonArrivals(dumbFlows, 42, 0, 5_000)

	starTopo, starFlows := Star(32,
		netem.LinkConfig{Delay: 1000, RateMbps: 100, QueuePkts: 64},
	)
	starFlows = AssignPayload(starFlows, 64<<10)
	starFlows = AssignCC(starFlows, "native", "bbrlite")
	starFlows = FlashCrowd(starFlows, 0)

	return []Spec{
		{Name: "dumbbell100", Seed: 1, Topology: dumbTopo, Flows: dumbFlows},
		{Name: "star32", Seed: 1, Topology: starTopo, Flows: starFlows},
	}
}

// String renders the one-line human summary udtchaos prints per campaign.
func (r *Report) String() string {
	return fmt.Sprintf("%-12s ok=%-5v flows=%d/%d agg=%.2f Mb/s jain=%.3f p99ack=%dµs retrans=%d virtual=%.3fs",
		r.Name, r.OK, r.Summary.FlowsOK, r.Summary.Flows, r.Summary.AggGoodputMbps,
		r.Summary.JainIndex, r.Summary.P99AckUs, r.Summary.RetransTotal, float64(r.ElapsedUs)/1e6)
}
