package main

import (
	"fmt"
	"sync"
	"time"

	"udt"
	"udt/internal/timing"
)

// runOpts is what a workload needs to know about one run.
type runOpts struct {
	seed   int64
	window time.Duration
	setups int     // set-ups performed; setup_s is their median
	tr     *tracer // nil on the untraced (end-to-end) run
}

// outcome is what one run of one workload measured.
type outcome struct {
	attempted, failed int64
	errs              []string // first few failed checks, for the report

	e2e   map[string]float64 // the end-to-end (gated) metrics of the workload's row
	speed map[string]float64 // every speed metric: measured, printed, not gated
	layer map[string]float64 // traced per-layer metrics (traced run only)
	calls map[string]float64 // traced call counts the cost model prices
	notes []string           // sample counts, highest supported percentile…

	headline float64 // the workload's own rate, for trace.overhead_pct
	cpuNs    float64 // process CPU spent in the window
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, speed: map[string]float64{}, layer: map[string]float64{}, calls: map[string]float64{}}
}

// fail records one failed output check.
func (o *outcome) fail(format string, a ...any) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, a...))
	}
}

// failures collects failed checks from the goroutines of a workload.
type failures struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

func (f *failures) add(format string, a ...any) {
	f.mu.Lock()
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, a...))
	}
	f.mu.Unlock()
}

func (f *failures) into(o *outcome) {
	f.mu.Lock()
	o.failed += f.n
	o.errs = append(o.errs, f.msgs...)
	f.mu.Unlock()
}

// latencySummary fills the message-latency metrics — like every metric of
// a wall-clock window, the median over the window's slices, here of each
// slice's p50 and p90 — and notes how far up the tail the pooled sample
// reaches. It returns the window's samples in µs, sorted.
func latencySummary(o *outcome, w *sampler, what string, logs ...*latLog) []float64 {
	p50, p90, all := w.latencies(logs...)
	o.speed["msg_rtt_p50_us"] = sliceMedian(p50)
	o.speed["msg_rtt_p90_us"] = sliceMedian(p90)
	if hp := highestPercentile(len(all)); hp > 0 {
		o.notes = append(o.notes, fmt.Sprintf("%s, whole window: n=%d p50=%.1fµs p%g=%.1fµs (the highest percentile with ≥10 samples beyond it)",
			what, len(all), percentile(all, 50), hp, percentile(all, hp)))
	}
	return all
}

// sumStats adds the protocol counters of b into a.
func sumStats(a *udt.Stats, b udt.Stats) {
	a.PktsSent += b.PktsSent
	a.PktsRetrans += b.PktsRetrans
	a.PktsRecv += b.PktsRecv
	a.PktsDup += b.PktsDup
	a.ACKsSent += b.ACKsSent
	a.ACKsRecv += b.ACKsRecv
	a.NAKsSent += b.NAKsSent
	a.NAKsRecv += b.NAKsRecv
	a.Timeouts += b.Timeouts
	a.WindowLimited += b.WindowLimited
	a.PacingDeferred += b.PacingDeferred
	a.SendSyscalls += b.SendSyscalls
	a.GSOSends += b.GSOSends
	a.GSOSegments += b.GSOSegments
	if b.PeakGoroutines > a.PeakGoroutines {
		a.PeakGoroutines = b.PeakGoroutines
	}
	// Socket-wide totals: every flow of a mux reports the same value.
	a.GROReads = max(a.GROReads, b.GROReads)
	a.GROSegments = max(a.GROSegments, b.GROSegments)
	a.GSOEnabled = a.GSOEnabled || b.GSOEnabled
}

// diffStats returns the counters of b minus those of a (b taken later).
func diffStats(a, b udt.Stats) udt.Stats {
	d := b
	d.PktsSent -= a.PktsSent
	d.PktsRetrans -= a.PktsRetrans
	d.PktsRecv -= a.PktsRecv
	d.PktsDup -= a.PktsDup
	d.ACKsSent -= a.ACKsSent
	d.ACKsRecv -= a.ACKsRecv
	d.NAKsSent -= a.NAKsSent
	d.NAKsRecv -= a.NAKsRecv
	d.Timeouts -= a.Timeouts
	d.WindowLimited -= a.WindowLimited
	d.PacingDeferred -= a.PacingDeferred
	d.SendSyscalls -= a.SendSyscalls
	d.GSOSends -= a.GSOSends
	d.GSOSegments -= a.GSOSegments
	d.GROReads -= a.GROReads
	d.GROSegments -= a.GROSegments
	return d
}

// wirePkts is how many protocol packets the endpoints summed in st put on
// the wire: data, retransmissions, ACKs and NAKs.
func wirePkts(st udt.Stats) float64 {
	return float64(st.PktsSent + st.PktsRetrans + st.ACKsSent + st.NAKsSent)
}

// countedWork fills the two gated work counts of a wall-clock window: heap
// allocations and wire packets per message, both ends and the benchmark's
// own loop included, over the whole window. rr_flows does not gate on them:
// there most of both is timer-driven (allocations per flow per SYN tick,
// timer ACKs), so per message they rise as the message rate falls, and a
// slow afternoon spread them by 25–32 % and 10–15 % (README).
func countedWork(o *outcome, st udt.Stats, mem0, mem1 memSnap, msgs float64) {
	o.e2e["allocs_per_msg"] = ratio(float64(mem1.mallocs-mem0.mallocs), msgs)
	o.e2e["pkts_per_msg"] = ratio(wirePkts(st), msgs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stackLayers fills the traced metrics every wall-clock workload derives
// from the stack's own counters over the window: st is the sum over both
// ends of every flow, msgs and conns the operations the window completed.
func stackLayers(o *outcome, st udt.Stats, mem0, mem1 memSnap, msgs, conns float64) {
	pkts := float64(st.PktsSent + st.PktsRetrans)
	ctrl := float64(st.ACKsSent + st.NAKsSent)
	o.layer["udt.send_syscalls_per_pkt"] = ratio(float64(st.SendSyscalls), pkts+ctrl)
	o.layer["udt.gso_segs_per_send"] = ratio(float64(st.GSOSegments), float64(st.GSOSends))
	o.layer["udt.gro_segs_per_read"] = ratio(float64(st.GROSegments), float64(st.GROReads))
	o.layer["udt.peak_goroutines"] = float64(st.PeakGoroutines)
	o.layer["core.retrans_ratio"] = ratio(float64(st.PktsRetrans), pkts)
	o.layer["core.acks_per_data_pkt"] = ratio(float64(st.ACKsSent), float64(st.PktsRecv))
	o.layer["core.naks_sent"] = float64(st.NAKsSent)
	o.layer["core.exp_timeouts"] = float64(st.Timeouts)
	attempts := pkts + float64(st.WindowLimited+st.PacingDeferred)
	o.layer["core.window_limited_share"] = ratio(float64(st.WindowLimited), attempts)
	o.layer["core.pacing_deferred_share"] = ratio(float64(st.PacingDeferred), attempts)

	mallocs := float64(mem1.mallocs - mem0.mallocs)
	o.layer["go.allocs_per_pkt"] = ratio(mallocs, pkts)
	o.layer["go.allocs_per_msg"] = ratio(mallocs, msgs)
	if conns > 0 {
		o.layer["go.allocs_per_conn"] = mallocs / conns
		o.layer["go.gc_cycles_per_conn"] = float64(mem1.numGC-mem0.numGC) / conns
	}
	o.layer["go.gc_cpu_share"] = ratio((mem1.gcCPU-mem0.gcCPU)*1e9, o.cpuNs)

	o.calls["data_pkts_sent"] = pkts
	o.calls["data_pkts_recv"] = float64(st.PktsRecv)
	o.calls["acks"] = float64(st.ACKsRecv)
	o.calls["ctrl_pkts"] = ctrl
}

// ledgerMetric names the per-layer metric of each Table 3 cost center.
var ledgerMetric = map[timing.Bucket]string{
	timing.BucketUDPWrite:    "ledger.udp_write_share",
	timing.BucketUDPRead:     "ledger.udp_read_share",
	timing.BucketTiming:      "ledger.timing_share",
	timing.BucketPack:        "ledger.pack_share",
	timing.BucketUnpack:      "ledger.unpack_share",
	timing.BucketProcessCtrl: "ledger.ctrl_share",
	timing.BucketAppInteract: "ledger.app_share",
	timing.BucketMeasure:     "ledger.measure_share",
	timing.BucketLossProc:    "ledger.loss_share",
	timing.BucketOther:       "ledger.other_share",
}

// newLedger returns the Table 3 ledger a traced session shares between its
// endpoints through Config.Ledger; nil — attribution off — when untraced.
func newLedger(tr *tracer) *timing.Ledger {
	if tr == nil {
		return nil
	}
	return &timing.Ledger{Enabled: true}
}

// ledgerLayers reports each cost center's share of the attributed time.
func ledgerLayers(o *outcome, l *timing.Ledger) {
	for _, b := range timing.Buckets() {
		o.layer[ledgerMetric[b]] = l.Share(b)
	}
}
