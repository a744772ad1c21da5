// Command simbench regenerates every table and figure of the paper's
// evaluation on the deterministic network simulator and prints the series
// in paper-style rows.
//
// Usage:
//
//	simbench [-full] [-seed N] [-run id[,id...]] [-trace DIR]
//
// Experiment ids: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
// fig9 fig11 fig12 fig13 syn mimd pacing highspeed multibottleneck, or "all".
// -full runs the paper-scale parameters (1 Gb/s, 100 s, up to 400 flows);
// the default quick scale shrinks rate and duration ~10× while preserving
// every qualitative shape. The real-transport experiments live elsewhere:
// Table 3 and Fig. 14 are bash bench/run.sh --workload bulk_clear [--trace 1],
// Fig. 15 is go test -bench Fig15PacketSize.
//
// With -trace DIR the time-series experiments (fig2, fig4, fig5) rerun with
// per-flow telemetry attached and write one trace CSV per flow per scenario
// into DIR (e.g. fig2_rtt0010ms_udt_f03.csv — see trace.CSVHeader for the
// columns); the printed indices are then recomputed from those traces. The
// traced runs use the same seeds and are behaviourally identical to the
// untraced ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"udt/internal/experiments"
	"udt/internal/trace"
)

// traceDir is the -trace destination; empty disables trace dumping.
var traceDir string

// traceEvery is the telemetry cadence in SYN intervals for -trace runs:
// 100 SYN = 1 s at the default 10 ms SYN, matching the FlowMeter cadence.
const traceEvery = 100

func main() {
	full := flag.Bool("full", false, "paper-scale parameters (slow: minutes)")
	seed := flag.Int64("seed", 1, "simulation seed")
	run := flag.String("run", "all", "comma-separated experiment ids")
	flag.StringVar(&traceDir, "trace", "", "dump per-flow trace CSVs for fig2/fig4/fig5 into this directory")
	flag.Parse()

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(2)
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
	}

	scale := experiments.Quick
	label := "quick (100 Mb/s, 30 s)"
	if *full {
		scale = experiments.Full
		label = "full (1 Gb/s, 100 s)"
	}
	fmt.Printf("# UDT evaluation reproduction — scale: %s, seed %d\n", label, *seed)

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("\n== %s — %s ==\n", e.id, e.title)
		e.fn(scale, *seed)
		fmt.Printf("-- %s done in %v\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

// selectExperiments resolves a -run list to the experiments it names, in
// experimentList order ("all": every one). An id that names none is an
// error, so a typo cannot pass as an experiment that printed nothing.
func selectExperiments(run string) ([]experiment, error) {
	known, valid := map[string]bool{"all": true}, "all"
	for _, e := range experimentList {
		known[e.id] = true
		valid += " " + e.id
	}
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		want[id] = true
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if unknown != nil {
		return nil, fmt.Errorf("unknown experiment id %q (valid: %s)", unknown, valid)
	}
	var selected []experiment
	for _, e := range experimentList {
		if want["all"] || want[e.id] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}

type experiment struct {
	id    string
	title string
	fn    func(experiments.Scale, int64)
}

var experimentList = []experiment{
	{"table1", "Table 1: rate-control increase parameter", runTable1},
	{"table2", "Table 2: disk-to-disk transfer matrix", runTable2},
	{"fig1", "Fig. 1/§5.3: streaming join, TCP vs UDT", runFig1},
	{"fig2", "Fig. 2: Jain fairness index vs RTT", runFig2},
	{"fig3", "Fig. 3: per-flow spread vs concurrency", runFig3},
	{"fig4", "Fig. 4: stability index vs RTT", runFig4},
	{"fig5", "Fig. 5: TCP friendliness index vs RTT", runFig5},
	{"fig6", "Fig. 6: RTT fairness of two UDT flows", runFig6},
	{"fig7", "Fig. 7: flow-control ablation", runFig7},
	{"fig8", "Fig. 8: loss pattern under bursty congestion", runFig8},
	{"fig9", "Fig. 9: loss-list access time", runFig9},
	{"fig11", "Fig. 11: single-flow WAN throughput", runFig11},
	{"fig12", "Fig. 12: three flows sharing one link", runFig12},
	{"fig13", "Fig. 13: small TCP flows vs background UDT", runFig13},
	{"syn", "Ablation: SYN interval trade-off (§3.7)", runSYN},
	{"mimd", "Ablation: UDT AIMD vs SABUL MIMD (§2.3)", runMIMD},
	{"pacing", "Ablation: pacing vs window bursts (§3.2)", runPacing},
	{"highspeed", "Ablation: RTT bias of high-speed TCPs (§5.2)", runHighSpeed},
	{"multibottleneck", "Footnote 3: max-min share across two bottlenecks", runMultiBottleneck},
}

func runMultiBottleneck(s experiments.Scale, seed int64) {
	r := experiments.MultiBottleneck(s, seed)
	fmt.Printf("two-hop UDT flow: %.1f Mb/s (max-min share %.1f, floor = half of that)\n", r.LongFlowMbps, r.MaxMinMbps)
	fmt.Printf("single-hop cross flows: %.1f and %.1f Mb/s\n", r.CrossAMbps, r.CrossBMbps)
}

func runTable1(s experiments.Scale, seed int64) {
	fmt.Printf("%14s  %12s\n", "B (Mb/s)", "inc (pkts)")
	for _, r := range experiments.Table1() {
		fmt.Printf("%14.2f  %12.5f\n", r.BandwidthMbps, r.IncPackets)
	}
}

func runTable2(s experiments.Scale, seed int64) {
	cells := experiments.Table2DiskDisk(s, seed)
	fmt.Printf("%10s %12s  %10s  %14s\n", "from", "to", "Mb/s", "disk limit")
	for _, c := range cells {
		fmt.Printf("%10s %12s  %10.1f  %14.1f\n", c.From, c.To, c.Mbps, c.DiskLimit)
	}
}

func runFig1(s experiments.Scale, seed int64) {
	r := experiments.Fig1StreamJoin(s, seed)
	fmt.Printf("TCP streams: A(100ms)=%.1f Mb/s, B(1ms)=%.1f Mb/s → join %.1f Mb/s\n",
		r.TCPStreamMbps[0], r.TCPStreamMbps[1], r.TCPJoinMbps)
	fmt.Printf("UDT streams: A(100ms)=%.1f Mb/s, B(1ms)=%.1f Mb/s → join %.1f Mb/s\n",
		r.UDTStreamMbps[0], r.UDTStreamMbps[1], r.UDTJoinMbps)
}

func runFig2(s experiments.Scale, seed int64) {
	fmt.Printf("%10s  %8s  %8s\n", "RTT (ms)", "UDT", "TCP")
	if traceDir != "" {
		for _, p := range experiments.Fig24Traced(s, seed, traceEvery) {
			fmt.Printf("%10.0f  %8.3f  %8.3f\n", p.RTTms, p.UDTJain, p.TCPJain)
			dumpRings("fig2", p.RTTms, "udt", p.UDTTraces)
			dumpRings("fig2", p.RTTms, "tcp", p.TCPTraces)
		}
		return
	}
	for _, p := range experiments.Fig2Fairness(s, seed) {
		fmt.Printf("%10.0f  %8.3f  %8.3f\n", p.RTTms, p.UDT, p.TCP)
	}
}

// dumpRings writes one CSV per flow ring into traceDir, named
// <figure>_rtt<RTT>ms_<proto>_f<flow>.csv.
func dumpRings(fig string, rttMs float64, proto string, rings []*trace.Ring) {
	for i, g := range rings {
		name := fmt.Sprintf("%s_rtt%04.0fms_%s_f%02d.csv", fig, rttMs, proto, i)
		f, err := os.Create(filepath.Join(traceDir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteCSV(f, g.Snapshot()); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: write %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func runFig3(s experiments.Scale, seed int64) {
	fmt.Printf("%8s  %10s  %14s  %8s\n", "flows", "RTT (ms)", "stddev (Mb/s)", "util %")
	for _, p := range experiments.Fig3Concurrency(s, seed) {
		fmt.Printf("%8d  %10.0f  %14.2f  %8.1f\n", p.Flows, p.RTTms, p.StdDevMbps, p.UtilPct)
	}
}

func runFig4(s experiments.Scale, seed int64) {
	fmt.Printf("%10s  %8s  %8s\n", "RTT (ms)", "UDT", "TCP")
	if traceDir != "" {
		for _, p := range experiments.Fig24Traced(s, seed, traceEvery) {
			fmt.Printf("%10.0f  %8.3f  %8.3f\n", p.RTTms, p.UDTStability, p.TCPStability)
			dumpRings("fig4", p.RTTms, "udt", p.UDTTraces)
			dumpRings("fig4", p.RTTms, "tcp", p.TCPTraces)
		}
		return
	}
	for _, p := range experiments.Fig4Stability(s, seed) {
		fmt.Printf("%10.0f  %8.3f  %8.3f\n", p.RTTms, p.UDT, p.TCP)
	}
}

func runFig5(s experiments.Scale, seed int64) {
	fmt.Printf("%10s  %8s  %14s  %12s\n", "RTT (ms)", "T", "TCP w/ UDT", "fair share")
	if traceDir != "" {
		for _, p := range experiments.Fig5Traced(s, seed, traceEvery) {
			fmt.Printf("%10.0f  %8.3f  %14.2f  %12.2f\n", p.RTTms, p.T, p.TCPWithMbps, p.FairMbps)
			dumpRings("fig5", p.RTTms, "mixed", p.WithTraces)
			dumpRings("fig5", p.RTTms, "tcponly", p.AloneTraces)
		}
		return
	}
	for _, p := range experiments.Fig5Friendliness(s, seed) {
		fmt.Printf("%10.0f  %8.3f  %14.2f  %12.2f\n", p.RTTms, p.T, p.TCPWithMbps, p.FairMbps)
	}
}

func runFig6(s experiments.Scale, seed int64) {
	fmt.Printf("%10s  %10s\n", "RTT2 (ms)", "ratio")
	for _, p := range experiments.Fig6RTTFairness(s, seed) {
		fmt.Printf("%10.0f  %10.3f\n", p.RTT2ms, p.Ratio)
	}
}

func runFig7(s experiments.Scale, seed int64) {
	r := experiments.Fig7FlowControl(s, seed)
	fmt.Printf("loss with FC: %d pkts; without FC: %d pkts\n", r.LossWithFC, r.LossWithoutFC)
	fmt.Printf("%6s  %10s  %12s\n", "t (s)", "with FC", "without FC")
	for i := range r.WithFC {
		wo := 0.0
		if i < len(r.WithoutFC) {
			wo = r.WithoutFC[i]
		}
		fmt.Printf("%6d  %10.1f  %12.1f\n", i+1, r.WithFC[i], wo)
	}
}

func runFig8(s experiments.Scale, seed int64) {
	sizes := experiments.Fig8LossPattern(s, seed)
	var max, total int64
	for _, n := range sizes {
		total += n
		if n > max {
			max = n
		}
	}
	fmt.Printf("%d loss events, %d packets lost, largest event %d packets\n", len(sizes), total, max)
	fmt.Printf("first events: ")
	for i, n := range sizes {
		if i >= 20 {
			fmt.Printf("...")
			break
		}
		fmt.Printf("%d ", n)
	}
	fmt.Println()
}

func runFig9(s experiments.Scale, seed int64) {
	st := experiments.Fig9LossListAccess(experiments.Fig8LossPattern(s, seed))
	fmt.Printf("%d operations: median %.0f ns, p99 %.0f ns, max %.0f ns\n",
		st.Ops, st.MedianNs, st.P99Ns, st.MaxNs)
}

func runFig11(s experiments.Scale, seed int64) {
	fmt.Printf("%20s  %10s  %10s  %12s\n", "path", "UDT Mb/s", "TCP Mb/s", "paper UDT")
	for _, p := range experiments.Fig11SingleFlow(s, seed) {
		fmt.Printf("%20s  %10.1f  %10.1f  %12.0f\n", p.Path.Name, p.UDTMbps, p.TCPMbps, p.PaperScaled(s))
	}
}

func runFig12(s experiments.Scale, seed int64) {
	r := experiments.Fig12SharedLink(s, seed)
	fmt.Printf("UDT: local=%.1f, 16ms=%.1f, 110ms=%.1f Mb/s (paper ≈325 each)\n",
		r.UDTMbps[0], r.UDTMbps[1], r.UDTMbps[2])
	fmt.Printf("TCP: local=%.1f, 16ms=%.1f, 110ms=%.1f Mb/s (paper 754/150/27)\n",
		r.TCPMbps[0], r.TCPMbps[1], r.TCPMbps[2])
}

func runFig13(s experiments.Scale, seed int64) {
	fmt.Printf("%10s  %16s\n", "UDT flows", "TCP agg (Mb/s)")
	for _, p := range experiments.Fig13SmallTCP(s, seed) {
		fmt.Printf("%10d  %16.1f\n", p.UDTFlows, p.TCPAggMbps)
	}
}

func runSYN(s experiments.Scale, seed int64) {
	fmt.Printf("%10s  %12s  %14s\n", "SYN (ms)", "solo Mb/s", "friendliness")
	for _, p := range experiments.AblationSYN(s, seed) {
		fmt.Printf("%10.0f  %12.1f  %14.3f\n", p.SYNms, p.SoloMbps, p.Friendliness)
	}
}

func runMIMD(s experiments.Scale, seed int64) {
	r := experiments.AblationMIMD(s, seed)
	fmt.Printf("late-joiner fairness (Jain): AIMD=%.3f, MIMD=%.3f\n", r.AIMDJain, r.MIMDJain)
}

func runPacing(s experiments.Scale, seed int64) {
	r := experiments.AblationPacing(s, seed)
	fmt.Printf("UDT (paced):  queue %.1f pkts, drops %.3f%%, %.1f Mb/s\n", r.UDTMeanQueue, r.UDTDropPct, r.UDTMbps)
	fmt.Printf("TCP (bursty): queue %.1f pkts, drops %.3f%%, %.1f Mb/s\n", r.TCPMeanQueue, r.TCPDropPct, r.TCPMbps)
}

func runHighSpeed(s experiments.Scale, seed int64) {
	fmt.Printf("%12s  %22s\n", "protocol", "long/short RTT ratio")
	for _, p := range experiments.AblationHighSpeed(s, seed) {
		fmt.Printf("%12s  %22.3f\n", p.Protocol, p.Ratio)
	}
}
