package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// shadowWindow is how long the ungated two-P shadow of a bulk workload
// measures.
const shadowWindow = 4 * time.Second

// priceList is the cost model: each traced call count and the probes that
// price one such call. What it cannot price — system calls, the scheduler,
// the pool's wake-ups, the benchmark's own loop — is the gap
// model.accounted_cpu_share leaves below 1, and the case for tracing inside
// the program.
var priceList = []struct {
	call   string
	probes []string
}{
	{"data_pkts_sent", []string{"core.send_path_ns"}},
	{"data_pkts_recv", []string{"core.recv_path_ns"}},
	{"acks", []string{"core.handle_ack_ns", "packet.ack_codec_ns"}},
	{"payload_kb", []string{"core.sndbuf_write_ns_per_kb", "core.rcvbuf_read_ns_per_kb"}},
	{"seals", []string{"secure.seal_data_ns"}},
	{"opens", []string{"secure.open_data_ns"}},
	{"ctrl_seals", []string{"secure.seal_ctrl_ns", "secure.open_ctrl_ns"}},
	{"mux_dispatch", []string{"mux.dispatch_256flows_ns"}},
	{"pipe_hops", []string{"fabric.pipe_hop_ns"}},
	{"conns", []string{"core.new_conn_ns", "core.new_conn_ns", "packet.handshake_codec_ns", "packet.handshake_codec_ns", "mux.register_unregister_ns"}},
	{"netem_hops", []string{"netem.hop_ns"}},
}

// runTraced is the traced run of one workload: an untraced reference window
// and a traced one of half the length each, every probe, and for the bulk
// workloads the two-P shadow. End-to-end metrics are never taken from it.
func runTraced(w *workloadDef, o options, window time.Duration) (*outcome, error) {
	half := max(window/2, 2*sliceLen)
	ref, err := w.run(runOpts{seed: o.seed, window: half, setups: 1})
	if err != nil {
		return ref, fmt.Errorf("untraced reference: %w", err)
	}
	tr := newTracer()
	out, err := w.run(runOpts{seed: o.seed, window: half, setups: 1, tr: tr})
	if err != nil {
		return out, fmt.Errorf("traced window: %w", err)
	}
	out.attempted += ref.attempted
	out.failed += ref.failed
	out.errs = append(out.errs, ref.errs...)

	for k, v := range ref.speed { // the speed metrics are untraced measurements
		out.layer[k] = v
	}
	probes := runProbes(tr)
	for k, v := range probes {
		out.layer[k] = v
	}
	if strings.HasPrefix(w.name, "bulk_") {
		runtime.GOMAXPROCS(2)
		shadow := newOutcome()
		r, err := measureBulk(runOpts{seed: o.seed, window: shadowWindow, setups: 1}, w.name == "bulk_aead", shadow)
		runtime.GOMAXPROCS(1)
		if err != nil {
			return out, fmt.Errorf("two-P shadow: %w", err)
		}
		out.layer["udt.bulk_2p_goodput_mbps"] = sliceMedian(r.rate)
		out.layer["udt.bulk_2p_cpu_ns_per_byte"] = sliceMedian(r.cpu)
		out.failed += shadow.failed
		out.errs = append(out.errs, shadow.errs...)
	}

	var accounted float64
	for _, p := range priceList {
		for _, probe := range p.probes {
			accounted += out.calls[p.call] * probes[probe]
		}
	}
	out.layer["model.accounted_cpu_share"] = ratio(accounted, out.cpuNs)
	out.layer["trace.overhead_pct"] = 100 * ratio(ref.headline-out.headline, ref.headline)

	spans := tr.all()
	path := filepath.Join(o.traceDir, w.name+".spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return out, fmt.Errorf("span file: %w", err)
	}
	self := selfByName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		if !strings.HasPrefix(name, "probe:") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s %.1fms", name, float64(self[name])/1e6)
	}
	out.notes = append(out.notes,
		fmt.Sprintf("traced window %v after an untraced reference window of the same length; headline %.6g traced vs %.6g untraced", half, out.headline, ref.headline),
		fmt.Sprintf("%d spans → %s; self time by span: %s", len(spans), path, strings.Join(names, ", ")))
	return out, nil
}
