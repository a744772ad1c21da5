// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the stack would see, and a separate traced
// run that prices every layer. README.md in this directory says what each
// number means, which layer should move it, and how steady it is.
//
// The driver's contract (BENCHMARK.json at the repository root):
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// prints as its last line one JSON object {correct, attempted, failed,
// metrics}: every end-to-end metric with --trace 0, every per-layer metric
// with --trace 1. Without --workload all five run in turn; -aa N runs the
// A/A repeatability check behind the regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadDef is one row of the workload table.
type workloadDef struct {
	name   string
	why    string   // one line, mirrored in BENCHMARK.json
	fabric string   // what the traffic crosses; never a real link
	emits  []string // the end-to-end metrics this workload measures: its row, and no other
	run    func(runOpts) (*outcome, error)
}

var workloads = []workloadDef{
	{"bulk_clear", "one default-Config flow streaming 1 MiB blocks over UDP loopback: socket I/O, engine and buffers do the work (the paper's Fig. 14)",
		"host loopback (UDP 127.0.0.1)", []string{"allocs_per_msg", "pkts_per_msg", "setup_s"},
		func(o runOpts) (*outcome, error) { return runBulk(o, false) }},
	{"bulk_aead", "bulk_clear with PSK+AEAD: internal/secure seals and opens every packet; bulk_clear is its must-not-move twin",
		"host loopback (UDP 127.0.0.1)", []string{"allocs_per_msg", "pkts_per_msg", "setup_s"},
		func(o runOpts) (*outcome, error) { return runBulk(o, true) }},
	{"rr_flows", "256 mux flows over an in-memory pipe, 512 B request/echo: per-packet cost of mux dispatch, pool wake-up and 512 timers, no kernel, no crypto",
		"in-memory fabric.Pipe", []string{"heap_bytes_per_flow", "setup_s"}, runRR},
	{"conn_churn", "dial, 1 KiB echo, close over an in-memory pipe with default Config: handshake, per-connection allocation, mux register/release",
		"in-memory fabric.Pipe", []string{"alloc_bytes_per_conn", "allocs_per_msg", "pkts_per_msg", "setup_s"}, runChurn},
	{"sim_dumbbell", "16 native flows through a lossy 100 Mb/s dumbbell on the virtual clock: efficiency, fairness and ack-latency tail, bit-identical per seed; netem and campaign do the work",
		"simulated netem topology (virtual clock)", []string{"pkts_per_msg", "sim_goodput_mbps", "sim_jain_index", "sim_ack_p99_us", "setup_s"}, runSim},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// workloadNames is the workload asked for, or all five when none was.
func workloadNames(asked string) []string {
	if asked != "" {
		return []string{asked}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// contractResult is the object the driver reads off the last line.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceDir string
	aa       int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for payload bytes, handshake randomness and campaign seeds")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measurement window in seconds (each wall-clock workload)")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "where the traced run writes <workload>.spans.jsonl")
	flag.IntVar(&o.aa, "aa", 0, "run the suite N times as interleaved A/B of this same binary and judge every metric against its bound")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if o.aa > 0 {
		os.Exit(runAA(o))
	}
	printEnv()
	ok := true
	for _, name := range workloadNames(o.workload) {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		if !runOne(w, o) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload as the contract asks and prints its result
// line. It reports whether every output check passed.
func runOne(w *workloadDef, o options) bool {
	// One P for everything measured: on a two-core box the second P buys
	// contention, not speed (README, "noise findings").
	runtime.GOMAXPROCS(1)
	fmt.Printf("== %s (seed %d, %d s window, GOMAXPROCS %d) over %s\n", w.name, o.seed, o.seconds, runtime.GOMAXPROCS(0), w.fabric)
	window := time.Duration(o.seconds) * time.Second
	var out *outcome
	var err error
	var defs []metricDef
	var values map[string]float64
	if o.trace == 0 {
		out, err = w.run(runOpts{seed: o.seed, window: window, setups: setupRounds})
		if out != nil {
			defs, values = endToEnd, out.e2e
		}
	} else {
		out, err = runTraced(w, o, window)
		if out != nil {
			defs, values = perLayer, out.layer
		}
	}
	if err != nil {
		fmt.Printf("%s: FAILED: %v\n", w.name, err)
		if out == nil {
			return false
		}
		out.fail("%v", err)
	}
	// A metric written under a name the tables do not declare is a typo
	// that would otherwise print as a silent 0 under the right name. On the
	// untraced run the workload must have measured exactly its own row.
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
	}
	for k := range values {
		if !declared[k] {
			out.fail("metric %s is not in the tables", k)
		}
	}
	if o.trace == 0 {
		for _, d := range defs {
			_, measured := values[d.name]
			switch inRow := emitsMetric(w, d.name); {
			case inRow && !measured:
				out.fail("end-to-end metric %s was not measured", d.name)
			case !inRow && measured:
				out.fail("end-to-end metric %s is not in %s's row", d.name, w.name)
			case !inRow:
				values[d.name] = notMeasured
			}
		}
	}
	for _, n := range out.notes {
		fmt.Printf("   %s\n", n)
	}
	for _, e := range out.errs {
		fmt.Printf("   check failed: %s\n", e)
	}
	res := contractResult{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = contractMetric{Value: v, Unit: d.unit}
		switch {
		case o.trace == 1:
			fmt.Printf("   %-32s %16.6g %s\n", d.name, v, d.unit)
		case emitsMetric(w, d.name):
			fmt.Printf("   %-32s %16.6g %-7s  (%s is better, bound %.3g%%)\n", d.name, v, d.unit, d.better, d.bound*100)
		default:
			fmt.Printf("   %-32s %16s %-7s  (another workload's metric: printed as %d)\n", d.name, "-", d.unit, notMeasured)
		}
	}
	if o.trace == 0 {
		// Measured in the same window, reported, not gated: on this
		// sandbox no wall-clock number repeats within a bound (README).
		// The one-line form is for -aa, which tabulates their spread.
		fmt.Println("   reported, not gated:")
		for _, d := range speedMetrics {
			fmt.Printf("   %-32s %16.6g %-6s  (%s is better)\n", d.name, out.speed[d.name], d.unit, d.better)
		}
		speeds, _ := json.Marshal(out.speed)
		fmt.Printf("ungated %s\n", speeds)
	}
	fmt.Printf("   checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return res.Correct
}

// emitsMetric reports whether the end-to-end metric is in w's row.
func emitsMetric(w *workloadDef, metric string) bool {
	for _, name := range w.emits {
		if name == metric {
			return true
		}
	}
	return false
}

// printEnv records where the numbers were taken and warns when the box is
// not quiet enough to trust them.
func printEnv() {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("env: nproc=%d gomaxprocs=1 (2 only for the udt.bulk_2p_* shadow) kernel=%s go=%s %s/%s\n",
		runtime.NumCPU(), kernel, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		var load float64
		if _, err := fmt.Sscan(string(b), &load); err == nil && load > 1.5 {
			fmt.Printf("WARNING: 1-minute load average is %.2f (> 1.5): wall-clock metrics will be noisier than their bounds assume\n", load)
		}
	}
}
