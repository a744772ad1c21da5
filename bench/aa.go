package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the repeatability check behind the bounds: it runs the suite
// 2N times as interleaved A/B of this same binary, one child process per
// workload run exactly as the driver makes them, repetition i of both sides
// with seed base+i. For every workload and every metric in its row it prints
// both medians and quartiles, each side's spread (interquartile range over
// median — what the driver computes from ten seeds) and the shift between
// the medians, all against the metric's bound. A pair fails when a spread (setup_s excepted,
// as in the contract) or the shift exceeds the bound; "wide" marks a spread
// over a third of it. Rerun this before loosening any bound.
func runAA(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := workloadNames(o.workload)
	printEnv()
	// values[workload][side][metric] = one value per repetition
	values := map[string]*[2]map[string][]float64{}
	for _, n := range names {
		values[n] = &[2]map[string][]float64{{}, {}}
	}
	for i := 0; i < o.aa; i++ {
		for _, n := range names {
			for side := 0; side < 2; side++ {
				res, speeds, err := runChild(exe, n, o.seed+int64(i), o.seconds)
				if err != nil {
					fmt.Printf("aa: %s rep %d side %c: %v\n", n, i, 'A'+side, err)
					return 1
				}
				for m, v := range res.Metrics {
					values[n][side][m] = append(values[n][side][m], v.Value)
				}
				for m, v := range speeds {
					values[n][side][m] = append(values[n][side][m], v)
				}
				fmt.Printf("aa: rep %d/%d %s %c done\n", i+1, o.aa, n, 'A'+side)
			}
		}
	}
	if raw, err := json.Marshal(values); err == nil { // every value of every run, for a closer look
		if err := os.MkdirAll(".bench_build", 0o755); err == nil {
			_ = os.WriteFile(".bench_build/aa-values.json", raw, 0o644) // best effort: the table below is the result
		}
	}
	bad := 0
	fmt.Printf("\n%-13s %-21s %12s %12s %7s %7s %7s %6s  %s\n", "workload", "metric", "median A", "median B", "sprd A", "sprd B", "shift", "bound", "verdict")
	for _, n := range names {
		w := findWorkload(n)
		for _, d := range endToEnd {
			if !emitsMetric(w, d.name) {
				continue // printed as notMeasured on both sides
			}
			a, b := values[n][0][d.name], values[n][1][d.name]
			sa, sb := spread(a), spread(b)
			shift := ratio(median(b)-median(a), median(a))
			if d.better == "higher" {
				shift = -shift
			} // positive shift = B is worse
			verdict := "ok"
			switch {
			case shift > d.bound || -shift > d.bound:
				verdict = "FAIL shift"
			case d.name != "setup_s" && max(sa, sb) > d.bound:
				verdict = "FAIL spread"
			case d.name != "setup_s" && max(sa, sb) > d.bound/3:
				verdict = "wide"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				bad++
			}
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			fmt.Printf("%-13s %-21s %12.6g %12.6g %6.2f%% %6.2f%% %+6.2f%% %5.0f%%  %s   [A %.6g..%.6g  B %.6g..%.6g]\n",
				n, d.name, median(a), median(b), 100*sa, 100*sb, 100*shift, 100*d.bound, verdict, q1a, q3a, q1b, q3b)
		}
	}
	fmt.Printf("\nreported, not gated — what a bound on each would have to cover here:\n")
	for _, n := range names {
		for _, d := range speedMetrics {
			a, b := values[n][0][d.name], values[n][1][d.name]
			fmt.Printf("%-13s %-21s %12.6g %12.6g %6.2f%% %6.2f%% %+6.2f%%\n",
				n, d.name, median(a), median(b), 100*spread(a), 100*spread(b), 100*ratio(median(b)-median(a), median(a)))
		}
	}
	if bad > 0 {
		fmt.Printf("\naa: %d workload/metric pairs outside their bounds\n", bad)
		return 1
	}
	fmt.Printf("\naa: every workload/metric pair within its bound over %d repetitions per side\n", o.aa)
	return 0
}

// runChild runs one workload in a child process and parses its result line
// and its line of ungated speed metrics.
func runChild(exe, workload string, seed int64, seconds int) (*contractResult, map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	var last []byte
	speeds := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(outb))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("ungated ")); ok {
			if err := json.Unmarshal(rest, &speeds); err != nil {
				return nil, nil, fmt.Errorf("ungated line: %v: %s", err, rest)
			}
		}
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%v; last line: %s", err, last)
	}
	var res contractResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %v: %s", err, last)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("output checks failed: %s", last)
	}
	return &res, speeds, nil
}
