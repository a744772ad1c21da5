// Command udtchaos runs the UDT fault-injection matrix: full transfers of
// checksummed payloads through netem-impaired paths, driven by the real
// protocol engines under a deterministic virtual clock (and optionally the
// full concurrent stack under the wall clock).
//
// Usage:
//
//	udtchaos [-seed N] [-determinism] [-ccmatrix] [-campaign] [-real] [-v]
//	         [-report DIR]
//
// Exit status is non-zero if any matrix cell fails. With -determinism each
// cell runs twice and the two results must be bit-identical — the replay
// guarantee the virtual clock provides. With -ccmatrix the congestion-control
// matrix runs instead of the impairment matrix: every pluggable law carries
// a transfer through loss, and fairness cells race two laws over one shared
// rate-capped link. With -campaign the CI campaign set runs instead: the
// 100-flow mixed-law dumbbell and the 32-flow flash-crowd star over multi-hop
// netem topologies (-report writes per-campaign JSONL reports). With -real a
// smoke subset also runs over the production Dial/Listen stack — one
// transfer per congestion controller.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"udt"
	"udt/internal/campaign"
	"udt/internal/netem"
	"udt/internal/netem/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "PRNG seed for payloads, handshakes and impairments")
	determinism := flag.Bool("determinism", false, "run every cell twice and require bit-identical results")
	ccmatrix := flag.Bool("ccmatrix", false, "run the congestion-control matrix instead of the impairment matrix")
	camp := flag.Bool("campaign", false, "run the CI campaign set (multi-flow topologies) instead of the impairment matrix")
	real := flag.Bool("real", false, "also run a smoke subset over the concurrent udt stack")
	reportDir := flag.String("report", "", "with -campaign: write per-campaign JSONL reports into this directory")
	verbose := flag.Bool("v", false, "print per-cell protocol counters")
	flag.Parse()

	if *camp {
		os.Exit(runCampaigns(*determinism, *reportDir, *verbose))
	}

	failed := 0
	cases := chaos.QuickMatrix()
	if *ccmatrix {
		cases = chaos.CCMatrix()
	}
	results := chaos.RunMatrix(*seed, cases)
	var second []chaos.CaseResult
	if *determinism {
		second = chaos.RunMatrix(*seed, cases)
	}
	for i, cr := range results {
		status := "ok"
		if !cr.Pass {
			status = "FAIL"
			failed++
		}
		det := ""
		if *determinism {
			identical := reflect.DeepEqual(cr.Result, second[i].Result) &&
				reflect.DeepEqual(cr.Mux, second[i].Mux) &&
				realIdentical(cr.Real, second[i].Real) &&
				fsIdentical(cr.FS, second[i].FS)
			if identical {
				det = " replay=identical"
			} else {
				det = " replay=DIVERGED"
				failed++
			}
		}
		if cr.Real != nil {
			r := cr.Real
			fmt.Printf("%-22s %-4s wall=%8.3fs recv=%d retrans=%d%s\n",
				cr.Case.Name, status, r.Elapsed.Seconds(), r.RecvBytes, r.Client.PktsRetrans, det)
			if *verbose {
				fmt.Printf("    client: %+v\n    server: %+v\n", r.Client, r.Server)
			}
			continue
		}
		if cr.FS != nil {
			f := cr.FS
			fmt.Printf("%-22s %-4s wall=%8.3fs bytes=%d killed=%v resumes=%d%s\n",
				cr.Case.Name, status, f.Elapsed.Seconds(), f.Bytes, f.Killed, f.Resumes, det)
			if *verbose {
				fmt.Printf("    c->s: %+v\n    s->c: %+v\n", f.PathCS, f.PathSC)
			}
			continue
		}
		if cr.Mux != nil {
			m := cr.Mux
			fmt.Printf("%-22s %-4s virtual=%8.3fs flows=%d/%d demux-drops a=(%d,%d) b=(%d,%d)%s\n",
				cr.Case.Name, status, float64(m.Elapsed)/1e6,
				m.FlowsOK, len(m.Flows),
				m.UnknownDestA, m.ShortA, m.UnknownDestB, m.ShortB, det)
			if len(cr.Case.CCs) > 0 {
				// Fairness cell: show how the shared link split per law.
				for j, f := range m.Flows {
					fmt.Printf("    flow %d %-9s goodput a=%.2f Mb/s b=%.2f Mb/s\n",
						j, f.CC, f.GoodputAMbps, f.GoodputBMbps)
				}
			}
			if *verbose {
				fmt.Printf("    a->b: %+v\n    b->a: %+v\n", m.PathAB, m.PathBA)
			}
			continue
		}
		r := cr.Result
		fmt.Printf("%-22s %-4s virtual=%8.3fs a{recv=%s dead=%v} b{recv=%s dead=%v}%s\n",
			cr.Case.Name, status, float64(r.Elapsed)/1e6,
			okStr(r.A.RecvOK), r.A.Broken, okStr(r.B.RecvOK), r.B.Broken, det)
		if *verbose {
			fmt.Printf("    a: %+v\n    b: %+v\n    a->b: %+v\n    b->a: %+v\n",
				r.A.Stats, r.B.Stats, r.PathAB, r.PathBA)
		}
	}

	if *real {
		smokes := []struct {
			name string
			link netem.LinkConfig
			cc   string
		}{
			{"real-clean", netem.LinkConfig{Delay: 1000}, ""},
			{"real-loss-1pct", netem.LinkConfig{Delay: 2000, Jitter: 2000, Loss: 0.01, Dup: 0.001}, ""},
		}
		// One impaired transfer per congestion controller over the full
		// concurrent stack — the paper's §5.2 laws moving real bytes.
		for _, name := range udt.CongestionControls() {
			smokes = append(smokes, struct {
				name string
				link netem.LinkConfig
				cc   string
			}{"real-cc-" + name, netem.LinkConfig{Delay: 2000, Jitter: 1000, Loss: 0.005}, name})
		}
		for _, rc := range smokes {
			ucfg := udt.Config{}
			if rc.cc != "" {
				cc, err := udt.CongestionControl(rc.cc)
				if err != nil {
					fmt.Printf("%-22s FAIL error=%v\n", rc.name, err)
					failed++
					continue
				}
				ucfg.CC = cc
			}
			res, err := chaos.RunReal(chaos.RealConfig{Seed: *seed, Payload: 1 << 20, Link: rc.link, UDT: ucfg})
			switch {
			case err != nil:
				fmt.Printf("%-22s FAIL error=%v\n", rc.name, err)
				failed++
			case !res.OK:
				fmt.Printf("%-22s FAIL recv=%d hash mismatch\n", rc.name, res.RecvBytes)
				failed++
			default:
				fmt.Printf("%-22s ok   wall=%8.3fs retrans=%d cc=%s\n",
					rc.name, res.Elapsed.Seconds(), res.Client.PktsRetrans, res.Client.CCName)
			}
		}
	}

	if failed > 0 {
		fmt.Printf("udtchaos: %d failure(s)\n", failed)
		os.Exit(1)
	}
}

// runCampaigns executes the CI campaign set and returns the process exit
// code. With determinism each campaign runs twice and the two reports must
// hash identically — the replay guarantee, now over whole topologies.
func runCampaigns(determinism bool, reportDir string, verbose bool) int {
	failed := 0
	for _, spec := range campaign.CISet() {
		rep, _, err := campaign.Run(spec)
		if err != nil {
			fmt.Printf("%-12s FAIL error=%v\n", spec.Name, err)
			failed++
			continue
		}
		det := ""
		if determinism {
			rep2, _, err := campaign.Run(spec)
			switch {
			case err != nil:
				det = " replay=ERROR"
				failed++
			case rep.Digest() != rep2.Digest():
				det = " replay=DIVERGED"
				failed++
			default:
				det = " replay=identical"
			}
		}
		if !rep.OK {
			failed++
		}
		fmt.Printf("%s%s\n", rep, det)
		if verbose {
			for _, l := range rep.Links {
				if l.DroppedQueue > 0 || l.Lost > 0 {
					fmt.Printf("    link %s→%s offered=%d delivered=%d dropq=%d maxq=%d\n",
						l.From, l.To, l.Offered, l.Delivered, l.DroppedQueue, l.MaxQueuePkts)
				}
			}
		}
		if reportDir != "" {
			if err := writeReport(reportDir, spec.Name, rep); err != nil {
				fmt.Printf("%-12s FAIL report: %v\n", spec.Name, err)
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Printf("udtchaos: %d failure(s)\n", failed)
		return 1
	}
	return 0
}

// writeReport writes one campaign's JSONL report to dir/<name>.jsonl.
func writeReport(dir, name string, rep *campaign.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	if err := rep.WriteJSONL(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "bad"
}

// realIdentical and fsIdentical compare only the seed-deterministic
// outcome of the wall-clock cells: wall time, protocol counters and the
// exact resume count legitimately vary between runs.
func realIdentical(a, b *chaos.RealResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.OK == b.OK && a.SentHash == b.SentHash && a.RecvHash == b.RecvHash && a.RecvBytes == b.RecvBytes
}

func fsIdentical(a, b *chaos.FSResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.OK == b.OK && a.WantHash == b.WantHash && a.GotHash == b.GotHash &&
		a.Bytes == b.Bytes && a.Killed == b.Killed && (a.Resumes > 0) == (b.Resumes > 0)
}
