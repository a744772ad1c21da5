// Benchmarks regenerating the paper's tables and figures (DESIGN.md §3 maps
// each to its experiment). Simulation-backed results run at a reduced,
// deterministic scale and report their headline metric through
// b.ReportMetric; cmd/simbench prints the full series, and -full there runs
// the paper-scale parameters. Real-transport results (Figs. 10, 15, the
// datapath sweeps) measure the actual UDP implementation on loopback; Table 3
// and Fig. 14 are bash bench/run.sh --workload bulk_clear [--trace 1].
//
// Run a single figure with e.g.:
//
//	go test -bench 'Fig2' -benchtime 1x
package udt_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"udt"
	"udt/internal/core"
	"udt/internal/experiments"
	"udt/internal/losslist"
	"udt/internal/netsim"
)

// newRcvBufferForBench builds a protocol receive buffer for the Fig. 10
// microbenchmark.
func newRcvBufferForBench(pkts, payload int) *core.RcvBuffer {
	return core.NewRcvBuffer(pkts, payload, 0)
}

// benchScale keeps simulator benches fast enough for -bench=./...
var benchScale = experiments.Scale{
	Rate: 50_000_000, Dur: 20 * netsim.Second, Warm: 8, MaxFlows: 8,
}

func BenchmarkTable1Increase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable2DiskDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Table2DiskDisk(benchScale, 11)
		b.ReportMetric(cells[len(cells)-1].Mbps, "amsterdam-local-Mbps")
	}
}

func BenchmarkFig1StreamJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1StreamJoin(benchScale, 1)
		b.ReportMetric(r.UDTJoinMbps, "udt-join-Mbps")
		b.ReportMetric(r.TCPJoinMbps, "tcp-join-Mbps")
	}
}

func BenchmarkFig2Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig2Fairness(benchScale, 2)
		last := pts[len(pts)-1]
		b.ReportMetric(last.UDT, "udt-jain")
		b.ReportMetric(last.TCP, "tcp-jain")
	}
}

func BenchmarkFig3Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig3Concurrency(benchScale, 3)
		b.ReportMetric(pts[len(pts)-1].StdDevMbps, "stddev-Mbps")
	}
}

func BenchmarkFig4Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig4Stability(benchScale, 4)
		last := pts[len(pts)-1]
		b.ReportMetric(last.UDT, "udt-stability")
		b.ReportMetric(last.TCP, "tcp-stability")
	}
}

func BenchmarkFig5Friendliness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig5Friendliness(benchScale, 5)
		b.ReportMetric(pts[0].T, "T-at-1ms")
	}
}

func BenchmarkFig6RTTFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig6RTTFairness(benchScale, 6)
		b.ReportMetric(pts[len(pts)-1].Ratio, "ratio-at-max-rtt")
	}
}

func BenchmarkFig7FlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7FlowControl(benchScale, 7)
		b.ReportMetric(float64(r.LossWithFC), "loss-with-fc")
		b.ReportMetric(float64(r.LossWithoutFC), "loss-without-fc")
	}
}

func BenchmarkFig8LossPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sizes := experiments.Fig8LossPattern(benchScale, 8)
		var max int64
		for _, n := range sizes {
			if n > max {
				max = n
			}
		}
		b.ReportMetric(float64(max), "largest-event-pkts")
	}
}

// BenchmarkFig9LossListAccess times the three loss-list operations on a
// list pre-loaded with a congestion-scale backlog — the paper's claim is
// ≈1 µs per access independent of backlog (Fig. 9).
func BenchmarkFig9LossListAccess(b *testing.B) {
	b.Run("insert", func(b *testing.B) {
		r := losslist.NewReceiver(1 << 20)
		seq := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Insert(seq, seq+30)
			seq += 40
		}
	})
	b.Run("query", func(b *testing.B) {
		r := losslist.NewReceiver(1 << 20)
		for s := int32(0); s < 100_000; s += 40 {
			r.Insert(s, s+30)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Find(int32(i*37) % 100_000)
		}
	})
	b.Run("delete", func(b *testing.B) {
		r := losslist.NewReceiver(1 << 21)
		for s := int32(0); s < int32(b.N)*40+40; s += 40 {
			r.Insert(s, s+30)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Remove(int32(i * 40))
		}
	})
}

// BenchmarkAblationLossList compares the paper's range list against the
// strawman bitmap under the operation that hurts the bitmap: reassembling
// the loss report (§4.2).
func BenchmarkAblationLossList(b *testing.B) {
	const window = 1 << 16
	load := func(ins func(a, c int32)) {
		for s := int32(0); s < window-40; s += 40 {
			ins(s, s+30)
		}
	}
	b.Run("rangelist-report", func(b *testing.B) {
		r := losslist.NewReceiver(window * 2)
		load(r.Insert)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(r.Ranges()) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("bitmap-report", func(b *testing.B) {
		n := losslist.NewNaive(0, window)
		load(n.Insert)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(n.Ranges()) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

func BenchmarkFig11SingleFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig11SingleFlow(benchScale, 9)
		b.ReportMetric(pts[2].UDTMbps, "amsterdam-udt-Mbps")
		b.ReportMetric(pts[2].TCPMbps, "amsterdam-tcp-Mbps")
	}
}

func BenchmarkFig12SharedLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12SharedLink(benchScale, 10)
		b.ReportMetric(r.UDTMbps[2], "udt-110ms-Mbps")
		b.ReportMetric(r.TCPMbps[2], "tcp-110ms-Mbps")
	}
}

func BenchmarkFig13SmallTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig13SmallTCP(benchScale, 11)
		b.ReportMetric(pts[0].TCPAggMbps, "tcp-agg-0-udt")
		b.ReportMetric(pts[len(pts)-1].TCPAggMbps, "tcp-agg-10-udt")
	}
}

func BenchmarkAblationSYN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.AblationSYN(benchScale, 12)
		b.ReportMetric(pts[0].SoloMbps, "solo-at-1ms-syn")
	}
}

func BenchmarkAblationMIMD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationMIMD(benchScale, 13)
		b.ReportMetric(r.AIMDJain, "aimd-jain")
		b.ReportMetric(r.MIMDJain, "mimd-jain")
	}
}

func BenchmarkAblationPacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPacing(benchScale, 14)
		b.ReportMetric(r.UDTMeanQueue, "udt-meanq-pkts")
		b.ReportMetric(r.TCPMeanQueue, "tcp-meanq-pkts")
	}
}

func BenchmarkAblationHSTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.AblationHighSpeed(benchScale, 15)
		for _, p := range pts {
			b.ReportMetric(p.Ratio, p.Protocol+"-rtt-ratio")
		}
	}
}

// ---- real-transport benchmarks (loopback UDP) --------------------------

// loopbackTransfer pushes size bytes through a fresh loopback connection
// and returns the throughput in Mb/s plus the sender's stats.
func loopbackTransfer(b *testing.B, cfg *udt.Config, size int) (float64, udt.Stats) {
	b.Helper()
	ln, err := udt.Listen("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- 0
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		done <- n
	}()
	cli, err := udt.Dial(ln.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	start := time.Now()
	if _, err := cli.Write(data); err != nil {
		b.Fatal(err)
	}
	for !cli.Drained() {
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	st := cli.Stats()
	cli.Close()
	<-done
	return float64(size*8) / elapsed.Seconds() / 1e6, st
}

// BenchmarkLoopbackBatchSize sweeps Config.BatchSize — the burst claimed
// per sender-lock acquisition, the sendmmsg batch, and the GSO train
// ceiling (kernel-capped at 44 segments).
func BenchmarkLoopbackBatchSize(b *testing.B) {
	for _, batch := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mbps, st := loopbackTransfer(b, &udt.Config{BatchSize: batch}, 32<<20)
				b.ReportMetric(mbps, "Mbps")
				if st.PktsSent > 0 {
					b.ReportMetric(float64(st.SendSyscalls)/float64(st.PktsSent), "syscalls/pkt")
				}
			}
		})
	}
}

// BenchmarkLoopbackReusePort4 drives four private-socket senders at a
// 4-shard SO_REUSEPORT listener group: four sockets, four read loops,
// four demultiplexers, spread across cores by the kernel's flow hash.
// Reports aggregate goodput; on platforms without socket groups the
// config degrades to one socket and this converges to the single-socket
// number.
func BenchmarkLoopbackReusePort4(b *testing.B) {
	const shards = 4
	const perFlow = 16 << 20
	cfg := &udt.Config{ReusePortShards: shards}
	for i := 0; i < b.N; i++ {
		ln, err := udt.Listen("127.0.0.1:0", cfg)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c *udt.Conn) {
					defer c.Close()
					io.Copy(io.Discard, c) //nolint:errcheck
				}(c)
			}
		}()
		var wg sync.WaitGroup
		start := time.Now()
		for f := 0; f < shards; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				cli, err := udt.Dial(ln.Addr().String(), nil)
				if err != nil {
					b.Error(err)
					return
				}
				defer cli.Close()
				data := make([]byte, perFlow)
				rand.New(rand.NewSource(int64(f))).Read(data)
				if _, err := cli.Write(data); err != nil {
					b.Error(err)
					return
				}
				for !cli.Drained() {
					time.Sleep(2 * time.Millisecond)
				}
			}(f)
		}
		wg.Wait()
		elapsed := time.Since(start)
		ln.Close()
		b.ReportMetric(float64(shards*perFlow*8)/elapsed.Seconds()/1e6, "Mbps")
	}
}

// BenchmarkSendFileZC measures the zero-copy file path: an mmap-backed
// SendFileZC against a discarding RecvFile over loopback.
func BenchmarkSendFileZC(b *testing.B) {
	const size = 32 << 20
	path := b.TempDir() + "/payload.bin"
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ln, err := udt.Listen("127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan int64, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				done <- 0
				return
			}
			n, _ := c.RecvFile(io.Discard)
			// No Close here: the sender is still draining ACKs for the tail;
			// listener teardown closes the flow once the sender is done.
			done <- n
		}()
		cli, err := udt.Dial(ln.Addr().String(), nil)
		if err != nil {
			b.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		n, err := cli.SendFileZC(f)
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		f.Close()
		cli.Close()
		if got := <-done; got != size || n != size {
			b.Fatalf("transferred %d/%d bytes, want %d", n, got, size)
		}
		ln.Close()
		b.ReportMetric(float64(size*8)/elapsed.Seconds()/1e6, "Mbps")
	}
}

// BenchmarkFig15PacketSize sweeps the packet size, reproducing the
// throughput-vs-MSS curve (optimal at the path MTU; Fig. 15).
func BenchmarkFig15PacketSize(b *testing.B) {
	for _, mss := range []int{472, 972, 1472, 2972, 8972} {
		b.Run(fmt.Sprintf("mss%d", mss), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mbps, _ := loopbackTransfer(b, &udt.Config{MSS: mss}, 16<<20)
				b.ReportMetric(mbps, "Mbps")
			}
		})
	}
}

// BenchmarkFig10OverlappedIO compares the overlapped receive path (§4.3:
// packets land directly in the waiting reader's buffer) against the
// copy-through-protocol-buffer path at the buffer level.
func BenchmarkFig10OverlappedIO(b *testing.B) {
	const payload = 1464
	const pkts = 64
	src := make([]byte, payload)
	b.Run("direct", func(b *testing.B) {
		user := make([]byte, pkts*payload)
		rb := newRcvBufferForBench(pkts, payload)
		b.SetBytes(pkts * payload)
		seq := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.AttachUser(user)
			for k := 0; k < pkts; k++ {
				rb.Store(seq, src)
				seq++
			}
			if rb.DetachUser() != pkts*payload {
				b.Fatal("short direct read")
			}
		}
	})
	b.Run("copied", func(b *testing.B) {
		user := make([]byte, pkts*payload)
		rb := newRcvBufferForBench(pkts, payload)
		b.SetBytes(pkts * payload)
		seq := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < pkts; k++ {
				rb.Store(seq, src)
				seq++
			}
			if rb.Read(user) != pkts*payload {
				b.Fatal("short read")
			}
		}
	})
}
