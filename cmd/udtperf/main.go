// Command udtperf is an iperf-style memory-to-memory throughput tool for
// the UDT library.
//
// Server:  udtperf -s [-addr :9000]
// Client:  udtperf -c host:9000 [-t 10s] [-mss 1472] [-interval 1s] [-streams 4] [-cc ctcp]
//
// The client streams random data for the duration and prints periodic and
// final throughput plus protocol statistics (retransmissions, RTT, loss).
// With -streams N the client multiplexes N concurrent UDT flows over one
// shared UDP socket (udt.Mux) and reports aggregate throughput — the
// listener side always accepts multiplexed flows.
//
// With -psk (both sides, min 16 bytes) the handshake is authenticated and
// unauthenticated peers are refused; -aead additionally seals every data
// packet with AES-256-GCM. The monitor's authrej/cookie columns
// surface the corresponding Stats counters.
//
// With -monitor the client instead prints a live perfmon readout: one line
// per telemetry sample straight from the first flow's PerfRecord stream
// (sending period, paced and measured rates, flow window, in-flight, RTT,
// bandwidth estimate, loss counters), plus the shared socket's demux drop
// counters when -streams is in play. With -expvar ADDR it also serves the
// rolling history as JSON at http://ADDR/perf and via expvar /debug/vars.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"udt"
	"udt/internal/trace"
)

func main() {
	server := flag.Bool("s", false, "run as server (sink)")
	client := flag.String("c", "", "run as client, connecting to host:port")
	addr := flag.String("addr", ":9000", "server listen address")
	dur := flag.Duration("t", 10*time.Second, "client transfer duration")
	mss := flag.Int("mss", 1472, "packet size (UDP payload bytes)")
	interval := flag.Duration("interval", time.Second, "client report interval")
	streams := flag.Int("streams", 1, "concurrent flows multiplexed over one UDP socket")
	monitor := flag.Bool("monitor", false, "print a live one-line-per-interval perfmon readout")
	expAddr := flag.String("expvar", "", "serve perf history as JSON on this HTTP address (/perf, /debug/vars)")
	ccName := flag.String("cc", "", fmt.Sprintf("congestion controller for the sending side %v; default native", udt.CongestionControls()))
	noOffload := flag.Bool("no-offload", false, "disable UDP GSO/GRO segmentation offload (Config.DisableOffload)")
	batch := flag.Int("batch", 0, "send/receive batch size in packets (Config.BatchSize; 0 = default)")
	shards := flag.Int("shards", 0, "server: SO_REUSEPORT socket group size (Config.ReusePortShards; 0 = one socket)")
	psk := flag.String("psk", "", "pre-shared key: authenticate the handshake (Config.PSK; min 16 bytes, both sides)")
	aead := flag.Bool("aead", false, "seal data packets with AES-256-GCM (Config.AEAD; requires -psk)")
	flag.Parse()

	switch {
	case *server:
		runServer(*addr, *mss, *noOffload, *batch, *shards, *psk, *aead)
	case *client != "":
		if *streams < 1 {
			log.Fatalf("-streams %d: need at least one flow", *streams)
		}
		runClient(*client, *dur, *mss, *interval, *streams, *monitor, *expAddr, *ccName, *noOffload, *batch, *psk, *aead)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runServer(addr string, mss int, noOffload bool, batch, shards int, psk string, aead bool) {
	ln, err := udt.Listen(addr, &udt.Config{MSS: mss, DisableOffload: noOffload, BatchSize: batch,
		ReusePortShards: shards, PSK: []byte(psk), AEAD: aead})
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("udtperf server listening on %s", ln.Addr())
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			start := time.Now()
			n, _ := io.Copy(io.Discard, c)
			el := time.Since(start)
			st := c.Stats()
			log.Printf("%s: received %.1f MB in %v = %.1f Mb/s (loss events %d, dups %d)",
				c.RemoteAddr(), float64(n)/1e6, el.Round(time.Millisecond),
				float64(n*8)/el.Seconds()/1e6, st.LossEvents, st.PktsDup)
			c.Close()
		}()
	}
}

// dialFlows establishes the client flows: one connection on a socket of
// its own, or N flows multiplexed over one shared UDP socket. The second
// return is the shared Mux when there is one (for its offload verdicts).
func dialFlows(addr string, cfg *udt.Config, streams int) ([]*udt.Conn, *udt.Mux) {
	if streams == 1 {
		c, err := udt.Dial(addr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return []*udt.Conn{c}, nil
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		log.Fatal(err)
	}
	pc, err := net.ListenUDP("udp", nil)
	if err != nil {
		log.Fatal(err)
	}
	m, err := udt.NewMux(pc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	conns := make([]*udt.Conn, streams)
	for i := range conns {
		if conns[i], err = m.Dial(raddr); err != nil {
			log.Fatalf("stream %d: %v", i, err)
		}
	}
	return conns, m
}

func runClient(addr string, dur time.Duration, mss int, interval time.Duration, streams int, monitor bool, expAddr, ccName string, noOffload bool, batch int, psk string, aead bool) {
	cc, err := udt.CongestionControl(ccName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := &udt.Config{MSS: mss, CC: cc, DisableOffload: noOffload, BatchSize: batch,
		PSK: []byte(psk), AEAD: aead}
	if monitor {
		// One perf sample per report interval: sample every
		// interval/SYN rate ticks (default SYN is 10 ms).
		every := int(interval / (10 * time.Millisecond))
		if every < 1 {
			every = 1
		}
		cfg.PerfEverySYN = every
	}
	conns, m := dialFlows(addr, cfg, streams)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		if m != nil {
			m.Close()
		}
	}()
	c := conns[0] // stats/monitor anchor
	st0 := c.Stats()
	log.Printf("connected to %s (mss %d, %d stream(s), cc %s, udp buffers rcv=%d snd=%d bytes)",
		addr, mss, streams, st0.CCName, st0.UDPRcvBufBytes, st0.UDPSndBufBytes)
	if m != nil {
		gso, gro := m.Offload()
		log.Printf("offload probe: UDP_SEGMENT(GSO)=%v UDP_GRO=%v", gso, gro)
	} else {
		// A dialed connection's socket is a private Mux with the same offload
		// paths, but only the send-side verdict is visible through the Conn.
		log.Printf("offload probe: UDP_SEGMENT(GSO)=%v (own socket; UDP_GRO is requested on it too)", st0.GSOEnabled)
	}

	if expAddr != "" {
		trace.Publish("udtperf.perf", c.Perf)
		http.Handle("/perf", trace.Handler(c.Perf))
		go func() {
			if err := http.ListenAndServe(expAddr, nil); err != nil {
				log.Printf("expvar server: %v", err)
			}
		}()
		log.Printf("perf history at http://%s/perf", expAddr)
	}

	stop := time.Now().Add(dur)
	start := time.Now()
	var total, failed atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *udt.Conn) {
			defer wg.Done()
			buf := make([]byte, 1<<20)
			rand.New(rand.NewSource(time.Now().UnixNano())).Read(buf)
			for time.Now().Before(stop) {
				n, err := c.Write(buf)
				total.Add(int64(n))
				if err != nil {
					log.Printf("write: %v", err)
					failed.Add(1)
					return
				}
			}
		}(c)
	}

	lastBytes, lastAt := int64(0), time.Now()
	if monitor {
		fmt.Println(monitorHeader)
	}
	var lastSample int64 = -1
	tick := time.NewTicker(interval / 10)
	defer tick.Stop()
	for now := range tick.C {
		if !now.Before(stop) {
			break
		}
		if failed.Load() == int64(len(conns)) {
			break // every stream is dead; stop reporting zeros
		}
		if monitor {
			if r, ok := c.LastPerf(); ok && r.T != lastSample {
				lastSample = r.T
				fmt.Println(monitorLine(&r, c.Stats()))
			}
			continue
		}
		if now.Sub(lastAt) >= interval {
			st := c.Stats()
			cur := total.Load()
			fmt.Printf("%6.1fs  %8.1f Mb/s  rtt %8v  retrans %6d  rate %7.1f Mb/s\n",
				now.Sub(start).Seconds(),
				float64((cur-lastBytes)*8)/now.Sub(lastAt).Seconds()/1e6,
				st.RTT.Round(10*time.Microsecond), st.PktsRetrans, st.SendRateMbps)
			lastBytes, lastAt = cur, now
		}
	}
	wg.Wait()
	// Drain before closing, but give up after a bound: when the run ends in
	// a congestion collapse the buffered backlog can take longer to drain at
	// the ratcheted-down recovery rate than the whole measurement took, and
	// the exit path must not hang on it.
	deadline := time.Now().Add(10 * time.Second)
	drained := true
	for _, c := range conns {
		for c.Drained() != true && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		drained = drained && c.Drained()
	}
	if !drained {
		log.Printf("drain cut short after 10s; discarding unsent backlog")
	}
	var sent, retrans, acks, naks, freezes int64
	for _, c := range conns {
		st := c.Stats()
		sent += st.PktsSent
		retrans += st.PktsRetrans
		acks += st.ACKsRecv
		naks += st.NAKsRecv
		freezes += st.SndFreezes
	}
	el := dur.Seconds()
	tot := total.Load()
	fst := c.Stats()
	fmt.Printf("----\nsent %.1f MB in %.1fs = %.1f Mb/s; pkts %d (+%d retrans), ACKs %d, NAKs %d, freezes %d\n",
		float64(tot)/1e6, el, float64(tot*8)/el/1e6,
		sent, retrans, acks, naks, freezes)
	fmt.Printf("cc %s: period %.1fµs, cwnd %.0f pkts\n", fst.CCName, fst.CCPeriodUs, fst.CCWindowPkts)
	if m != nil {
		unknown, short := m.Counters()
		fmt.Printf("mux: %d flows on one socket; demux drops: unknown-dest %d, short %d\n",
			streams, unknown, short)
	}
	if failed.Load() == int64(len(conns)) {
		log.Fatalf("all %d stream(s) failed", len(conns))
	}
}

// monitorHeader labels the -monitor columns.
const monitorHeader = "      t       cc     period     cwnd      pace      wire    win  inflight      rtt    bw-est  retrans   naks  sys/pkt  mux-unk  mux-short  authrej  cookie"

// monitorLine formats one PerfRecord as a perfmon readout line:
// time, congestion controller and its sending period and window, paced
// target rate, measured wire rate, flow window, packets in flight, smoothed
// RTT, estimated link bandwidth, cumulative retransmissions and NAKs
// received, the cumulative send-syscall amortization (syscalls per data
// packet: 1.0 bare, ~1/batch with sendmmsg, down to ~1/44 with GSO), the
// socket's demux drop counters, and the
// Secure UDT counters — authentication rejects and cookie challenges sent
// (both zero on cleartext runs). The PerfRecord stream itself is unchanged
// — the extra columns come from Stats, so recorded telemetry stays
// byte-identical.
func monitorLine(r *udt.PerfRecord, st udt.Stats) string {
	sysPerPkt := 0.0
	if st.PktsSent > 0 {
		sysPerPkt = float64(st.SendSyscalls) / float64(st.PktsSent)
	}
	return fmt.Sprintf("%6.1fs %8s %7.1fµs %8.0f %6.1fMb/s %6.1fMb/s %6d %9d %7.2fms %6.1fMb/s %8d %6d %8.3f %8d %10d %8d %7d",
		float64(r.T)/1e6, r.CCName, r.PeriodUs, r.Cwnd, r.SendRateMbps, r.SendMbps,
		r.FlowWindow, r.InFlight, float64(r.RTTUs)/1e3, r.BandwidthMbps,
		r.PktsRetrans, r.NAKsRecv, sysPerPkt, st.MuxUnknownDest, st.MuxShortDatagram,
		st.AuthRejects, st.CookieSent)
}
