package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"time"

	"udt/fabric"
	"udt/internal/congestion"
	"udt/internal/core"
	"udt/internal/losslist"
	"udt/internal/mux"
	"udt/internal/netem"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/timerwheel"
)

// The per-layer probes: each times a tight loop of calls into one layer's
// exported functions, for at least probeMin, with inputs shaped like the
// workload that uses the layer (wire-size packets, 512 resident timers, 256
// flows). A probe prices a call; the traced run counts the calls; the cost
// model multiplies the two (model.accounted_cpu_share).

const (
	probeMin  = 200 * time.Millisecond
	probeMSS  = 1472
	probePay  = probeMSS - packet.DataHeaderSize // 1464 B clear payload
	probeSeal = probePay - secure.Overhead       // payload budget under AEAD
)

// prober runs probes and records one span per probe loop.
type prober struct {
	log *spanLog
	out map[string]float64
}

// time runs round repeatedly for at least probeMin and records ns per call
// under name; each round makes calls calls. prep, when non-nil, runs before
// every round outside the timed region.
func (p *prober) time(name string, calls int, prep, round func()) {
	if prep != nil {
		prep()
	}
	round() // warm: first-use allocations and cold caches are not the price of a call
	h := p.log.begin("probe:"+name, 0, 0)
	var total time.Duration
	n := 0
	for total < probeMin {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		round()
		total += time.Since(t0)
		n += calls
	}
	p.log.end(h)
	p.out[name] = float64(total.Nanoseconds()) / float64(n)
}

// allocs records the heap allocations per call of fn under name.
func (p *prober) allocs(name string, fn func()) {
	const n = 2000
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	p.out[name] = float64(b.Mallocs-a.Mallocs) / n
}

// runProbes runs every probe and returns their metrics.
func runProbes(tr *tracer) map[string]float64 {
	p := &prober{log: tr.log(), out: map[string]float64{}}
	p.secure()
	p.packet()
	p.core()
	p.mux()
	p.timerwheel()
	p.lossAndCC()
	p.fabrics()
	return p.out
}

const probeBatch = 256

func (p *prober) secure() {
	keys := secure.DeriveKeys([]byte("bench probe pre-shared key......"))
	cn, sn := bytes.Repeat([]byte{1}, secure.HSNonceLen), bytes.Repeat([]byte{2}, secure.HSNonceLen)
	cli := secure.NewSession(keys, cn, sn, true, 1000, 2000, true)
	srv := secure.NewSession(keys, cn, sn, false, 2000, 1000, true)

	pkt := make([]byte, packet.DataHeaderSize+probeSeal, probeMSS)
	seq := uint32(1000)
	sealOne := func() {
		binary.BigEndian.PutUint32(pkt, seq&0x7FFFFFFF)
		seq++
		cli.SealData(pkt)
	}
	p.time("secure.seal_data_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			sealOne()
		}
	})
	p.allocs("secure.seal_data_allocs", sealOne)

	// Opening decrypts in place, so each call opens a fresh copy of one
	// sealed image (a retransmission seals byte-identically and opens fine).
	binary.BigEndian.PutUint32(pkt, 1000)
	sealed := append([]byte(nil), cli.SealData(pkt)...)
	work := make([]byte, len(sealed))
	p.time("secure.open_data_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			copy(work, sealed)
			if _, ok := srv.OpenData(work); !ok {
				panic("bench: sealed data packet failed to open")
			}
		}
	})

	ack := make([]byte, packet.CtrlHeaderSize+packet.FullACKBody, packet.CtrlHeaderSize+packet.FullACKBody+secure.CtrlOverhead)
	if _, err := packet.EncodeACK(ack, &packet.ACK{AckID: 1, Seq: 2000, RTT: 100, RTTVar: 10, AvailBuf: 8192, RecvRate: 80000, Capacity: 90000}, 1); err != nil {
		panic(err)
	}
	p.time("secure.seal_ctrl_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			cli.SealCtrl(ack)
		}
	})
	// A control packet opens once (replay protection), so every round opens
	// a batch sealed, untimed, just before it.
	batch := make([][]byte, probeBatch)
	for i := range batch {
		batch[i] = make([]byte, cap(ack))
	}
	p.time("secure.open_ctrl_ns", probeBatch, func() {
		for i := range batch {
			batch[i] = batch[i][:len(ack)]
			copy(batch[i], ack)
			batch[i] = srv.SealCtrl(batch[i])
		}
	}, func() {
		for i := range batch {
			if _, ok := cli.OpenCtrl(batch[i]); !ok {
				panic("bench: sealed control packet failed to open")
			}
		}
	})

	body := bytes.Repeat([]byte{3}, packet.CtrlHeaderSize+packet.HandshakeSecBody-32)
	p.time("secure.handshake_mac_ns", 16, nil, func() {
		for i := 0; i < 16; i++ {
			keys.HandshakeMAC(body, cn)
		}
	})
	p.time("secure.session_setup_ns", 16, nil, func() {
		for i := 0; i < 16; i++ {
			secure.NewSession(keys, cn, sn, false, 2000, 1000, true)
		}
	})
}

func (p *prober) packet() {
	payload := make([]byte, probePay)
	wire := make([]byte, probeMSS)
	d := packet.Data{Seq: 77, Timestamp: 1234, Payload: payload}
	p.time("packet.encode_data_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			d.Seq = int32(i)
			if _, err := packet.EncodeData(wire, &d); err != nil {
				panic(err)
			}
		}
	})
	var sink int32
	p.time("packet.decode_data_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			got, err := packet.DecodeData(wire)
			if err != nil {
				panic(err)
			}
			sink += got.Seq
		}
	})
	ack := packet.ACK{AckID: 9, Seq: 4000, RTT: 100, RTTVar: 10, AvailBuf: 8192, RecvRate: 80000, Capacity: 90000}
	p.time("packet.ack_codec_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			n, err := packet.EncodeACK(wire, &ack, 5)
			if err != nil {
				panic(err)
			}
			c, err := packet.DecodeControl(wire[:n])
			if err != nil {
				panic(err)
			}
			a, err := packet.DecodeACK(c)
			if err != nil {
				panic(err)
			}
			sink += a.Seq
		}
	})
	losses := []packet.Range{{Start: 100, End: 100}, {Start: 120, End: 131}, {Start: 200, End: 200}, {Start: 260, End: 300}}
	p.time("packet.nak_codec_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			n, err := packet.EncodeNAK(wire, losses, 5)
			if err != nil {
				panic(err)
			}
			c, err := packet.DecodeControl(wire[:n])
			if err != nil {
				panic(err)
			}
			nak, err := packet.DecodeNAK(c)
			if err != nil {
				panic(err)
			}
			sink += int32(len(nak.Losses))
		}
	})
	hs := packet.Handshake{Version: packet.Version, InitSeq: 1000, MSS: probeMSS, FlowWindow: 25600, ReqType: packet.HSRequest, ConnID: 42, SockID: mux.MakeID(7), SecFlags: 1, Cookie: 99}
	p.time("packet.handshake_codec_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			n, err := packet.EncodeHandshake(wire, &hs, 5)
			if err != nil {
				panic(err)
			}
			c, err := packet.DecodeControl(wire[:n])
			if err != nil {
				panic(err)
			}
			h, err := packet.DecodeHandshake(c)
			if err != nil {
				panic(err)
			}
			sink += h.ConnID
		}
	})
	_ = sink
}

// enginePair is two core engines with their buffers wired back to back on a
// virtual clock — a sender A and a receiver B, driven the way the
// production shell and chaos.Peer drive them, minus the socket.
type enginePair struct {
	a, b *core.Conn
	snd  *core.SndBuffer
	rcv  *core.RcvBuffer
	now  int64
	wire [][]byte
	lens []int
	fill []byte // application data fed to the send buffer
	sink []byte // where the application drains the receive buffer

	enginePairCost
}

// enginePairCost is what the rounds so far cost, phase by phase.
type enginePairCost struct {
	sendNs, recvNs, ackNs, writeNs, readNs time.Duration
	sent, recvd, acks                      int
	wroteKB, readKB                        float64
}

func newEnginePair() *enginePair {
	const isnA, isnB = 1000, 2000
	e := &enginePair{
		a:    core.NewConn(core.Config{MSS: probeMSS, ISN: isnA, RecvBufPkts: 8192}, isnB),
		b:    core.NewConn(core.Config{MSS: probeMSS, ISN: isnB, RecvBufPkts: 8192}, isnA),
		snd:  core.NewSndBuffer(8192, probePay, isnA),
		rcv:  core.NewRcvBuffer(8192, probePay, isnA),
		fill: make([]byte, 64*probePay),
		sink: make([]byte, 64*probePay),
		lens: make([]int, 64),
	}
	e.b.AvailBuf = e.rcv.Free
	for i := 0; i < 64; i++ {
		e.wire = append(e.wire, make([]byte, probeMSS))
	}
	e.a.Start(0)
	e.b.Start(0)
	return e
}

// round moves up to 64 packets from A's application to B's, then lets both
// engines' timers run and exchanges whatever control packets they emit.
func (e *enginePair) round() {
	t := time.Now()
	n := e.snd.Write(e.fill)
	e.writeNs += time.Since(t)
	e.wroteKB += float64(n) / 1024

	t = time.Now()
	k := 0
	for k < len(e.wire) {
		avail := seqno.Cmp(e.snd.NextWriteSeq(), seqno.Inc(e.a.CurSeq())) > 0
		seq, d := e.a.NextSend(e.now, avail)
		if d == core.WaitPacing {
			e.now = max(e.now+1, e.a.NextSendTime()) // virtual time: the wait itself is free
			continue
		}
		if d != core.SendData && d != core.SendRetrans {
			break // window, data or freeze: the control exchange below unblocks it
		}
		pl, ok := e.snd.Packet(seq)
		if !ok {
			break
		}
		m, err := packet.EncodeData(e.wire[k], &packet.Data{Seq: seq, Timestamp: int32(e.now), Payload: pl})
		if err != nil {
			panic(err)
		}
		e.lens[k] = m
		k++
	}
	e.sendNs += time.Since(t)
	e.sent += k

	t = time.Now()
	for i := 0; i < k; i++ {
		d, err := packet.DecodeData(e.wire[i][:e.lens[i]])
		if err != nil {
			panic(err)
		}
		if e.b.HandleData(e.now, d.Seq) {
			e.rcv.Store(d.Seq, d.Payload)
		}
	}
	e.recvNs += time.Since(t)
	e.recvd += k

	t = time.Now()
	for e.rcv.Available() > 0 {
		m := e.rcv.Read(e.sink)
		if m == 0 {
			break
		}
		e.readKB += float64(m) / 1024
	}
	e.readNs += time.Since(t)

	e.now += 800 // ≈ 64 packets at a gigabit: a SYN passes every 13 rounds
	e.b.Advance(e.now)
	for {
		o, ok := e.b.PopOut()
		if !ok {
			break
		}
		if o.Kind == core.OutACK {
			t = time.Now()
			if e.a.HandleACK(e.now, o.ACK) > 0 {
				e.snd.Release(e.a.SndLastAck())
			}
			e.ackNs += time.Since(t)
			e.acks++
		}
	}
	e.a.Advance(e.now)
	for {
		o, ok := e.a.PopOut()
		if !ok {
			break
		}
		if o.Kind == core.OutACK2 {
			e.b.HandleACK2(e.now, o.AckID)
		}
	}
}

func (p *prober) core() {
	e := newEnginePair()
	for i := 0; i < 2000; i++ { // leave slow start, reach the steady window
		e.round()
	}
	e.enginePairCost = enginePairCost{} // the warm-up is not part of the price
	h := p.log.begin("probe:core.engine_pair", 0, 0)
	for t0 := time.Now(); time.Since(t0) < 3*probeMin; {
		e.round()
	}
	p.log.end(h)
	if e.sent == 0 || e.acks == 0 {
		panic(fmt.Sprintf("bench: engine pair stalled (sent %d, acks %d)", e.sent, e.acks))
	}
	p.out["core.send_path_ns"] = float64(e.sendNs.Nanoseconds()) / float64(e.sent)
	p.out["core.recv_path_ns"] = float64(e.recvNs.Nanoseconds()) / float64(e.recvd)
	p.out["core.handle_ack_ns"] = float64(e.ackNs.Nanoseconds()) / float64(e.acks)
	p.out["core.sndbuf_write_ns_per_kb"] = float64(e.writeNs.Nanoseconds()) / e.wroteKB
	p.out["core.rcvbuf_read_ns_per_kb"] = float64(e.readNs.Nanoseconds()) / e.readKB

	// An established, idle flow as rr_flows holds 512 of: the scheduler
	// calls Advance on it once per SYN and it has nothing to do.
	idle := core.NewConn(core.Config{MSS: probeMSS, ISN: 1, MaxFlowWindow: 32, RecvBufPkts: 32}, 2)
	idle.Start(0)
	now := int64(0)
	p.time("core.advance_idle_ns", probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			now += core.DefaultSYN
			idle.Advance(now)
			for {
				if _, ok := idle.PopOut(); !ok {
					break
				}
			}
			idle.HandleKeepAlive(now) // the peer is alive: the flow never reaches EXP death
		}
	})

	// What one default-Config endpoint allocates: the engine and its two
	// 8192-packet buffers.
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	made := 0
	p.time("core.new_conn_ns", 1, nil, func() {
		c := core.NewConn(core.Config{MSS: probeMSS, ISN: 1, RecvBufPkts: 8192}, 2)
		s := core.NewSndBuffer(8192, probePay, 1)
		r := core.NewRcvBuffer(8192, probePay, 2)
		runtime.KeepAlive(c)
		runtime.KeepAlive(s)
		runtime.KeepAlive(r)
		made++
	})
	runtime.ReadMemStats(&b)
	p.out["core.new_conn_bytes"] = float64(b.TotalAlloc-a.TotalAlloc) / float64(made)
}

// nullFlow discards datagrams: the probe prices the table lookup, not a flow.
type nullFlow struct{ n int }

func (f *nullFlow) HandleDatagram([]byte) { f.n++ }

func (p *prober) mux() {
	from := net.Addr(fabric.Addr("probe-peer"))
	rng := newRand(1, "probe/mux")
	bare := make([]byte, packet.DataHeaderSize+rrMsgLen)
	if _, err := packet.EncodeData(bare, &packet.Data{Seq: 1, Payload: make([]byte, rrMsgLen)}); err != nil {
		panic(err)
	}
	for _, flows := range []int{1, 256} {
		c := mux.NewCore(nil)
		pkts := make([][]byte, flows)
		for i := range pkts {
			id := c.AllocID(rng.Int31, &nullFlow{})
			pkts[i] = make([]byte, mux.DestPrefix+len(bare))
			mux.PutDest(pkts[i], id)
			copy(pkts[i][mux.DestPrefix:], bare)
		}
		i := 0
		one := func() {
			c.Dispatch(pkts[i%flows], from)
			i++
		}
		name := "mux.dispatch_1flow_ns"
		if flows > 1 {
			name = "mux.dispatch_256flows_ns"
		}
		p.time(name, probeBatch, nil, func() {
			for k := 0; k < probeBatch; k++ {
				one()
			}
		})
		if flows > 1 {
			p.allocs("mux.dispatch_allocs", one)
		}
	}
	c := mux.NewCore(nil)
	f := &nullFlow{}
	for i := 0; i < rrFlows; i++ { // a table as full as rr_flows keeps it
		c.AllocID(rng.Int31, &nullFlow{})
	}
	id := mux.MakeID(0x1234567)
	p.time("mux.register_unregister_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			if !c.Register(id, f) {
				panic("bench: mux id collision")
			}
			c.Unregister(id)
		}
	})
}

func (p *prober) timerwheel() {
	w := timerwheel.New()
	var t timerwheel.Timer
	now := int64(0)
	p.time("timerwheel.schedule_cancel_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			now += 7
			w.Schedule(&t, now+core.DefaultSYN)
			w.Cancel(&t)
		}
	})
	// 512 resident SYN-period timers — rr_flows' two ends — firing and
	// re-arming; the clock moves SYN/512 per call, so a call fires about one.
	w = timerwheel.New()
	timers := make([]timerwheel.Timer, 2*rrFlows)
	for i := range timers {
		w.Schedule(&timers[i], int64(i)*core.DefaultSYN/int64(len(timers)))
	}
	now = 0
	fire := func(t *timerwheel.Timer) { w.Schedule(t, t.Deadline()+core.DefaultSYN) }
	p.time("timerwheel.advance_fire_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			now += core.DefaultSYN / int64(len(timers))
			w.Advance(now, fire)
		}
	})
}

func (p *prober) lossAndCC() {
	r := losslist.NewReceiver(4096)
	seq := int32(0)
	p.time("losslist.rcv_insert_remove_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			r.Insert(seq, seq+1) // a two-packet gap is detected…
			r.Remove(seq)        // …and repaired by two retransmissions
			r.Remove(seq + 1)
			seq = (seq + 8) & seqno.Max
		}
	})
	s := losslist.NewSender()
	seq = 0
	p.time("losslist.snd_insert_pop_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			s.Insert(seq, seq+1)
			s.PopFirst()
			s.PopFirst()
			seq = (seq + 8) & seqno.Max
		}
	})
	cc := congestion.NewNative()
	cc.Init(congestion.Params{SYN: core.DefaultSYN, MSS: probeMSS, MaxWindow: 25600})
	p.time("congestion.native_on_ack_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			cc.OnACK(16, 80000, 90000, 200)
		}
	})
	now, sent := int64(0), int32(1000)
	p.time("congestion.native_on_nak_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			now += core.DefaultSYN // every NAK a new loss event, as formula (3) prices it
			sent = (sent + 100) & seqno.Max
			cc.OnNAK(now, sent-10, sent)
		}
	})
}

func (p *prober) fabrics() {
	a, b := fabric.NewPipe(fabric.PipeConfig{Depth: 16384})
	defer a.Close()
	defer b.Close()
	msg, buf := make([]byte, mux.DestPrefix+packet.DataHeaderSize+rrMsgLen), make([]byte, 2048)
	p.time("fabric.pipe_hop_ns", probeBatch, nil, func() {
		for k := 0; k < probeBatch; k++ {
			if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
				panic(err)
			}
			if _, _, err := b.ReadFrom(buf); err != nil {
				panic(err)
			}
		}
	})

	// One hop of the sim_dumbbell topology: a rate-capped, delayed link
	// between two endpoints on the virtual clock.
	vc := netem.NewVirtualClock(0)
	nw := netem.New(1, vc)
	x, err := nw.EndpointBuf("x", 1<<16)
	if err != nil {
		panic(err)
	}
	y, err := nw.EndpointBuf("y", 1<<16)
	if err != nil {
		panic(err)
	}
	nw.SetLink("x", "y", netem.LinkConfig{Delay: 500, RateMbps: 100, QueuePkts: 64})
	pkt := make([]byte, 2+simMSS)
	p.time("netem.hop_ns", 32, nil, func() {
		for k := 0; k < 32; k++ { // half a queue: nothing is tail-dropped
			x.WriteTo(pkt, y.LocalAddr()) //nolint:errcheck // an emulated drop is not an error
		}
		vc.Advance(10_000)
		for {
			if _, _, ok := y.TryReadFrom(buf[:cap(buf)]); !ok {
				break
			}
		}
	})
}
