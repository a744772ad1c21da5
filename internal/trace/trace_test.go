package trace

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func sample(i int) PerfRecord {
	return PerfRecord{
		Flow:          int32(i),
		Label:         "udt",
		Role:          RoleSender,
		T:             int64(i) * 10_000,
		IntervalUs:    10_000,
		PeriodUs:      12.5 + float64(i),
		SendRateMbps:  960.0 / (1 + float64(i)),
		SendMbps:      900.25,
		RecvMbps:      899.75,
		BandwidthMbps: 1000,
		RTTUs:         52_000,
		FlowWindow:    4096,
		InFlight:      int32(100 + i),
		PktsSent:      int64(1000 * i),
		PktsRetrans:   int64(i),
		PktsRecv:      int64(990 * i),
		PktsDup:       1,
		ACKsSent:      int64(10 * i),
		ACKsRecv:      int64(9 * i),
		NAKsSent:      2,
		NAKsRecv:      3,
		LossDetected:  4,
		Timeouts:      0,
		SndFreezes:    1,
	}
}

func TestRingWraparound(t *testing.T) {
	g := NewRing(4)
	if g.Cap() != 4 || g.Len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", g.Cap(), g.Len())
	}
	if _, ok := g.Last(); ok {
		t.Fatal("Last on empty ring reported a record")
	}
	for i := 0; i < 3; i++ {
		r := sample(i)
		g.Record(&r)
	}
	snap := g.Snapshot()
	if len(snap) != 3 || snap[0].Flow != 0 || snap[2].Flow != 2 {
		t.Fatalf("partial snapshot wrong: %+v", snap)
	}
	// Push past capacity: records 3..9 land, 0..5 are overwritten.
	for i := 3; i < 10; i++ {
		r := sample(i)
		g.Record(&r)
	}
	if g.Len() != 4 || g.Total() != 10 {
		t.Fatalf("after wrap: len=%d total=%d", g.Len(), g.Total())
	}
	snap = g.Snapshot()
	want := []int32{6, 7, 8, 9}
	for i, w := range want {
		if snap[i].Flow != w {
			t.Fatalf("snapshot[%d].Flow = %d, want %d (full: %+v)", i, snap[i].Flow, w, snap)
		}
	}
	var doOrder []int32
	g.Do(func(r *PerfRecord) { doOrder = append(doOrder, r.Flow) })
	if !reflect.DeepEqual(doOrder, want) {
		t.Fatalf("Do order = %v, want %v", doOrder, want)
	}
	if last, ok := g.Last(); !ok || last.Flow != 9 {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
	appended := g.AppendTo(nil)
	if !reflect.DeepEqual(appended, snap) {
		t.Fatalf("AppendTo != Snapshot")
	}
	g.Reset()
	if g.Len() != 0 || g.Total() != 0 {
		t.Fatalf("after Reset: len=%d total=%d", g.Len(), g.Total())
	}
}

func TestRingRecordZeroAlloc(t *testing.T) {
	g := NewRing(64)
	r := sample(1)
	var sink Sink = g // interface call, as emitters use it
	allocs := testing.AllocsPerRun(1000, func() {
		sink.Record(&r)
	})
	if allocs != 0 {
		t.Fatalf("Ring.Record allocated %.1f per call, want 0", allocs)
	}
}

func TestMultiFanOut(t *testing.T) {
	var a, b []int32
	sa := SinkFunc(func(r *PerfRecord) { a = append(a, r.Flow) })
	sb := SinkFunc(func(r *PerfRecord) { b = append(b, r.Flow) })

	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no sinks should be nil")
	}
	// Single usable sink is returned unwrapped.
	if got := Multi(nil, sa); got == nil {
		t.Fatal("Multi(nil, sa) = nil")
	} else {
		r := sample(7)
		got.Record(&r)
		if len(a) != 1 || a[0] != 7 {
			t.Fatalf("single-sink Multi did not forward: %v", a)
		}
	}
	a = nil
	m := Multi(sa, nil, sb)
	for i := 0; i < 3; i++ {
		r := sample(i)
		m.Record(&r)
	}
	want := []int32{0, 1, 2}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Fatalf("fan-out mismatch: a=%v b=%v", a, b)
	}
}

func TestCSVEscaping(t *testing.T) {
	r := sample(0)
	r.Label = `tcp,"sack"` + "\nv2"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []PerfRecord{r}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"tcp,""sack""`) {
		t.Fatalf("label not escaped: %q", out)
	}
	// The embedded newline makes naive line-splitting wrong; ReadCSV's
	// scanner is line-based, so round-trip only guarantees fields without
	// raw newlines. Commas and quotes must survive a round trip.
	r.Label = `tcp,"sack" v2`
	buf.Reset()
	if err := WriteCSV(&buf, []PerfRecord{r}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Label != r.Label {
		t.Fatalf("round-trip label = %q, want %q", back[0].Label, r.Label)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := make([]PerfRecord, 0, 8)
	for i := 0; i < 8; i++ {
		recs = append(recs, sample(i))
	}
	recs[3].PeriodUs = 1.0 / 3.0 // non-terminating decimal must round-trip
	recs[4].Role = RoleReceiver
	recs[5].Role = RoleFlow
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("CSV round trip mismatch:\n got %+v\nwant %+v", back, recs)
	}
	// Streaming sink must produce byte-identical output to WriteCSV.
	var stream bytes.Buffer
	sink := NewCSVSink(&stream)
	for i := range recs {
		sink.Record(&recs[i])
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), buf.Bytes()) {
		t.Fatal("CSVSink output differs from WriteCSV")
	}
}

func TestCSVRejectsBadInput(t *testing.T) {
	for _, in := range []string{
		"",
		"not,the,header\n",
		CSVHeader + "\n1,udt\n", // short row
		CSVHeader + "\nx" + strings.Repeat(",0", 23) + "\n", // bad int
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadCSV(%q) succeeded, want error", in)
		}
	}
}

func TestJSONLRoundFormat(t *testing.T) {
	r := sample(2)
	r.Label = `he said "hi"` // must be JSON-escaped
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []PerfRecord{r}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	for _, want := range []string{
		`"flow":2`, `"label":"he said \"hi\""`, `"role":"snd"`,
		`"t_us":20000`, `"recv_mbps":899.75`, `"pkts_dup":1`,
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("JSONL missing %s: %s", want, line)
		}
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", buf.String())
	}
	var stream bytes.Buffer
	js := NewJSONLSink(&stream)
	js.Record(&r)
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	if stream.String() != buf.String() {
		t.Fatal("JSONLSink output differs from WriteJSONL")
	}
}

func TestGoodputSeries(t *testing.T) {
	recs := []PerfRecord{sample(0), sample(1), sample(2), sample(3)}
	recs[0].Role, recs[0].RecvMbps = RoleSender, 1
	recs[1].Role, recs[1].RecvMbps = RoleReceiver, 2
	recs[2].Role, recs[2].RecvMbps = RoleFlow, 3
	recs[3].Role, recs[3].RecvMbps = RoleSender, 4
	if got := GoodputSeries(recs); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Fatalf("GoodputSeries = %v", got)
	}
	snd := SenderSeries(recs)
	if len(snd) != 3 || snd[0].RecvMbps != 1 || snd[1].RecvMbps != 3 || snd[2].RecvMbps != 4 {
		t.Fatalf("SenderSeries = %+v", snd)
	}
}

func TestHTTPHandler(t *testing.T) {
	recs := []PerfRecord{sample(0), sample(1)}
	h := Handler(func() []PerfRecord { return recs })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/perf", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	if !strings.HasPrefix(body, `[{"flow":0`) || !strings.Contains(body, `},{"flow":1`) || !strings.HasSuffix(body, "}]") {
		t.Fatalf("body = %s", body)
	}
}

// TestRingGrowsThenWraps walks a ring through every doubling of its storage
// and then several laps past its capacity: at each step Snapshot, Do, Last,
// Len, Total and Cap must be those of a ring that had its full capacity from
// the start — the configured capacity, not what is resident.
func TestRingGrowsThenWraps(t *testing.T) {
	for _, limit := range []int{1, 7, 8, 9, 100, 512} {
		g := NewRing(limit)
		for i := 0; i < 3*limit+5; i++ {
			r := sample(i)
			g.Record(&r)
			n := min(i+1, limit)
			if g.Cap() != limit || g.Len() != n || g.Total() != int64(i+1) {
				t.Fatalf("limit %d after %d records: cap=%d len=%d total=%d", limit, i+1, g.Cap(), g.Len(), g.Total())
			}
			if len(g.buf) > limit {
				t.Fatalf("limit %d: storage grew to %d records", limit, len(g.buf))
			}
			snap := g.Snapshot()
			var do []int32
			g.Do(func(r *PerfRecord) { do = append(do, r.Flow) })
			if len(snap) != n || len(do) != n {
				t.Fatalf("limit %d after %d records: snapshot %d, Do %d, want %d", limit, i+1, len(snap), len(do), n)
			}
			for k := range snap {
				if want := int32(i + 1 - n + k); snap[k].Flow != want || do[k] != want {
					t.Fatalf("limit %d after %d records: position %d holds %d (Do: %d), want %d", limit, i+1, k, snap[k].Flow, do[k], want)
				}
			}
			if last, ok := g.Last(); !ok || last.Flow != int32(i) {
				t.Fatalf("limit %d after %d records: Last = %d,%v", limit, i+1, last.Flow, ok)
			}
		}
	}
}
