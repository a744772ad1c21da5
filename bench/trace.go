package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the stack. Times are
// nanoseconds since the tracer was created; Parent is the ID of the span
// that caused this one (0 for a root); spans of one operation — one
// message, one connection cycle, one campaign repetition — share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer hands out per-goroutine span logs and merges them at the end.
// Spans stay in memory until write; nothing is formatted while a window
// is open. A nil *tracer (the untraced run) hands out nil logs whose
// methods do nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Int32
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanLog is one goroutine's append-only span list; it is not safe for
// concurrent use, which is the point — no lock on the measured path.
type spanLog struct {
	t     *tracer
	spans []span
}

// log returns a new span log for the calling goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{t: t, spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// begin opens a span and returns its handle for end and id.
func (l *spanLog) begin(name string, parent int32, op int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		Name: name, Start: int64(time.Since(l.t.epoch)), ID: l.t.next.Add(1), Parent: parent, Op: op,
	})
	return len(l.spans) - 1
}

// end closes the span begin returned h for.
func (l *spanLog) end(h int) {
	if l != nil {
		l.spans[h].End = int64(time.Since(l.t.epoch))
	}
}

// id is the span's identifier, for use as a child's parent.
func (l *spanLog) id(h int) int32 {
	if l == nil {
		return 0
	}
	return l.spans[h].ID
}

// all returns every closed span from every log, ordered by start time.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.End >= s.Start && s.End != 0 {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durationsUs returns the durations in µs of every span called name.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children are counted
// once, and a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int32][]iv)
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, edge := int64(0), s.Start
		for _, v := range ivs {
			if v.b <= edge {
				continue
			}
			covered += v.b - max(v.a, edge)
			edge = v.b
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes spans as JSON Lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
