package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "Cycle", ID: 1, Start: 0, End: 100},
		{Name: "Dial", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "Write", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps Dial: 20..30 counts once
		{Name: "Close", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped at 100
		{Name: "handshake", ID: 5, Parent: 2, Start: 12, End: 18},
		{Name: "orphan", ID: 6, Parent: 77, Start: 0, End: 7}, // parent not recorded: a root
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{
		1: 100 - (50 - 10) - (100 - 90), // 50
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
		6: 7,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["Cycle"] != 50 || byName["Dial"] != 14 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	log := tr.log()
	h := log.begin("Write", 0, 1)
	log.end(h)
	if log.id(h) != 0 || tr.all() != nil {
		t.Fatal("the untraced run must not record spans")
	}
}

func TestTracerLinksAndWritesSpans(t *testing.T) {
	tr := newTracer()
	a, b := tr.log(), tr.log()
	op := a.begin("Message", 0, 42)
	w := a.begin("Write", a.id(op), 42)
	a.end(w)
	other := b.begin("Read", 0, 43)
	b.end(other)
	a.end(op)
	open := b.begin("never closed", 0, 44)
	_ = open
	spans := tr.all()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["Write"].Parent != byName["Message"].ID || byName["Write"].Op != 42 {
		t.Errorf("child not linked to its parent and operation: %+v", byName["Write"])
	}
	if byName["Read"].ID == byName["Message"].ID || byName["Read"].ID == byName["Write"].ID {
		t.Error("span IDs must be unique across logs")
	}
	path := filepath.Join(t.TempDir(), "deep", "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 3 || !strings.Contains(string(raw), `"name":"Write"`) {
		t.Errorf("span file has %d lines: %s", lines, raw)
	}
}
