package obs

import (
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil trace ID not empty")
	}
	sp := tr.Start("phase")
	if sp.Active() {
		t.Error("span from nil trace reports active")
	}
	if sp.Child("sub").Active() {
		t.Error("child of inert span reports active")
	}
	if sp.End() != 0 {
		t.Error("ending inert span returned nonzero duration")
	}
	if tr.Len() != 0 || tr.Spans() != nil || tr.SpansSince(3) != nil {
		t.Error("nil trace recorded spans")
	}
}

// TestNilTraceZeroAlloc pins the property the warm-path alloc gate depends
// on: starting, nesting, and ending spans on a nil trace never touches the
// heap.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("run")
		c := sp.Child("lane")
		c.End()
		sp.End()
		_ = tr.ID()
		_ = tr.Len()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace span ops allocated %v times per run, want 0", allocs)
	}
}

func TestTraceSpansAndParents(t *testing.T) {
	tr := NewTrace()
	if !strings.HasPrefix(tr.ID(), "t") || len(tr.ID()) != 13 {
		t.Fatalf("trace ID %q, want t + 12 hex digits", tr.ID())
	}
	root := tr.Start("request")
	child := root.Child("bind")
	time.Sleep(time.Millisecond)
	if d := child.End(); d <= 0 {
		t.Fatalf("child duration %v, want > 0", d)
	}
	if d := child.End(); d != 0 {
		t.Fatalf("second End returned %v, want 0", d)
	}
	grand := root.Child("run").Child("lane0")
	grand.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantParents := map[string]int{"request": -1, "bind": 0, "run": 0, "lane0": 2}
	for i, sp := range spans {
		if want, ok := wantParents[sp.Name]; !ok || sp.Parent != want {
			t.Errorf("span %d %q parent = %d, want %d", i, sp.Name, sp.Parent, want)
		}
		if sp.DurNS < 0 || sp.StartNS < 0 {
			t.Errorf("span %q has negative timing: start %d dur %d", sp.Name, sp.StartNS, sp.DurNS)
		}
	}
	// Child duration is contained in the root's.
	if spans[1].DurNS > spans[0].DurNS {
		t.Errorf("bind (%dns) outlasted request (%dns)", spans[1].DurNS, spans[0].DurNS)
	}
}

func TestSpansSinceRebasesParents(t *testing.T) {
	tr := NewTrace()
	outer := tr.Start("outer")
	mark := tr.Len()
	run := tr.Start("run")
	lane := run.Child("lane1")
	lane.End()
	run.End()
	outer.End()

	sub := tr.SpansSince(mark)
	if len(sub) != 2 {
		t.Fatalf("got %d spans since mark, want 2", len(sub))
	}
	if sub[0].Name != "run" || sub[0].Parent != -1 {
		t.Errorf("run span = %+v, want parent -1 after rebase", sub[0])
	}
	if sub[1].Name != "lane1" || sub[1].Parent != 0 {
		t.Errorf("lane span = %+v, want parent 0 after rebase", sub[1])
	}
}

func TestUnfinishedSpanReportsAccumulated(t *testing.T) {
	tr := NewTrace()
	tr.Start("open")
	time.Sleep(time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].DurNS <= 0 {
		t.Fatalf("unfinished span = %+v, want positive accumulated duration", spans)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTrace().ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestRenderSpans(t *testing.T) {
	spans := []SpanData{
		{Name: "request", Parent: -1, DurNS: 40e6},
		{Name: "bind", Parent: 0, DurNS: 2e6},
		{Name: "run", Parent: 0, DurNS: 30e6},
		{Name: "lane0", Parent: 2, DurNS: 15e6},
	}
	out := RenderSpans(spans)
	for _, want := range []string{"request", "bind", "run", "lane0", "40.000ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// lane0 is indented deeper than run, which is deeper than request.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	if !(indent(lines[0]) < indent(lines[1]) && indent(lines[1]) < indent(lines[3])) {
		t.Errorf("indentation does not nest:\n%s", out)
	}
	if RenderSpans(nil) != "" {
		t.Error("rendering no spans should be empty")
	}
}

// TestRenderSpansAlignsLongNames checks every duration ends in one column
// when a name, indented, runs past 24 characters, as a lane step's label
// does under run.
func TestRenderSpansAlignsLongNames(t *testing.T) {
	spans := []SpanData{
		{Name: "request", Parent: -1, DurNS: 40e6},
		{Name: "run", Parent: 0, DurNS: 30e6},
		{Name: "Repeater c over i [lane 0]", Parent: 1, DurNS: 1234567},
		{Name: "assemble", Parent: 0, DurNS: 2e6},
	}
	out := RenderSpans(spans)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(spans), out)
	}
	for _, l := range lines {
		if len(l) != len(lines[0]) {
			t.Fatalf("durations end in different columns:\n%s", out)
		}
		if !strings.HasSuffix(l, "ms") {
			t.Fatalf("line %q carries no duration", l)
		}
	}
	if !strings.Contains(out, "Repeater c over i [lane 0]      1.235ms") {
		t.Errorf("long name not followed by its duration:\n%s", out)
	}
}
