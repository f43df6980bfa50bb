package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a lightweight per-request span recorder: named phases with
// monotonic start/duration timestamps and parent links, cheap enough to
// create per traced request and — crucially — free when absent. Every
// method is nil-safe: a nil *Trace records nothing, returns zero values,
// and allocates nothing, and the zero Span it hands out behaves the same,
// so instrumented code calls Start/End unconditionally and pays only a nil
// check when tracing is off.
//
// A Trace is safe for concurrent use: spans may be started and ended from
// different goroutines (a queue-wait span starts on the request's goroutine
// and ends on a worker).
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	name   string
	parent int32
	start  time.Duration // offset from trace start
	dur    time.Duration
	done   bool
}

// Span is a handle to one recorded span. The zero Span (from a nil trace)
// is inert. Span is a value type: starting a span allocates nothing beyond
// the trace's record slot.
type Span struct {
	tr  *Trace
	idx int32
}

// SpanData is one finished span in a snapshot, with times in nanoseconds
// relative to the trace start. Parent is the index of the enclosing span in
// the same snapshot, or -1 for a top-level phase.
type SpanData struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// traceCtr and traceBase make trace IDs unique within a process and
// unpredictable across processes without coordination: a random 32-bit base
// XORed with a monotonic counter.
var (
	traceCtr  atomic.Uint64
	traceBase = func() uint64 {
		var b [8]byte
		if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
			return 0x9e3779b97f4a7c15 // deterministic fallback; uniqueness still holds per process
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// NewTrace starts a trace with a fresh ID; its clock starts now.
func NewTrace() *Trace {
	return &Trace{
		id:    fmt.Sprintf("t%012x", (traceBase+traceCtr.Add(1))&0xffffffffffff),
		start: time.Now(),
	}
}

// ID returns the trace identifier, or "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a top-level span. On a nil trace it returns the inert zero
// Span without allocating.
func (t *Trace) Start(name string) Span {
	return t.startSpan(name, -1)
}

// Child opens a span nested under s. On an inert span it returns another
// inert span.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.startSpan(name, s.idx)
}

// Active reports whether the span records anywhere; use it to guard work
// done only for the trace (reading a clock per step, say).
func (s Span) Active() bool { return s.tr != nil }

func (t *Trace) startSpan(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	now := time.Since(t.start)
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now})
	t.mu.Unlock()
	return Span{tr: t, idx: idx}
}

// End closes the span and returns its duration (0 on an inert span, or if
// already ended). Ending a span twice keeps the first duration.
func (s Span) End() time.Duration {
	if s.tr == nil {
		return 0
	}
	now := time.Since(s.tr.start)
	s.tr.mu.Lock()
	rec := &s.tr.spans[s.idx]
	var d time.Duration
	if !rec.done {
		rec.done = true
		rec.dur = now - rec.start
		d = rec.dur
	}
	s.tr.mu.Unlock()
	return d
}

// Len returns the number of spans recorded so far (0 on a nil trace). Pair
// it with SpansSince to snapshot just the spans a code region added.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans snapshots every span recorded so far (nil on a nil trace).
// Unfinished spans report the duration accumulated so far.
func (t *Trace) Spans() []SpanData {
	return t.SpansSince(0)
}

// SpansSince snapshots the spans recorded at index from onward. Parent
// indices are rebased into the subset: a parent recorded before from (by an
// enclosing region) reports as -1, so every snapshot is self-consistent.
func (t *Trace) SpansSince(from int) []SpanData {
	if t == nil {
		return nil
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(t.spans) {
		return nil
	}
	out := make([]SpanData, 0, len(t.spans)-from)
	for _, rec := range t.spans[from:] {
		d := rec.dur
		if !rec.done {
			d = now - rec.start
		}
		parent := int(rec.parent) - from
		if rec.parent < int32(from) {
			parent = -1
		}
		out = append(out, SpanData{
			Name: rec.name, Parent: parent,
			StartNS: rec.start.Nanoseconds(), DurNS: d.Nanoseconds(),
		})
	}
	return out
}

// RenderSpans formats a span snapshot as an indented text tree, the shape
// samsim -trace prints: one line per span with its duration, children
// indented under their parents.
func RenderSpans(spans []SpanData) string {
	var b strings.Builder
	children := map[int][]int{}
	for i, sp := range spans {
		p := sp.Parent
		if p < -1 || p >= i {
			p = -1
		}
		children[p] = append(children[p], i)
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, i := range children[parent] {
			sp := spans[i]
			fmt.Fprintf(&b, "%s%-*s %10.3fms\n",
				strings.Repeat("  ", depth+1), 24-2*depth, sp.Name,
				float64(sp.DurNS)/1e6)
			walk(i, depth+1)
		}
	}
	walk(-1, 0)
	return b.String()
}
