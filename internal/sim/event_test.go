package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sam/internal/core"
	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden statistics files under testdata from this run")

// eventShape is one request of the repository benchmark's simulate-event
// workload, rebuilt in process: Figure 12's three SpM*SpM dataflows over one
// operand pair and SpMV at Par 1 and 4.
type eventShape struct {
	name   string
	prog   *Program
	inputs map[string]*tensor.COO
	opt    Options
}

// shapeRow is an eventShape before compilation.
type shapeRow struct {
	name   string
	expr   string
	sched  lang.Schedule
	inputs map[string]*tensor.COO
	opt    Options
	// formats, when set, are the operands' storage formats (nil: every level
	// compressed).
	formats lang.Formats
}

// buildShapes compiles each row into a Program.
func buildShapes(tb testing.TB, rows []shapeRow) []eventShape {
	tb.Helper()
	var out []eventShape
	for _, r := range rows {
		g, err := custard.Compile(lang.MustParse(r.expr), r.formats, r.sched)
		if err != nil {
			tb.Fatalf("%s: compile: %v", r.name, err)
		}
		p, err := NewProgram(g)
		if err != nil {
			tb.Fatalf("%s: NewProgram: %v", r.name, err)
		}
		out = append(out, eventShape{r.name, p, r.inputs, r.opt})
	}
	return out
}

// eventShapes draws the operands the way bench/workloads.go does at seed 3
// (B, C, then SpMV's B, c; each UniformRandom followed by QuantizeInts), so
// the five cycle counts in the golden file (30,960 / 665,951 / 30,830 /
// 127,972 / 32,034) sum to the benchmark's sim.event_cycles at that seed. The
// sixth row reruns ikj with bounded queues.
func eventShapes(tb testing.TB) []eventShape {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	draw := func(name string, nnz int, dims ...int) *tensor.COO {
		t := tensor.UniformRandom(name, rng, nnz, dims...)
		tensor.QuantizeInts(rng, 9, t)
		return t
	}
	mm := map[string]*tensor.COO{"B": draw("B", 1250, 250, 100), "C": draw("C", 1250, 100, 250)}
	mv := map[string]*tensor.COO{"B": draw("B", 5000, 500, 500), "c": draw("c", 250, 500)}
	const spmspm, spmv = "X(i,j) = B(i,k) * C(k,j)", "x(i) = B(i,j) * c(j)"
	rows := []shapeRow{
		{"SpM*SpM-ikj", spmspm, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}, mm, Options{}, nil},
		{"SpM*SpM-ijk", spmspm, lang.Schedule{LoopOrder: []string{"i", "j", "k"}}, mm, Options{}, nil},
		{"SpM*SpM-kij", spmspm, lang.Schedule{LoopOrder: []string{"k", "i", "j"}}, mm, Options{}, nil},
		{"SpMV-par1", spmv, lang.Schedule{}, mv, Options{}, nil},
		{"SpMV-par4", spmv, lang.Schedule{Par: 4}, mv, Options{}, nil},
		{"SpM*SpM-ikj-cap8", spmspm, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}, mm, Options{QueueCap: 8}, nil},
	}
	return buildShapes(tb, rows)
}

// renderStats prints one run's simulated statistics in a fixed order: the
// cycle count, then one line per monitored stream.
func renderStats(w *strings.Builder, name string, res *Result) {
	fmt.Fprintf(w, "%s cycles=%d\n", name, res.Cycles)
	labels := make([]string, 0, len(res.Streams))
	for l := range res.Streams {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		s := res.Streams[l]
		fmt.Fprintf(w, "\t%s\tdata=%d stop=%d empty=%d done=%d idle=%d\n", l, s.Data, s.Stop, s.Empty, s.Done, s.Idle)
	}
}

// checkGolden runs every shape on both cycle engines and holds the rendered
// statistics to the golden file at path (-update rewrites it from the event
// engine's run).
func checkGolden(t *testing.T, path string, shapes []eventShape) {
	t.Helper()
	for _, eng := range []EngineKind{EngineEvent, EngineNaive} {
		var got strings.Builder
		for _, s := range shapes {
			opt := s.opt
			opt.Engine = eng
			res, err := s.prog.Run(s.inputs, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, eng, err)
			}
			renderStats(&got, s.name, res)
		}
		if *updateGolden && eng == EngineEvent {
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		if len(gl) != len(wl) {
			t.Errorf("%s: %d lines of statistics, golden has %d", eng, len(gl), len(wl))
		}
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("%s: line %d:\n got  %s\n want %s", eng, i+1, gl[i], wl[i])
			}
		}
	}
}

// TestEventGoldenStats pins the simulated statistics themselves: cycles and
// every monitored stream's token breakdown, per shape, on both cycle engines.
// TestEngineEquivalence only compares event with naive, and both sit on
// core.Queue, so a storage bug that shifted both would pass there. The file
// was recorded on the ring-buffer queue, before the chunked one replaced it;
// regenerate with -update only for a change that means to move a cycle count.
func TestEventGoldenStats(t *testing.T) {
	checkGolden(t, "testdata/event_golden.txt", eventShapes(t))
}

// parJoinShapes covers the lane joins event_golden.txt does not (its one Par
// row is the element pair join): an element join beside a driven pair join,
// driven joins at two depths, more lanes than outer elements (chunkless
// lanes, orphan zeros) on the driven and the element pair join, and a join
// under backpressure. Operands are tiny, so the whole table runs in
// milliseconds.
func parJoinShapes(tb testing.TB) []eventShape {
	tb.Helper()
	rng := rand.New(rand.NewSource(23))
	draw := func(name string, nnz int, dims ...int) *tensor.COO {
		t := tensor.UniformRandom(name, rng, nnz, dims...)
		tensor.QuantizeInts(rng, 9, t)
		return t
	}
	mm := map[string]*tensor.COO{"B": draw("B", 40, 14, 10), "C": draw("C", 40, 10, 12)}
	add3 := map[string]*tensor.COO{"B": draw("B", 30, 5, 4, 6), "C": draw("C", 30, 5, 4, 6)}
	few := map[string]*tensor.COO{"B": draw("B", 8, 3, 10), "C": draw("C", 30, 10, 12)}
	mv := map[string]*tensor.COO{"B": draw("B", 8, 3, 10), "c": draw("c", 5, 10)}
	const spmspm = "X(i,j) = B(i,k) * C(k,j)"
	ikj, ijk := []string{"i", "k", "j"}, []string{"i", "j", "k"}
	rows := []shapeRow{
		{"SpM*SpM-ikj-par4", spmspm, lang.Schedule{LoopOrder: ikj, Par: 4}, mm, Options{}, nil},
		{"Plus3d-par2", "X(i,j,k) = B(i,j,k) + C(i,j,k)", lang.Schedule{Par: 2}, add3, Options{}, nil},
		{"SpM*SpM-ijk-par8-3rows", spmspm, lang.Schedule{LoopOrder: ijk, Par: 8}, few, Options{}, nil},
		{"SpMV-par8-3rows", "x(i) = B(i,j) * c(j)", lang.Schedule{Par: 8}, mv, Options{}, nil},
		{"SpM*SpM-ikj-par4-cap4", spmspm, lang.Schedule{LoopOrder: ikj, Par: 4}, mm, Options{QueueCap: 4}, nil},
	}
	return buildShapes(tb, rows)
}

// TestParJoinGoldenStats pins every lane join a Par graph builds, tick for
// tick, the way TestEventGoldenStats pins the benchmark's shapes.
func TestParJoinGoldenStats(t *testing.T) {
	checkGolden(t, "testdata/par_golden.txt", parJoinShapes(t))
}

// withoutSlices drops every point of t whose coordinate in mode holds one of
// the given values, leaving those slices of t empty.
func withoutSlices(t *tensor.COO, mode int, drop ...int64) *tensor.COO {
	out := tensor.NewCOO(t.Name, t.Dims...)
	for _, p := range t.Pts {
		if !slices.Contains(drop, p.Crd[mode]) {
			out.Pts = append(out.Pts, p)
		}
	}
	return out
}

// reduceShapes drives the n = 1 and n = 2 reducers over empty sub-fibers:
// SpM*SpM at ikj (n = 1) and kij (n = 2) with both operands stored with a
// dense outer level, so C's empty rows 2 and 9 reach the reducer as empty
// inner fibers — mid-group and, row 9 being the last, trailing — and B's
// empty columns 0 and 5 reach the kij reducer as iterations without an outer
// coordinate. The three-operand rows get their empty fibers from
// compressed intersections instead; the last row reruns kij under
// backpressure.
func reduceShapes(tb testing.TB) []eventShape {
	tb.Helper()
	rng := rand.New(rand.NewSource(29))
	draw := func(name string, nnz int, dims ...int) *tensor.COO {
		t := tensor.UniformRandom(name, rng, nnz, dims...)
		tensor.QuantizeInts(rng, 9, t)
		return t
	}
	mm := map[string]*tensor.COO{
		"B": withoutSlices(draw("B", 40, 12, 10), 1, 0, 5),
		"C": withoutSlices(draw("C", 36, 10, 9), 0, 2, 9),
	}
	mm3 := map[string]*tensor.COO{"B": draw("B", 40, 12, 10), "C": draw("C", 30, 10, 9), "D": draw("D", 30, 10, 9)}
	dense := lang.Formats{"B": lang.CSR(2), "C": lang.CSR(2)}
	const spmspm, spmspm3 = "X(i,j) = B(i,k) * C(k,j)", "X(i,j) = B(i,k) * C(k,j) * D(k,j)"
	ikj, kij := lang.Schedule{LoopOrder: []string{"i", "k", "j"}}, lang.Schedule{LoopOrder: []string{"k", "i", "j"}}
	rows := []shapeRow{
		{"SpM*SpM-ikj-empty", spmspm, ikj, mm, Options{}, dense},
		{"SpM*SpM-kij-empty", spmspm, kij, mm, Options{}, dense},
		{"SpM*SpM*D-ikj", spmspm3, ikj, mm3, Options{}, nil},
		{"SpM*SpM*D-kij", spmspm3, kij, mm3, Options{}, nil},
		{"SpM*SpM-kij-empty-cap4", spmspm, kij, mm, Options{QueueCap: 4}, dense},
	}
	return buildShapes(tb, rows)
}

// TestReduceGoldenStats pins the n = 1 and n = 2 reducers tick for tick on
// the empty sub-fiber shapes of reduceShapes, the way TestParJoinGoldenStats
// pins the lane joins.
func TestReduceGoldenStats(t *testing.T) {
	checkGolden(t, "testdata/reduce_golden.txt", reduceShapes(t))
}

// mergeShapes drives the intersecter and unioner (Definitions 3.2–3.3)
// through the cases the other goldens miss: a three-way intersect, whose
// heads stop at different times and drain the rest; a three-way union over
// vectors; a three-way union over matrices where C and D have empty rows; an
// intersect fed by a union, so N references reach its reference inputs,
// again under backpressure; and the three-way union split over two lanes.
func mergeShapes(tb testing.TB) []eventShape {
	tb.Helper()
	rng := rand.New(rand.NewSource(31))
	draw := func(name string, nnz int, dims ...int) *tensor.COO {
		t := tensor.UniformRandom(name, rng, nnz, dims...)
		tensor.QuantizeInts(rng, 9, t)
		return t
	}
	vec := map[string]*tensor.COO{"a": draw("a", 9, 16), "b": draw("b", 8, 16), "c": draw("c", 10, 16)}
	mat := map[string]*tensor.COO{
		"B": draw("B", 16, 6, 8),
		"C": withoutSlices(draw("C", 18, 6, 8), 0, 1, 4),
		"D": withoutSlices(draw("D", 16, 6, 8), 0, 2, 5),
	}
	const add3, mulAdd = "X(i,j) = B(i,j) + C(i,j) + D(i,j)", "X(i,j) = B(i,j) * (C(i,j) + D(i,j))"
	rows := []shapeRow{
		{"Mul3-vec", "x(i) = a(i) * b(i) * c(i)", lang.Schedule{}, vec, Options{}, nil},
		{"Add3-vec", "x(i) = a(i) + b(i) + c(i)", lang.Schedule{}, vec, Options{}, nil},
		{"Add3-empty-rows", add3, lang.Schedule{}, mat, Options{}, nil},
		{"MulAdd", mulAdd, lang.Schedule{}, mat, Options{}, nil},
		{"MulAdd-cap2", mulAdd, lang.Schedule{}, mat, Options{QueueCap: 2}, nil},
		{"Add3-par2", add3, lang.Schedule{Par: 2}, mat, Options{}, nil},
	}
	return buildShapes(tb, rows)
}

// TestMergeGoldenStats pins the intersecter and unioner tick for tick on
// mergeShapes, the way TestReduceGoldenStats pins the reducer.
func TestMergeGoldenStats(t *testing.T) {
	checkGolden(t, "testdata/merge_golden.txt", mergeShapes(t))
}

// dropShapes drives the coordinate dropper (Definition 3.9) in both modes.
// C has no point at l = 0, 2, 3 or 5. B's row 4 holds only l = 3, so it is a
// structurally empty outer fiber, and pairs such as (i, j) = (0, 1) meet
// nothing either: at order i,l,j,k the reducer closes empty j and k fibers
// below them, which the chained droppers on j and i remove. The 4-D output
// chains three droppers the same way, over k, j and i. SpMV at Par 2 reaches
// its value-mode dropper with the zero sums of four rows that meet nothing
// in c, split over both lanes. The last row reruns TTM under backpressure.
func dropShapes(tb testing.TB) []eventShape {
	tb.Helper()
	rng := rand.New(rand.NewSource(37))
	draw := func(name string, nnz int, dims ...int) *tensor.COO {
		t := tensor.UniformRandom(name, rng, nnz, dims...)
		tensor.QuantizeInts(rng, 9, t)
		return t
	}
	ttm := map[string]*tensor.COO{
		"B": draw("B", 14, 6, 4, 6),
		"C": withoutSlices(draw("C", 14, 5, 6), 1, 0, 2, 3, 5),
	}
	out4 := map[string]*tensor.COO{
		"B": ttm["B"],
		"C": withoutSlices(draw("C", 30, 3, 4, 6), 2, 0, 2, 3, 5),
	}
	mv := map[string]*tensor.COO{"B": draw("B", 12, 6, 10), "c": draw("c", 3, 10)}
	const ttmExpr = "X(i,j,k) = B(i,j,l) * C(k,l)"
	iljk := lang.Schedule{LoopOrder: []string{"i", "l", "j", "k"}}
	rows := []shapeRow{
		{"TTM-iljk", ttmExpr, iljk, ttm, Options{}, nil},
		{"Out4-ijlkm", "X(i,j,k,m) = B(i,j,l) * C(k,m,l)", lang.Schedule{LoopOrder: []string{"i", "j", "l", "k", "m"}}, out4, Options{}, nil},
		{"SpMV-par2", "x(i) = B(i,j) * c(j)", lang.Schedule{Par: 2}, mv, Options{}, nil},
		{"TTM-iljk-cap2", ttmExpr, iljk, ttm, Options{QueueCap: 2}, nil},
	}
	return buildShapes(tb, rows)
}

// TestDropGoldenStats pins the coordinate dropper in both modes tick for
// tick on dropShapes, the way TestMergeGoldenStats pins the merger.
func TestDropGoldenStats(t *testing.T) {
	checkGolden(t, "testdata/drop_golden.txt", dropShapes(t))
}

// TestReduceEmptySubFibers holds a reduction ordered outside three kept
// variables (n = 3) to the gold model on every engine. At 30 % density most
// (l, i) and (l, i, j) prefixes have empty sub-fibers, mid-fiber and
// trailing; an outer coordinate left unpopped there misaligns the next point,
// which the engines used to agree on — so only the gold model catches it.
func TestReduceEmptySubFibers(t *testing.T) {
	const expr = "X(i,j,k) = B(l,i,k) * C(l,j,k)"
	e := lang.MustParse(expr)
	g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inputs := map[string]*tensor.COO{
			"B": tensor.UniformRandom("B", rng, 14, 3, 4, 4),
			"C": tensor.UniformRandom("C", rng, 14, 3, 4, 4),
		}
		tensor.QuantizeInts(rng, 9, inputs["B"], inputs["C"])
		want, err := lang.Gold(e, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range Engines() {
			res, err := Run(g, inputs, Options{Engine: eng})
			if err != nil {
				t.Errorf("seed %d %s: %v", seed, eng, err)
				continue
			}
			if err := tensor.Equal(res.Output, want, 1e-9); err != nil {
				t.Errorf("seed %d %s: %v", seed, eng, err)
			}
		}
	}
}

// BenchmarkEventRun is the event engine alone on the simulate-event shapes:
// bind, wire, run and assemble of a prebuilt Program, no serving around it.
func BenchmarkEventRun(b *testing.B) {
	for _, s := range eventShapes(b)[:5] {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			cycles := 0
			for i := 0; i < b.N; i++ {
				res, err := s.prog.Run(s.inputs, s.opt)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
		})
	}
}

// TestEventRunAllocBytes gates what a warm event-engine run allocates. The
// ijk inner-product dataflow peaks at 682,078 tokens in flight (16.4 MB);
// with stream chunks recycled through core's pool a warm run allocates the
// net, the writers' output and little else. The doubling rings this replaced
// allocated and zeroed 65 MB per run. ikj and kij run the n = 1 and n = 2
// reducers, whose group accumulator keeps each group's points in flat arrays
// reused group to group: a map or key allocated per point or per group costs
// them 100k allocations a run.
func TestEventRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race, so no run is warm")
	}
	shapes := eventShapes(t)
	for _, c := range []struct {
		shape  eventShape
		bytes  int64
		allocs int64
	}{
		{shapes[0], 6 << 20, 10_000},
		{shapes[1], 10 << 20, 10_000},
		{shapes[2], 6 << 20, 10_000},
	} {
		s := c.shape
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.prog.Run(s.inputs, s.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		t.Logf("%s: %d bytes/op, %d allocs/op over %d runs", s.name, r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
		if got := r.AllocedBytesPerOp(); got > c.bytes {
			t.Errorf("%s: a warm run allocates %d bytes, limit %d", s.name, got, c.bytes)
		}
		if got := r.AllocsPerOp(); got > c.allocs {
			t.Errorf("%s: a warm run allocates %d objects, limit %d", s.name, got, c.allocs)
		}
	}
}

// TestResultDoesNotPinNet checks a kept Result holds none of its run's net:
// the stream statistics are copies, so the queues they were read from — and
// whatever storage those still hold — are collectable while the Result lives.
func TestResultDoesNotPinNet(t *testing.T) {
	s := eventShapes(t)[0]
	b, err := newBuilder(s.prog, s.inputs, s.opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.net.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	res := &Result{Streams: map[string]*core.StreamStats{}}
	b.streams(res)
	freed := make(chan struct{})
	// A monitored queue: the first of a fan-out group, whose Stats the
	// Result used to point into.
	runtime.SetFinalizer(b.queues[s.prog.groups[0][0]], func(*core.Queue) { close(freed) })
	b = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			if len(res.Streams) == 0 || res.Streams[s.prog.labels[s.prog.groups[0][0]]].Total() == 0 {
				t.Fatalf("result lost its statistics: %v", res.Streams)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("a live Result (%d streams) keeps its net's queues reachable", len(res.Streams))
}
