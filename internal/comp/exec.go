package comp

import (
	"fmt"
	"runtime"
	"slices"

	"sam/internal/core"
	"sam/internal/fiber"
	"sam/internal/obs"
	"sam/internal/tensor"
	"sam/internal/token"
)

// This file is the throughput-oriented execution layer of the compiled
// engine: reusable run contexts with arena-backed scratch memory, one
// bounded process-wide free list of contexts that any program retargets so
// warm runs allocate nothing. Every program runs its steps in order on the
// calling goroutine — a Par graph as its Par 1 program, its lanes collapsed
// by Materialize — and a server fills its CPUs by running requests side by
// side, one context each.

// arena is per-run scratch memory checked out by lowered closures. All
// checkout paths reuse slab capacity from earlier runs on the same context;
// growth happens only while a context is cold.
type arena struct {
	curs []cursor
	curN int
	ptrs []*cursor
	ptrN int
	toks []token.Tok
	tokN int

	// Reducer scratch: one group accumulator per n >= 1 reducer step, reset
	// at checkout, so a context poisoned by a failed run self-heals.
	groups []*core.GroupAcc
	groupN int

	// Co-iteration scratch: the matches of the fiber pair in hand, the fused
	// leaf steps' register programs, and the probe table — one, because a
	// run's steps run one after another; a step clears it before first use.
	matches []match
	leafs   []leafInst
	leafN   int
	probe   probeTab
}

// reset returns every checkout to the arena without releasing capacity.
func (a *arena) reset() {
	a.curN, a.ptrN, a.tokN, a.groupN, a.leafN = 0, 0, 0, 0, 0
}

// cursor checks out one stream cursor. Growing the slab moves earlier
// cursors to a new backing array; pointers handed out before the move stay
// valid (they keep the old backing alive) and the stale copies in the new
// backing are never read, because every checkout reinitializes its slot.
func (a *arena) cursor(s token.Stream) *cursor {
	if a.curN == len(a.curs) {
		a.curs = append(a.curs, cursor{})
	}
	c := &a.curs[a.curN]
	a.curN++
	c.s, c.i = s, 0
	return c
}

// cursors checks out a cursor family over stream slots.
func (a *arena) cursors(x *exec, slots []int) []*cursor {
	need := a.ptrN + len(slots)
	if need > len(a.ptrs) {
		a.ptrs = append(a.ptrs, make([]*cursor, need-len(a.ptrs))...)
	}
	out := a.ptrs[a.ptrN:need:need]
	a.ptrN = need
	for i, s := range slots {
		out[i] = a.cursor(x.streams[s])
	}
	return out
}

// tokens checks out a token scratch slice; contents are unspecified, the
// caller initializes every element.
func (a *arena) tokens(n int) []token.Tok {
	need := a.tokN + n
	if need > len(a.toks) {
		a.toks = append(a.toks, make([]token.Tok, need-len(a.toks))...)
	}
	out := a.toks[a.tokN:need:need]
	a.tokN = need
	return out
}

// group checks out a group accumulator for an n-dimensional reducer.
func (a *arena) group(n int) *core.GroupAcc {
	if a.groupN == len(a.groups) {
		a.groups = append(a.groups, new(core.GroupAcc))
	}
	g := a.groups[a.groupN]
	a.groupN++
	g.Reset(n)
	return g
}

// leafProg checks out a copy of a fused leaf step's instruction template.
func (a *arena) leafProg(tmpl []leafInst) []leafInst {
	need := a.leafN + len(tmpl)
	if need > len(a.leafs) {
		a.leafs = append(a.leafs, make([]leafInst, need-len(a.leafs))...)
	}
	out := a.leafs[a.leafN:need:need]
	a.leafN = need
	copy(out, tmpl)
	return out
}

// RunCtx is the reusable state of one execution: the per-slot stream
// buffers carved from one token slab, the exec view with its arena, and the
// output fibertree assembly builds from the writer streams. A context
// belongs to no program: every run retargets it to the program it runs,
// growing it only where that program needs more, so a context costs the
// largest run it has served. The zero value is ready to use; a context must
// not be used by two runs concurrently. Program.Run checks contexts out of
// the process-wide free list.
type RunCtx struct {
	p       *Program
	streams []token.Stream
	toks    []token.Tok // the slab every stream slot is carved from

	main      exec
	mainArena arena

	// The output fibertree and its levels, rewritten by every run.
	ft   fiber.Tensor
	lvls []*fiber.CompressedLevel
}

// retarget prepares the context for one run of p. The slot table and
// assembly levels grow to what p needs, never shrink, so a warm context
// retargets without allocating. Every stream slot is carved from the token
// slab at p's high-water hint with a three-index slice: a stream that
// outgrows its hint appends into private memory, not its neighbour's. The
// arena is rewound and the operand binding is installed on the exec view.
func (rc *RunCtx) retarget(p *Program, bound map[string]*fiber.Tensor, dims []int) {
	rc.p = p
	rc.streams = slices.Grow(rc.streams[:0], p.nSlot)[:p.nSlot]
	total := 0
	for i := range p.hints {
		total += int(p.hints[i].Load())
	}
	rc.toks = slices.Grow(rc.toks[:0], total)[:total]
	off := 0
	for i := range rc.streams {
		// A concurrent run may raise a hint after the sum; clamp to the slab.
		n := min(int(p.hints[i].Load()), total-off)
		rc.streams[i] = rc.toks[off : off : off+n]
		off += n
	}
	rc.mainArena.reset()
	rc.main = exec{streams: rc.streams, bound: bound, dims: dims, a: &rc.mainArena}
	order := len(p.ir.OutputVars)
	for len(rc.lvls) < order {
		rc.lvls = append(rc.lvls, &fiber.CompressedLevel{})
	}
}

// ctxs is the process-wide free list of run contexts, shared by every
// program. It holds at most GOMAXPROCS contexts — no more can run at once
// without waiting on a CPU — each the size of the largest run it served: a
// footprint the process already reached at its peak, held rather than
// raised. Unlike a sync.Pool, the collector never empties it, so a program
// run less often than the collector runs still finds a warm context.
var ctxs = make(chan *RunCtx, runtime.GOMAXPROCS(0))

// getCtx checks a context out of the free list, or makes a cold one.
func getCtx() *RunCtx {
	select {
	case rc := <-ctxs:
		return rc
	default:
		return new(RunCtx)
	}
}

// putCtx drops the context's references to the run it served and parks it,
// unless the free list is full.
func putCtx(rc *RunCtx) {
	rc.p, rc.main.bound = nil, nil
	select {
	case ctxs <- rc:
	default:
	}
}

// Run executes the program against one operand binding and assembles the
// output tensor. The context comes from the process-wide free list, so warm
// runs reuse every buffer of an earlier run and allocate only the tensor
// they return. bound and dims come from the graph's bind.Plan (sim owns that
// split).
func (p *Program) Run(bound map[string]*fiber.Tensor, dims []int) (*tensor.COO, error) {
	return p.RunTraced(bound, dims, nil)
}

// RunTraced is Run with phase tracing: the execution records "run" and
// "assemble" spans into tr. Under "run" every executed step records a child
// span named by its block label — a fused leaf level under its reducer's, a
// Par graph's steps, lane 0's, under their "… [lane 0]" labels. A nil tr
// records nothing and makes RunTraced exactly Run — the hooks cost a nil
// check and nothing else.
func (p *Program) RunTraced(bound map[string]*fiber.Tensor, dims []int, tr *obs.Trace) (*tensor.COO, error) {
	rc := getCtx()
	out, err := p.runCtx(rc, bound, dims, tr)
	putCtx(rc)
	return out, err
}

// runCtx is the shared run core: reset, execute the steps in order, raise
// capacity hints, assemble. tr, when non-nil, gets a "run" span (with
// per-step children) and an "assemble" span.
func (p *Program) runCtx(rc *RunCtx, bound map[string]*fiber.Tensor, dims []int, tr *obs.Trace) (out *tensor.COO, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(violation)
			if !ok {
				panic(r)
			}
			out, err = nil, v.err
		}
	}()
	rc.retarget(p, bound, dims)
	run := tr.Start("run")
	runSteps(&rc.main, p.steps, run)
	for i := range rc.streams {
		n := int64(len(rc.streams[i]))
		for {
			cur := p.hints[i].Load()
			if n <= cur || p.hints[i].CompareAndSwap(cur, n) {
				break
			}
		}
	}
	run.End()
	asm := tr.Start("assemble")
	out, err = p.assemble(rc)
	asm.End()
	return out, err
}

// runSteps executes a step list in order. When parent records, each step
// gets a child span named by its label; when it does not, nothing reads a
// clock.
func runSteps(x *exec, steps []stepInfo, parent obs.Span) {
	if !parent.Active() {
		for i := range steps {
			steps[i].step(x)
		}
		return
	}
	for i := range steps {
		sp := parent.Child(steps[i].si.Label)
		steps[i].step(x)
		sp.End()
	}
}

// assemble builds the output fibertree from the writer streams into the
// context's reused levels — compressed levels from the coordinate streams'
// stop structure, values in stream order — and reads the result out of it
// through tensor.FromFiberPermuted, as the other engines do.
func (p *Program) assemble(rc *RunCtx) (*tensor.COO, error) {
	x := &rc.main
	order := len(p.crdWr)
	valRec := x.streams[p.valsWr.Slot]
	if err := valRec.Validate(order); err != nil {
		return nil, fmt.Errorf("comp: writer %q stream malformed: %w", p.valsWr.Label, err)
	}
	ft := &rc.ft
	ft.Name = p.ir.OutputTensor
	ft.Dims = x.dims
	ft.Vals = ft.Vals[:0]
	for _, t := range valRec {
		if t.IsVal() {
			ft.Vals = append(ft.Vals, t.V)
		} else if t.IsEmpty() {
			ft.Vals = append(ft.Vals, 0)
		}
	}
	ft.Levels = ft.Levels[:0]
	for lvl, w := range p.crdWr {
		rec := x.streams[w.Slot]
		if err := rec.Validate(lvl + 1); err != nil {
			return nil, fmt.Errorf("comp: writer %q stream malformed: %w", w.Label, err)
		}
		L := rc.lvls[lvl]
		L.N = x.dims[lvl]
		L.Seg = append(L.Seg[:0], 0)
		L.Crd = L.Crd[:0]
		for _, t := range rec {
			switch t.Kind {
			case token.Val:
				L.Crd = append(L.Crd, int32(t.N))
			case token.Stop:
				L.Seg = append(L.Seg, int32(len(L.Crd)))
			}
		}
		if len(L.Crd) == 0 && lvl > 0 {
			// Empty-result artifact: no parent coordinates, so no fibers.
			L.Seg = L.Seg[:1]
		}
		ft.Levels = append(ft.Levels, L)
	}
	return tensor.FromFiberPermuted(ft, p.ir.OutputTensor, p.perm)
}
