// Package comp is the compiled co-iteration engine: it lowers a SAM
// dataflow graph once into a tree of Go closures that execute the graph
// directly, skipping the token queues and per-cycle scheduling the
// cycle-accurate engines pay on every edge.
//
// Lowering is split into two halves. Lower wires the graph with graph.Wire,
// whose streams are its stream slots (the cycle engines number their
// streams the same way), walks it in topological order and flattens it into
// a serializable IR: one StepIR per block with its ports' slots by position
// and its block parameters, plus the writer table and the output metadata
// (ir.go). Materialize binds each StepIR to its merged-
// loop closure through an opcode dispatch and rebuilds the derived state
// (the output permutation). Compile is Lower followed by
// Materialize; internal/prog serializes the IR between the two halves, so
// a program loaded from an artifact executes the exact same closure bodies
// as a direct compilation.
//
// Each closure is a merged loop over its operands' full streams: level
// scanners become cursor walks over fiber.Tensor storage, intersections and
// unions become two-pointer merges, and ALUs, reducers, droppers and writers
// run as tight loops fused over whole fibers at a time. A Par graph's lanes
// (paper Section 4.4) model parallel hardware, and a join's output is what
// lane 0 computes over the whole stream, so Materialize first collapses the
// fork, the lanes past lane 0 and the joins (collapse.go): comp runs a Par
// graph as its Par 1 program, lane 0's steps under their own labels. Before
// binding, Materialize then fuses away the edges that only hand one loop's
// tokens to the next (fuse.go): every two-way intersect fed by two scanners nothing else
// reads becomes one co-iteration over the two storage levels — the kernel
// GallopIntersect blocks already run — and every leaf level whose matches
// feed array loads, an ALU tree and a scalar reducer becomes one loop that
// emits the reducer's tokens, so those streams are never written. The
// invariant: every stream slot that survives fusion holds, token for token,
// what the same edge carries on the cycle engines; the fused-away edges were
// administrative, a buffer one loop filled for the next to drain. Outputs are
// therefore bit-identical, which the differential battery in this package and
// the engine registration in internal/sim enforce across kernels, schedules,
// lane counts and fuzzed inputs, and the fused-vs-unfused battery
// (fuse_test.go) checks slot by slot.
//
// Supported blocks are everything except the bitvector pipeline (bitvector
// scanners, intersecters, vector ALUs and writers stay on the cycle
// engines); Check reports support up front, and sim's comp engine rejects a
// graph it fails with its error. The compiled engine computes functional
// results only: no cycle counts, no stream statistics.
package comp

import (
	"fmt"
	"sync/atomic"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/token"
)

// violation aborts execution on a stream protocol violation; Run recovers it
// into an error. A violation in this engine is a lowering bug (the cycle
// engines accept the same graphs) or a corrupt artifact, so it surfaces as
// the run's error.
type violation struct{ err error }

func fail(format string, args ...any) {
	panic(violation{fmt.Errorf("comp: %s", fmt.Sprintf(format, args...))})
}

// step executes one lowered block against the run's stream buffers.
type step func(x *exec)

// stepInfo pairs one executed step's IR record (its label names its trace
// span) with its bound closure.
type stepInfo struct {
	si   *StepIR
	step step
}

// Program is a lowered IR bound to closures: its structure is immutable
// after Compile/Materialize and it is safe for concurrent Run calls — each
// run checks a reusable RunCtx out of the process-wide free list. A program
// owns no run state beyond its stream-length hints.
type Program struct {
	ir    *IR
	steps []stepInfo
	nSlot int

	// The writers assembly reads the output fibertree from: a coordinate
	// writer per output level, in level order, and the value writer.
	crdWr  []WriterIR
	valsWr WriterIR

	// perm is the output's permutation from loop order to left-hand-side
	// order (tensor.PermOf).
	perm []int

	// hints holds per-slot stream-length high-water marks from earlier runs,
	// so repeated runs (the serving pattern) carve their buffers from the
	// context's slab at that size and skip append growth. Raised
	// monotonically via compare-and-swap; a stale read only costs one
	// regrowth.
	hints []atomic.Int64
}

// Check reports whether the compiled engine can lower the graph. Only the
// bitvector pipeline is outside its block set; graphs using it run on the
// cycle engines, and sim's comp engine rejects them with this error.
func Check(g *graph.Graph) error {
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.BVScanner, graph.BVIntersect, graph.VecLoad, graph.VecALU,
			graph.BVExpand, graph.BVWriter, graph.VecValsWriter:
			return fmt.Errorf("comp: bitvector block %q needs a cycle engine", n.Label)
		case graph.Root, graph.Scanner, graph.Repeat, graph.Intersect, graph.Union,
			graph.GallopIntersect, graph.Locate, graph.Array, graph.ALU, graph.Reduce,
			graph.CrdDrop, graph.CrdWriter, graph.ValsWriter,
			graph.Parallelize, graph.Serialize, graph.SerializePair:
		default:
			return fmt.Errorf("comp: block kind %v not lowerable", n.Kind)
		}
	}
	return nil
}

// Compile lowers a graph into a Program: Lower to the flat IR, Materialize
// back to closures. It fails for graphs outside the supported block set
// (see Check) and for structurally broken graphs.
func Compile(g *graph.Graph) (*Program, error) {
	ir, err := Lower(g)
	if err != nil {
		return nil, err
	}
	return Materialize(ir)
}

// IR returns the program's lowered intermediate form, the unit
// internal/prog serializes.
func (p *Program) IR() *IR { return p.ir }

// exec is the view a run executes against: the run's stream buffers indexed
// by slot, the bound operand storage and output dimensions, and the arena
// for cursor/scratch checkouts.
type exec struct {
	streams []token.Stream
	bound   map[string]*fiber.Tensor
	dims    []int
	a       *arena
}

// push appends a token to a stream buffer; slot -1 discards.
func (x *exec) push(slot int, t token.Tok) {
	if slot >= 0 {
		x.streams[slot] = append(x.streams[slot], t)
	}
}

// cur opens a read cursor over a stream buffer, checked out of the arena.
func (x *exec) cur(slot int) *cursor { return x.a.cursor(x.streams[slot]) }

// curs opens cursors over a slot family.
func (x *exec) curs(slots []int) []*cursor { return x.a.cursors(x, slots) }

// level fetches a bound operand's storage level.
func (x *exec) level(label, operand string, lvl int) fiber.Level {
	t, ok := x.bound[operand]
	if !ok {
		fail("node %q references unbound operand %q", label, operand)
	}
	if lvl >= len(t.Levels) {
		fail("node %q references level %d of order-%d operand %q", label, lvl, len(t.Levels), operand)
	}
	return t.Levels[lvl]
}

// fiberOf returns the fiber of an n-fiber level that reference token t
// selects. References are stream data: one outside the level (a corrupt
// artifact aiming a step at the wrong level) fails the run here, once per
// fiber, instead of indexing past the level's segment array; so does a
// value token. core.Scanner fails with the same texts.
func fiberOf(label string, t token.Tok, n int) int {
	if t.Marked() {
		fail("%s: expected reference or empty token, got %v", label, t)
	}
	if t.N < 0 || t.N >= int64(n) {
		fail("%s: fiber reference %d outside level of %d fibers", label, t.N, n)
	}
	return int(t.N)
}

// vals fetches a bound operand's value array.
func (x *exec) vals(label, operand string) []float64 {
	t, ok := x.bound[operand]
	if !ok {
		fail("node %q references unbound operand %q", label, operand)
	}
	return t.Vals
}

// cursor reads a materialized stream with one-token lookahead, the batch
// analogue of a queue's peek/pop.
type cursor struct {
	s token.Stream
	i int
}

func (c *cursor) peek() token.Tok {
	if c.i >= len(c.s) {
		fail("stream ended before done token")
	}
	return c.s[c.i]
}

func (c *cursor) next() token.Tok {
	t := c.peek()
	c.i++
	return t
}

// topoOrder sorts nodes so producers precede consumers. Kahn's queue pops
// in insertion order, so the order — and everything derived from it, the IR
// step list included — is deterministic for a given graph.
func topoOrder(g *graph.Graph) ([]*graph.Node, error) {
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	first, succ := graph.EdgeLists(g, func(e *graph.Edge) (int, int) { return e.From, e.To })
	queue := make([]int, 0, len(g.Nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	out := make([]*graph.Node, 0, len(g.Nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, g.Nodes[n])
		for _, s := range succ[first[n]:first[n+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(out) != len(g.Nodes) {
		return nil, fmt.Errorf("comp: graph has a cycle")
	}
	return out, nil
}
