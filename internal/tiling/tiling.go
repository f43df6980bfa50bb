// Package tiling executes SAM computations on finite memories by tile
// sequencing (paper Section 4.1, Figure 9): tensors are pre-tiled so each
// tile fits the accelerator's scratchpad, an outer tile-coordinate graph
// co-iterates tile IDs (skipping empty tile pairs exactly like coordinate
// intersection skips zeros), and the inner SAM computation graph runs once
// per surviving tile pair. Host-side accumulation merges partial outputs —
// the role of the CPU and main memory in Figure 9.
//
// Unlike internal/memmodel (an analytic recreation of the ExTensor study),
// this package runs every tile pair through the real cycle engine, so it is
// exact but slower; no test cross-checks the two. RowBlocks, Distributable
// and MergePartials are the same idea scaled out: the serving router's tile
// algebra.
package tiling

import (
	"fmt"

	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// Options configures tiled SpM*SpM execution.
type Options struct {
	// TileSize is the edge of one square tile (the scratchpad-sized unit).
	TileSize int
	// Schedule is the per-tile dataflow; defaults to linear combination.
	Schedule lang.Schedule
	// PEs is the number of processing elements executing tile pairs; tile
	// pairs round-robin across PEs and the modeled runtime is the busiest
	// PE (coarse-grained parallelism, paper Section 4.4).
	PEs int
}

// Stats reports a tiled run.
type Stats struct {
	// Cycles models the accelerator runtime: the busiest PE's total.
	Cycles int
	// TotalTileCycles is the sum over all tile-pair launches.
	TotalTileCycles int
	// TilePairs counts inner-graph launches.
	TilePairs int
	// SequencerCycles counts tile-coordinate tokens processed by the outer
	// tile-sequencing graph.
	SequencerCycles int
}

// tileKey addresses one tile.
type tileKey struct{ r, c int }

// shard splits a matrix into tile-local COO matrices keyed by tile.
func shard(m *tensor.COO, tile int) map[tileKey]*tensor.COO {
	out := map[tileKey]*tensor.COO{}
	for _, p := range m.Pts {
		k := tileKey{int(p.Crd[0]) / tile, int(p.Crd[1]) / tile}
		t, ok := out[k]
		if !ok {
			rows, cols := tile, tile
			t = tensor.NewCOO(m.Name, rows, cols)
			out[k] = t
		}
		t.Append(p.Val, p.Crd[0]-int64(k.r*tile), p.Crd[1]-int64(k.c*tile))
	}
	for _, t := range out {
		t.Sort()
	}
	return out
}

// SpMSpM computes X = B*C by tile sequencing and returns the result with
// execution statistics. The result is exact: it is checked against the
// unfused whole-matrix graph in the package tests.
func SpMSpM(b, c *tensor.COO, opt Options) (*tensor.COO, Stats, error) {
	if opt.TileSize <= 0 {
		return nil, Stats{}, fmt.Errorf("tiling: tile size %d", opt.TileSize)
	}
	if opt.PEs <= 0 {
		opt.PEs = 1
	}
	sched := opt.Schedule
	if len(sched.LoopOrder) == 0 {
		sched.LoopOrder = []string{"i", "k", "j"}
	}
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	g, err := custard.Compile(e, nil, sched)
	if err != nil {
		return nil, Stats{}, err
	}

	tb := shard(b, opt.TileSize)
	tc := shard(c, opt.TileSize)

	// Tile-level Gustavson: for every B tile (ti,tk) intersect with C tiles
	// (tk,tj). Build the tile-coordinate structures the sequencing graph
	// would stream.
	cRows := map[int][]tileKey{}
	for k := range tc {
		cRows[k.r] = append(cRows[k.r], k)
	}

	var st Stats
	peLoad := make([]int, opt.PEs)
	acc := map[[2]int64]float64{}
	pe := 0
	for bk, btile := range tb {
		st.SequencerCycles++
		for _, ck := range cRows[bk.c] {
			st.SequencerCycles++
			st.TilePairs++
			res, err := runTile(g, btile, tc[ck])
			if err != nil {
				return nil, Stats{}, fmt.Errorf("tiling: tile (%d,%d)x(%d,%d): %w", bk.r, bk.c, ck.r, ck.c, err)
			}
			st.TotalTileCycles += res.Cycles
			peLoad[pe] += res.Cycles
			pe = (pe + 1) % opt.PEs
			// Host-side merge: scatter the partial tile into the global
			// accumulator (Figure 9's buffer memory).
			baseI, baseJ := int64(bk.r*opt.TileSize), int64(ck.c*opt.TileSize)
			for _, p := range res.Output.Pts {
				acc[[2]int64{baseI + p.Crd[0], baseJ + p.Crd[1]}] += p.Val
			}
		}
		// Skipped C rows cost one tile-coordinate token (sparse tile
		// skipping, paper Section 6.4).
		st.SequencerCycles += len(cRows) - len(cRows[bk.c])
	}
	for _, l := range peLoad {
		if l > st.Cycles {
			st.Cycles = l
		}
	}
	st.Cycles += st.SequencerCycles

	out := tensor.NewCOO("X", b.Dims[0], c.Dims[1])
	for k, v := range acc {
		if v != 0 {
			out.Append(v, k[0], k[1])
		}
	}
	out.Sort()
	return out, st, nil
}

// runTile executes the compiled per-tile graph on one tile pair.
func runTile(g *graph.Graph, b, c *tensor.COO) (*sim.Result, error) {
	return sim.Run(g, map[string]*tensor.COO{"B": b, "C": c}, sim.Options{})
}
