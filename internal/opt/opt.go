// Package opt holds the optimization-level contract of lang.Schedule.Opt.
// Custard lowers tensor index notation one block per paper definition, and
// that graph is what every level runs: the level is stamped on g.OptLevel,
// which identifies the graph (fingerprint, artifact) and changes no block
// and no engine's behaviour. The one saving a repeated operand offers —
// building its storage once — is made by package bind at every level.
//
// Optimize stays only because the benchmark's layer ladder (bench/layers.go)
// times it; the package folds into custard once that rung goes.
package opt

import (
	"fmt"

	"sam/internal/graph"
)

// MaxLevel is the highest optimization level; Schedule.Opt values outside
// [0, MaxLevel] are rejected at compile time.
const MaxLevel = 1

// Report summarizes one Optimize run. Optimize rewrites no block, so
// NodesAfter always equals NodesBefore.
type Report struct {
	Level, NodesBefore, NodesAfter int
}

// Optimize checks the level and stamps it on the graph: a level above the
// graph's current OptLevel raises it, and level 0 is the identity.
func Optimize(g *graph.Graph, level int) (*Report, error) {
	if level < 0 || level > MaxLevel {
		return nil, fmt.Errorf("opt: unknown optimization level %d (want 0..%d)", level, MaxLevel)
	}
	if level > g.OptLevel {
		g.OptLevel = level
	}
	return &Report{Level: level, NodesBefore: len(g.Nodes), NodesAfter: len(g.Nodes)}, nil
}
