// Package opt is the SAM graph optimizer: a pipeline of semantics-preserving
// rewrite passes that run between Custard compilation and program build.
// Custard lowers tensor index notation structurally, one block per paper
// definition, so the emitted graphs carry redundancy a hardware program
// would not: duplicated operand streams when a tensor is accessed twice,
// and merge blocks co-iterating a stream against itself. Droppers are not
// redundant: custard places one wherever an output fiber can turn out empty,
// and every engine validates the assembled output strictly. Each pass
// removes one redundancy class and is proven bit-identical on the observable
// output (the assembled COO tensor) by the differential and fuzz battery in
// this package; simulated cycles and block counts only go down.
//
// The pipeline is selected by lang.Schedule.Opt: level 0 compiles the
// paper-faithful graph untouched (the default, and what Table 1 counts),
// level 1 runs every pass to a fixpoint. Passes, in pipeline order:
//
//   - dedup: common-stream deduplication. Equivalent operand bindings (same
//     source tensor, mode order, and formats) collapse to one binding, and
//     structurally identical pure blocks — same kind, same configuration,
//     same input streams — are hash-consed so one block fans out instead of
//     two computing the same stream. Root sources all merge into one.
//   - mergefuse: duplicate-input merge collapse. An intersecter or unioner
//     fed the same (crd, ref) pair on several ways (the X(i,j)=B(i,j)*B(i,j)
//     shape after dedup) drops the duplicate ways; a merge left with one
//     distinct way is deleted and its streams pass through.
//   - dce: dead-block elimination. Blocks with no path to a level writer
//     cannot affect the output and are removed, together with bindings no
//     surviving block references.
package opt

import (
	"fmt"

	"sam/internal/graph"
)

// MaxLevel is the highest optimization level the pipeline knows; Schedule.Opt
// values outside [0, MaxLevel] are rejected at compile time.
const MaxLevel = 1

// Pass is one rewrite pass: a named graph transformation that preserves the
// assembled output bit-for-bit.
type Pass struct {
	// Name is the pass's stable identifier, used in reports and golden tests.
	Name string
	// Desc is a one-line description for documentation and usage output.
	Desc string

	run func(g *graph.Graph) (int, error)
}

// Apply runs the pass in place and returns how many rewrites it applied
// (blocks removed, ways dropped, streams redirected). The rewritten graph is
// re-validated; a structural error means a pass bug and is returned.
func (p Pass) Apply(g *graph.Graph) (int, error) {
	n, err := p.run(g)
	if err != nil {
		return n, fmt.Errorf("opt: pass %s: %w", p.Name, err)
	}
	if n > 0 {
		if err := g.Validate(); err != nil {
			return n, fmt.Errorf("opt: pass %s produced invalid graph: %w", p.Name, err)
		}
	}
	return n, nil
}

// Passes returns the pipeline for one optimization level, in application
// order. Level 0 is empty.
func Passes(level int) []Pass {
	if level <= 0 {
		return nil
	}
	return []Pass{
		{Name: "dedup", Desc: "merge equivalent bindings and hash-cons identical pure blocks", run: runDedup},
		{Name: "mergefuse", Desc: "drop duplicate (crd, ref) ways from intersecters and unioners", run: runMergeFuse},
		{Name: "dce", Desc: "remove blocks with no path to a level writer", run: runDCE},
	}
}

// PassByName resolves one pass for targeted testing.
func PassByName(name string) (Pass, error) {
	for _, p := range Passes(MaxLevel) {
		if p.Name == name {
			return p, nil
		}
	}
	return Pass{}, fmt.Errorf("opt: unknown pass %q", name)
}

// PassStat records one pass's total rewrites across all pipeline rounds.
type PassStat struct {
	Pass    string `json:"pass"`
	Applied int    `json:"applied"`
}

// Report summarizes one Optimize run.
type Report struct {
	Level       int        `json:"level"`
	NodesBefore int        `json:"nodes_before"`
	NodesAfter  int        `json:"nodes_after"`
	EdgesBefore int        `json:"edges_before"`
	EdgesAfter  int        `json:"edges_after"`
	Rounds      int        `json:"rounds"`
	Passes      []PassStat `json:"passes,omitempty"`
}

// maxRounds bounds the fixpoint loop; each pass strictly shrinks the graph
// when it applies, so real pipelines converge in two or three rounds.
const maxRounds = 10

// Optimize rewrites the graph in place at the given level and reports what
// changed. Level 0 is the identity. The pipeline runs to a fixpoint: a pass
// can expose work for an earlier one (dedup creates the duplicate merge ways
// mergefuse collapses), so rounds repeat until a full round applies nothing.
// A non-empty pipeline stamps g.OptLevel, which identifies the graph and
// changes no engine's behaviour.
func Optimize(g *graph.Graph, level int) (*Report, error) {
	if level < 0 || level > MaxLevel {
		return nil, fmt.Errorf("opt: unknown optimization level %d (want 0..%d)", level, MaxLevel)
	}
	rep := &Report{
		Level:       level,
		NodesBefore: len(g.Nodes), EdgesBefore: len(g.Edges),
		NodesAfter: len(g.Nodes), EdgesAfter: len(g.Edges),
	}
	passes := Passes(level)
	if len(passes) == 0 {
		return rep, nil
	}
	if level > g.OptLevel {
		g.OptLevel = level
	}
	totals := make([]PassStat, len(passes))
	for i, p := range passes {
		totals[i].Pass = p.Name
	}
	for round := 0; round < maxRounds; round++ {
		rep.Rounds = round + 1
		changed := 0
		for i, p := range passes {
			n, err := p.Apply(g)
			if err != nil {
				return nil, err
			}
			totals[i].Applied += n
			changed += n
		}
		if changed == 0 {
			break
		}
	}
	for _, t := range totals {
		if t.Applied > 0 {
			rep.Passes = append(rep.Passes, t)
		}
	}
	rep.NodesAfter, rep.EdgesAfter = len(g.Nodes), len(g.Edges)
	return rep, nil
}
