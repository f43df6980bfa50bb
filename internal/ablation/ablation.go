// Package ablation reproduces the paper's Table 2 study: how many sparse
// tensor algebra algorithms become inexpressible when one SAM primitive is
// removed.
//
// The paper analyzed 23,794 algorithms submitted by users to the TACO
// website (3,839 distinct expression+format combinations). That dataset is
// not public, so this package substitutes a deterministic synthetic corpus
// whose kernel-class mix mimics the published workload shape: low-order
// multiply kernels dominate, additions and scalar expressions are rare, and
// most tensors use a dense outer level with compressed inner levels
// (TACO's CSR default) — see DESIGN.md for the substitution rationale. Each
// corpus entry is compiled with Custard and classified by the primitives its
// graph requires; a removal loses every entry whose requirement set contains
// the removed primitive, with the locator rows re-compiling under the
// iterate-locate rewrite to decide whether a locator can stand in for an
// intersecter.
package ablation

import (
	"fmt"
	"math/rand"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// Entry is one corpus algorithm: an expression, a format assignment, and a
// popularity weight standing in for how many users submitted it.
type Entry struct {
	Name    string
	Expr    string
	Formats lang.Formats
	// OutputDense records whether the user asked for a dense result (the
	// writer-removal rows distinguish compressed from dense writers).
	OutputDense bool
	Weight      int
}

// kernelClass describes one family of corpus entries.
type kernelClass struct {
	name   string
	exprs  []string
	weight int // total submissions across the family
}

// classes is the synthetic workload mix. Weights approximate the TACO
// website's skew toward matrix kernels.
var classes = []kernelClass{
	{"spmv", []string{
		"x(i) = B(i,j) * c(j)",
		"x(i) = B^T(i,j) * c(j)",
		"x(i) = a * B(i,j) * c(j)",
	}, 6200},
	{"spmm", []string{
		"X(i,j) = B(i,k) * C(k,j)",
		"X(i,j) = a * B(i,k) * C(k,j)",
	}, 5200},
	{"sddmm", []string{
		"X(i,j) = B(i,j) * C(i,k) * D(j,k)",
	}, 1600},
	{"elementwise-mul", []string{
		"X(i,j) = B(i,j) * C(i,j)",
		"x(i) = b(i) * c(i)",
		"X(i,j,k) = B(i,j,k) * C(i,j,k)",
	}, 2600},
	{"addition", []string{
		"X(i,j) = B(i,j) + C(i,j)",
		"x(i) = b(i) + c(i)",
		"X(i,j) = B(i,j) + C(i,j) + D(i,j)",
		"X(i,j,k) = B(i,j,k) + C(i,j,k)",
	}, 2100},
	{"residual-axpy", []string{
		"x(i) = b(i) - C(i,j) * d(j)",
		"x(i) = a * b(i) + c(i)",
		"x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)",
	}, 1500},
	{"tensor-contractions", []string{
		"X(i,j) = B(i,j,k) * c(k)",
		"X(i,j,k) = B(i,j,l) * C(k,l)",
		"X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",
	}, 2400},
	{"reductions", []string{
		"x(i) = B(i,j) * c(j)",
		"x = B(i,j) * C(i,j)",
		"x = b(i) * c(i)",
	}, 1300},
	{"scalar-scaling", []string{
		"X(i,j) = a * B(i,j)",
		"x(i) = a * b(i)",
	}, 700},
	{"identity-reformat", []string{
		"X(i,j) = B(i,j)",
		"x(i) = b(i)",
	}, 194},
}

// formatVariant describes one format assignment applied to a class.
type formatVariant struct {
	suffix      string
	inputFmt    func(order int) lang.Format
	outputDense bool
	share       int // weight share out of 10
}

var variants = []formatVariant{
	{"csr", func(o int) lang.Format { return lang.CSR(o) }, true, 4},
	{"dcsr", func(o int) lang.Format { return lang.Uniform(o, fiber.Compressed) }, false, 3},
	{"dense-x-sparse", nil, true, 2}, // first operand dense, rest compressed
	{"all-dense", func(o int) lang.Format { return lang.Uniform(o, fiber.Dense) }, true, 1},
}

// Corpus generates the deterministic synthetic corpus.
func Corpus() []Entry {
	rng := rand.New(rand.NewSource(42))
	var out []Entry
	for _, cl := range classes {
		per := cl.weight / len(cl.exprs)
		for xi, expr := range cl.exprs {
			e := lang.MustParse(expr)
			for _, v := range variants {
				formats := lang.Formats{}
				dense := v.outputDense
				for ai, a := range e.Accesses() {
					if len(a.Idx) == 0 {
						continue
					}
					switch {
					case v.inputFmt != nil:
						formats[a.Tensor] = v.inputFmt(len(a.Idx))
					case ai == 0:
						formats[a.Tensor] = lang.Uniform(len(a.Idx), fiber.Dense)
					default:
						formats[a.Tensor] = lang.Uniform(len(a.Idx), fiber.Compressed)
					}
				}
				w := per * v.share / 10
				if w == 0 {
					w = 1
				}
				// Jitter weights deterministically so ties break naturally.
				w += rng.Intn(w/8 + 1)
				out = append(out, Entry{
					Name:        fmt.Sprintf("%s-%d-%s", cl.name, xi, v.suffix),
					Expr:        expr,
					Formats:     formats,
					OutputDense: dense,
					Weight:      w,
				})
			}
		}
	}
	return out
}

// Requirements is the set of SAM primitives an algorithm needs.
type Requirements struct {
	CompScanner    bool
	AnyScanner     bool
	Repeater       bool
	Unioner        bool
	Intersecter    bool // needs an intersecter even with locators available
	IntersectOrLoc bool // needs an intersecter or a locator
	Adder          bool
	Multiplier     bool
	Reducer        bool
	Dropper        bool
	CompWriter     bool
	AnyWriter      bool
}

// Analyze compiles an entry and derives its primitive requirements.
func Analyze(e Entry) (Requirements, error) {
	var req Requirements
	st := lang.MustParse(e.Expr)
	g, err := custard.Compile(st, e.Formats, lang.Schedule{})
	if err != nil {
		return req, fmt.Errorf("ablation: compiling %s: %w", e.Expr, err)
	}
	gl, err := custard.Compile(st, e.Formats, lang.Schedule{UseLocators: true})
	if err != nil {
		return req, fmt.Errorf("ablation: compiling %s with locators: %w", e.Expr, err)
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.Scanner:
			req.AnyScanner = true
			if n.Format == fiber.Compressed || n.Format == fiber.LinkedList {
				req.CompScanner = true
			}
		case graph.Repeat:
			req.Repeater = true
		case graph.Union:
			req.Unioner = true
		case graph.Intersect, graph.GallopIntersect:
			req.IntersectOrLoc = true
		case graph.ALU:
			if n.Op == lang.Mul {
				req.Multiplier = true
			} else {
				req.Adder = true
			}
		case graph.Reduce:
			req.Reducer = true
		case graph.CrdDrop:
			// Droppers clean ineffectual coordinates out of compressed
			// results; a dense output can keep its explicit zeros, so only
			// compressed-output algorithms strictly require the block.
			if !e.OutputDense {
				req.Dropper = true
			}
		}
	}
	// The intersecter survives locator substitution if the locator-rewritten
	// graph still contains intersecters.
	for _, n := range gl.Nodes {
		if n.Kind == graph.Intersect || n.Kind == graph.GallopIntersect {
			req.Intersecter = true
		}
	}
	if len(st.OutputVars()) > 0 {
		req.AnyWriter = true
		if !e.OutputDense {
			req.CompWriter = true
		}
	}
	return req, nil
}

// Row is one Table 2 line: how many algorithms are lost when a primitive is
// removed.
type Row struct {
	Primitive  string
	UniqueLost int
	AllLost    int
	UniquePct  float64
	AllPct     float64
}

// Removals lists the twelve removal rows of Table 2, each mapping a
// requirement set to "lost".
var Removals = []struct {
	Name string
	Lost func(Requirements) bool
}{
	{"Comp. Level Scanner", func(r Requirements) bool { return r.CompScanner }},
	{"Comp. + Uncomp. Level Scanners", func(r Requirements) bool { return r.AnyScanner }},
	{"Repeater", func(r Requirements) bool { return r.Repeater }},
	{"Unioner", func(r Requirements) bool { return r.Unioner }},
	{"Intersecter keep Locator", func(r Requirements) bool { return r.Intersecter }},
	{"Intersecter w/ Locator Removed", func(r Requirements) bool { return r.IntersectOrLoc }},
	{"Adder", func(r Requirements) bool { return r.Adder }},
	{"Multiplier", func(r Requirements) bool { return r.Multiplier }},
	{"Reducer", func(r Requirements) bool { return r.Reducer }},
	{"Coordinate Dropper", func(r Requirements) bool { return r.Dropper }},
	{"Comp. Level Writer", func(r Requirements) bool { return r.CompWriter }},
	{"Comp. + Uncomp. Level Writers", func(r Requirements) bool { return r.AnyWriter }},
}

// Run performs the full Table 2 analysis over the corpus.
func Run() ([]Row, int, int, error) {
	corpus := Corpus()
	reqs := make([]Requirements, len(corpus))
	totalAll := 0
	for i, e := range corpus {
		r, err := Analyze(e)
		if err != nil {
			return nil, 0, 0, err
		}
		reqs[i] = r
		totalAll += e.Weight
	}
	rows := make([]Row, 0, len(Removals))
	for _, rm := range Removals {
		row := Row{Primitive: rm.Name}
		for i, e := range corpus {
			if rm.Lost(reqs[i]) {
				row.UniqueLost++
				row.AllLost += e.Weight
			}
		}
		row.UniquePct = 100 * float64(row.UniqueLost) / float64(len(corpus))
		row.AllPct = 100 * float64(row.AllLost) / float64(totalAll)
		rows = append(rows, row)
	}
	return rows, len(corpus), totalAll, nil
}
