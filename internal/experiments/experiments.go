// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment returns structured rows plus a
// text rendering with the same series the paper reports; cmd/sambench and
// the root package's `go test -bench` harnesses (bench_test.go) call into
// this package. It measures no performance: that is bench/.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// SimOptions is the simulation configuration shared by every experiment.
// cmd/sambench overrides it (e.g. -engine=naive) to re-run the evaluation
// under a different executor; the zero value selects the default
// event-driven cycle engine.
var SimOptions = sim.Options{}

// compileRun compiles and simulates one statement, returning the result.
func compileRun(expr string, formats lang.Formats, sched lang.Schedule, inputs map[string]*tensor.COO) (*sim.Result, *graph.Graph, error) {
	e, err := lang.Parse(expr)
	if err != nil {
		return nil, nil, err
	}
	g, err := custard.Compile(e, formats, sched)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(g, inputs, SimOptions)
	if err != nil {
		return nil, nil, err
	}
	return res, g, nil
}

// checkGold verifies a simulator result against the dense reference.
func checkGold(expr string, inputs map[string]*tensor.COO, res *sim.Result) error {
	e, err := lang.Parse(expr)
	if err != nil {
		return err
	}
	want, err := lang.Gold(e, inputs)
	if err != nil {
		return err
	}
	return tensor.Equal(res.Output, want, 1e-6)
}

// sparseUniform draws a matrix with the given density (the paper's "95%
// sparse" corresponds to density 0.05).
func sparseUniform(name string, rng *rand.Rand, rows, cols int, density float64) *tensor.COO {
	nnz := int(density * float64(rows) * float64(cols))
	if nnz < 1 {
		nnz = 1
	}
	return tensor.UniformRandom(name, rng, nnz, rows, cols)
}

// table renders rows of labeled values as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
