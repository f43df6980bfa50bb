package comp_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/graph"
	"sam/internal/token"
)

// TestMergeRules runs every row of the merger's conformance table,
// internal/core/testdata/merge_rules.txt, through stepMerge: the outputs and
// failure texts must be core.Merger's (core's TestMergeRules runs the same
// rows under Run and RunNaive), word for word.
func TestMergeRules(t *testing.T) {
	raw, err := os.ReadFile("../core/testdata/merge_rules.txt")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]graph.Kind{"intersect": graph.Intersect, "union": graph.Union}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "|")
		for i := range f {
			f[i] = strings.TrimSpace(f[i])
		}
		m := len(f) - 3
		fails, isFail := strings.CutPrefix(f[len(f)-1], "fails: ")
		want := strings.Split(f[len(f)-1], "/")
		if _, ok := kinds[f[1]]; !ok || m < 2 || !isFail && len(want) != m+1 {
			t.Fatalf("merge_rules.txt: malformed row %q", line)
		}
		t.Run(f[0], func(t *testing.T) {
			var ins []token.Stream
			for i := range m {
				in := strings.Split(f[2+i], "/")
				if len(in) != 2 {
					t.Fatalf("merge_rules.txt: input %d is not crd / ref: %q", i, f[2+i])
				}
				ins = append(ins, token.MustParse(in[0]), token.MustParse(in[1]))
			}
			si := comp.StepIR{Kind: kinds[f[1]], Label: "merge", Ways: m}
			outs, err := comp.RunStep(si, ins...)
			if isFail {
				if err == nil || err.Error() != "comp: merge: "+fails {
					t.Fatalf("err = %v, want comp: merge: %s", err, fails)
				}
				return
			}
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			for i, w := range want {
				if w := token.MustParse(w); !slices.Equal(outs[i], w) {
					t.Errorf("output %d stream mismatch:\n got:  %s\n want: %s", i, outs[i], w)
				}
			}
		})
	}
}
