package comp_test

import (
	"os"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/graph"
	"sam/internal/token"
)

// TestCrdDropEdgeCases runs every row of the dropper's conformance table,
// internal/core/testdata/drop_rules.txt, through stepDrop: the outputs and
// failure texts must be core.Dropper's (core's TestCrdDropEdgeCases runs the
// same rows), word for word.
func TestCrdDropEdgeCases(t *testing.T) {
	raw, err := os.ReadFile("../core/testdata/drop_rules.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "|")
		for i := range f {
			f[i] = strings.TrimSpace(f[i])
		}
		if len(f) != 6 && (len(f) != 5 || !strings.HasPrefix(f[4], "fails: ")) {
			t.Fatalf("drop_rules.txt: malformed row %q", line)
		}
		t.Run(f[0], func(t *testing.T) {
			si := comp.StepIR{Kind: graph.CrdDrop, Label: "drop", DropVal: f[1] == "val"}
			outs, err := comp.RunStep(si, token.MustParse(f[2]), token.MustParse(f[3]))
			if len(f) == 5 {
				want := "comp: drop: " + strings.TrimPrefix(f[4], "fails: ")
				if err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %s", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			for i, label := range []string{"outer", "inner"} {
				if want := token.MustParse(f[4+i]); !token.Equal(outs[i], want) {
					t.Errorf("%s stream mismatch:\n got:  %s\n want: %s", label, outs[i], want)
				}
			}
		})
	}
}
