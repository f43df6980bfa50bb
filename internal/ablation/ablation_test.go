package ablation

import (
	"testing"

	"sam/internal/fiber"
	"sam/internal/lang"
)

func TestCorpusDeterministic(t *testing.T) {
	a, b := Corpus(), Corpus()
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Weight != b[i].Weight {
			t.Fatalf("corpus entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCorpusParsesAndCompiles(t *testing.T) {
	for _, e := range Corpus() {
		if _, err := lang.Parse(e.Expr); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.Weight <= 0 {
			t.Fatalf("%s: nonpositive weight %d", e.Name, e.Weight)
		}
		if _, err := Analyze(e); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
}

func TestAnalyzeClassifications(t *testing.T) {
	cases := []struct {
		name  string
		entry Entry
		check func(Requirements) bool
		desc  string
	}{
		{
			"spmv-needs-mul-reduce-repeat",
			Entry{Expr: "x(i) = B(i,j) * c(j)", Weight: 1},
			func(r Requirements) bool {
				return r.Multiplier && r.Reducer && r.Repeater && r.IntersectOrLoc && !r.Adder && !r.Unioner
			},
			"SpMV needs multiplier, reducer, repeater, intersection; no adder/unioner",
		},
		{
			"add-needs-union-adder",
			Entry{Expr: "X(i,j) = B(i,j) + C(i,j)", Weight: 1},
			func(r Requirements) bool {
				return r.Adder && r.Unioner && !r.Multiplier && !r.Reducer && !r.IntersectOrLoc
			},
			"addition needs adder and unioner only",
		},
		{
			"dense-vector-rescued-by-locator",
			Entry{
				Expr: "x(i) = B(i,j) * c(j)",
				Formats: lang.Formats{
					"c": lang.Uniform(1, fiber.Dense),
				},
				Weight: 1,
			},
			func(r Requirements) bool { return r.IntersectOrLoc && !r.Intersecter },
			"a dense operand's intersection is replaceable by a locator",
		},
		{
			"compressed-pair-not-rescued",
			Entry{Expr: "x(i) = b(i) * c(i)", Weight: 1},
			func(r Requirements) bool { return r.Intersecter },
			"two compressed operands still need a real intersecter",
		},
		{
			"identity-needs-neither",
			Entry{Expr: "X(i,j) = B(i,j)", Weight: 1},
			func(r Requirements) bool {
				return !r.Multiplier && !r.Adder && !r.Reducer && r.AnyScanner && r.AnyWriter
			},
			"reformatting needs only scanners and writers",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Analyze(tc.entry)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(r) {
				t.Errorf("%s: requirements %+v", tc.desc, r)
			}
		})
	}
}

func TestRunPercentagesConsistent(t *testing.T) {
	rows, unique, all, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Removals) {
		t.Fatalf("%d rows, want %d", len(rows), len(Removals))
	}
	for _, r := range rows {
		if r.UniqueLost < 0 || r.UniqueLost > unique {
			t.Errorf("%s: unique lost %d out of range", r.Primitive, r.UniqueLost)
		}
		if r.AllLost < 0 || r.AllLost > all {
			t.Errorf("%s: all lost %d out of range", r.Primitive, r.AllLost)
		}
		if r.UniquePct < 0 || r.UniquePct > 100 || r.AllPct < 0 || r.AllPct > 100 {
			t.Errorf("%s: percentages out of range: %+v", r.Primitive, r)
		}
	}
	// Monotonicity built into the removal definitions: removing both
	// scanner kinds loses at least as much as removing one; same for
	// writers and intersecters.
	pct := map[string]float64{}
	for _, r := range rows {
		pct[r.Primitive] = r.UniquePct
	}
	if pct["Comp. + Uncomp. Level Scanners"] < pct["Comp. Level Scanner"] {
		t.Error("scanner-removal monotonicity violated")
	}
	if pct["Comp. + Uncomp. Level Writers"] < pct["Comp. Level Writer"] {
		t.Error("writer-removal monotonicity violated")
	}
	if pct["Intersecter w/ Locator Removed"] < pct["Intersecter keep Locator"] {
		t.Error("intersecter-removal monotonicity violated")
	}
}
