package custard

import (
	"slices"
	"testing"

	"sam/internal/graph"
	"sam/internal/lang"
)

// TestDropperPlacement pins where construct places coordinate droppers, by
// label and mode, at both Opt levels: the optimizer never removes one. A
// coordinate-mode dropper sits on every output variable with an
// intersection inside it or an intersected reduction between it and the
// outermost output variable; a value-mode dropper on the innermost output
// variable filters explicit zeros and is always kept.
func TestDropperPlacement(t *testing.T) {
	cases := []struct {
		name  string
		expr  string
		order []string
		// crd and val are the dropper labels, innermost output level first.
		crd, val []string
	}{
		// The intersected reduction l sits between i and j, so j drops
		// beside i, which has l inside it.
		{"ttm-iljk", "X(i,j,k) = B(i,j,l) * C(k,l)", []string{"i", "l", "j", "k"},
			[]string{"CrdDrop j", "CrdDrop i"}, nil},
		// The fully populated order: l innermost, every output level above
		// an intersection.
		{"ttm-ijkl", "X(i,j,k) = B(i,j,l) * C(k,l)", nil,
			[]string{"CrdDrop j", "CrdDrop i"}, []string{"CrdDrop k vals"}},
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"},
			[]string{"CrdDrop i"}, nil},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil,
			[]string{"CrdDrop i"}, []string{"CrdDrop j vals"}},
		// Above the 4-D output's l: m is innermost and k, j pass the rule
		// by the reduction above them; i has it inside.
		{"4d-ijlkm", "X(i,j,k,m) = B(i,j,l) * C(k,m,l)", []string{"i", "j", "l", "k", "m"},
			[]string{"CrdDrop k", "CrdDrop j", "CrdDrop i"}, nil},
	}
	for _, tc := range cases {
		for opt := 0; opt <= 1; opt++ {
			g, err := Compile(lang.MustParse(tc.expr), nil, lang.Schedule{LoopOrder: tc.order, Opt: opt})
			if err != nil {
				t.Fatalf("%s O%d: %v", tc.name, opt, err)
			}
			var crd, val []string
			for _, n := range g.Nodes {
				switch {
				case n.Kind != graph.CrdDrop:
				case n.DropVal:
					val = append(val, n.Label)
				default:
					crd = append(crd, n.Label)
				}
			}
			if !slices.Equal(crd, tc.crd) || !slices.Equal(val, tc.val) {
				t.Errorf("%s O%d: coordinate droppers %q and value droppers %q, want %q and %q", tc.name, opt, crd, val, tc.crd, tc.val)
			}
		}
	}
}
