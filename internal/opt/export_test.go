package opt

import "fmt"

// PassByName resolves one pass for targeted testing.
func PassByName(name string) (Pass, error) {
	for _, p := range Passes(MaxLevel) {
		if p.Name == name {
			return p, nil
		}
	}
	return Pass{}, fmt.Errorf("opt: unknown pass %q", name)
}
