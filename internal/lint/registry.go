package lint

import "fmt"

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CrashSafe,
		FloatEq,
		GlobalRand,
		HostTime,
		MapOrder,
		WrapCheck,
	}
}

// ByName resolves a comma-free analyzer name against the registry.
func ByName(name string) (*Analyzer, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("lint: unknown analyzer %q", name)
}
