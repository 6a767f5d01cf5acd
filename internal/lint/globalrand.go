package lint

import (
	"go/ast"
)

// globalRandAllowed are the math/rand package-level functions that do NOT
// touch the shared global source: constructors for an explicit, seedable
// generator.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// GlobalRand flags calls to math/rand top-level functions, which draw from
// the process-global source. Every probe campaign, victim build, and chaos
// fault schedule in this module must be reproducible from a recorded seed —
// the tier-1 cost pins assert a seeded attack's exact query, cycle and
// solution counts — so randomness must come from an injected seeded
// *rand.Rand, never from global state another goroutine can perturb.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc: "forbid math/rand top-level functions; randomness must come from an " +
		"injected seeded *rand.Rand",
	Run: runGlobalRand,
}

func runGlobalRand(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, fn, ok := pkgCall(pass.Pkg.Info, call)
			if !ok || !isGlobalRandPkg(pkg) || globalRandAllowed[fn] {
				return true
			}
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global source; use an injected seeded *rand.Rand so runs replay from their seed", fn)
			return true
		})
	}
}

// isGlobalRandPkg matches both math/rand generations.
func isGlobalRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}
