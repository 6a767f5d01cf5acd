// Package cli holds the plumbing shared by every huffduff command-line
// tool: logger setup, the model-name registry, and victim construction.
package cli

import (
	"log"
	"math/rand"
	"strings"

	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/prune"
)

// ModelNames is the canonical model list for flag help strings, derived
// from the registry in internal/models so it can never drift from the
// actual model list.
var ModelNames = strings.Join(models.Names(), "|")

// Setup configures the standard logger the way every tool wants it: bare
// messages, no timestamp prefix.
func Setup() {
	log.SetFlags(0)
}

// Check aborts the tool on a non-nil error.
func Check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// ArchByName resolves a -model flag value to a victim architecture.
func ArchByName(name string, scale int) (*models.Arch, error) {
	return models.ByName(name, scale)
}

// BuildPruned instantiates a victim's weights from seed and applies global
// magnitude pruning when keep < 1. The returned rng continues the same
// stream, so callers get reproducible follow-on randomness.
func BuildPruned(arch *models.Arch, seed int64, keep float64) (*models.Binding, *rand.Rand, error) {
	rng := rand.New(rand.NewSource(seed))
	bind, err := arch.Build(rng)
	if err != nil {
		return nil, nil, err
	}
	if keep < 1 {
		prune.GlobalMagnitude(bind.Net.Params(), keep)
	}
	return bind, rng, nil
}
