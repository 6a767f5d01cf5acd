// Package staleignore exercises the stale-suppression detector: a
// directive whose analyzer ran but found nothing to suppress is itself
// reported, so dead ignores cannot accumulate.
package staleignore

import "math/rand"

// Draw is genuinely noisy; its directive is used and stays silent.
func Draw() int {
	//lint:ignore globalrand exercising a live suppression
	return rand.Intn(6)
}

// Fixed no longer draws from the global source but kept its directive:
// the suppression is stale and reported.
func Fixed(rng *rand.Rand) int {
	//lint:ignore globalrand stale: the global draw was removed
	return rng.Intn(6)
}

// Misnamed carries a directive naming no registered analyzer: it can never
// suppress anything, so it is reported whichever analyzers run.
func Misnamed(rng *rand.Rand) int {
	//lint:ignore nosuch a misspelt or retired analyzer name
	return rng.Intn(6)
}
