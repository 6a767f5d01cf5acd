// Command solspace reproduces Table 1: the solution-space size for
// reverse-engineering a dense network with ReverseCNN versus a 10×-pruned
// network with the naïve sparse extension of §4.2.
//
// Usage:
//
//	solspace -alpha 0.999
package main

import (
	"flag"
	"fmt"

	"github.com/huffduff/huffduff/cmd/internal/cli"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/reversecnn"
)

func main() {
	cli.Setup()
	var (
		alpha = flag.Float64("alpha", 0.999, "assumed upper bound on weight sparsity (Eq. 11)")
		act   = flag.Float64("act", 0.5, "assumed post-ReLU activation density for the pruned victim")
	)
	flag.Parse()

	fmt.Printf("%-12s %16s %22s %8s\n", "network", "dense solutions", "naive sparse space", "log10")
	for _, arch := range []*models.Arch{models.ResNet18(1), models.VGGS(1)} {
		denseObs, err := reversecnn.FromArch(arch, reversecnn.DenseProfile, 1)
		cli.Check(err)
		chain, _, _ := denseObs.ChainObs()
		sols, err := reversecnn.SolveDense(chain, arch.InH, arch.InC, reversecnn.DefaultSpace(), 0)
		cli.Check(err)

		sparseObs, err := reversecnn.FromArch(arch, reversecnn.LTHProfile, *act)
		cli.Check(err)
		count, err := reversecnn.SparseCount(sparseObs.Obs, sparseObs.Xs, sparseObs.Cs, *alpha, reversecnn.DefaultSpace())
		cli.Check(err)
		fmt.Printf("%-12s %16d %22s %8d\n", arch.Name, len(sols), shorten(count.String()), reversecnn.OrdersOfMagnitude(count))
	}
	fmt.Println("\npaper (Table 1 / §4.2): dense ResNet-18 -> 8 solutions;")
	fmt.Println("sparse ResNet-18 -> 4x10^96; sparse VGG-S -> 2.6x10^74.")
}

func shorten(s string) string {
	if len(s) <= 8 {
		return s
	}
	return fmt.Sprintf("%c.%sx10^%d", s[0], s[1:4], len(s)-1)
}
