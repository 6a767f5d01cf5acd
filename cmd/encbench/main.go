// Command encbench explores the psum-encoding timing channel (§7.2, §8.2):
// for each evaluated LPDDR configuration it reports whether every layer of a
// deployed victim is GLB-bound and how much extra GLB bandwidth the
// accelerator could add before its first layer becomes DRAM-bound — the
// paper's §8.2 table.
//
// Usage:
//
//	encbench -model vggs -scale 8 -keep 0.1
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/huffduff/huffduff/cmd/internal/cli"
	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/dram"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
)

func main() {
	cli.Setup()
	var (
		model = flag.String("model", "vggs", "architecture ("+cli.ModelNames+")")
		scale = flag.Int("scale", 8, "channel-width divisor")
		keep  = flag.Float64("keep", 0.1, "fraction of weights kept (paper: 10x pruning)")
		seed  = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	arch, err := cli.ArchByName(*model, *scale)
	cli.Check(err)
	bind, rng, err := cli.BuildPruned(arch, *seed, *keep)
	cli.Check(err)

	// One representative inference: its per-layer stats carry each conv's
	// psum count and compressed output size.
	cfg := accel.DefaultConfig()
	m := accel.NewMachine(cfg, arch, bind)
	img := tensor.New(arch.InC, arch.InH, arch.InW)
	img.Uniform(rng, 0, 1)
	if _, err := m.Run(img); err != nil {
		log.Fatal(err)
	}
	layers := m.LastStats().Layers

	fmt.Printf("victim %s, %.0f%% weights pruned\n", arch.Name, 100*prune.OverallSparsity(bind.Net.Params()))
	fmt.Printf("%-16s %10s %14s\n", "memory", "GLB-bound", "headroom (x)")
	for _, mem := range dram.EvaluatedSpecs() {
		c := cfg
		c.Mem = mem
		headroom := accel.GLBHeadroom(c, arch, layers)
		fmt.Printf("%-16s %10v %14.1f\n", fmt.Sprintf("%s-%dch", mem.Name, mem.Channels), headroom >= 1, headroom)
	}
	fmt.Println("\nheadroom = how much faster the GLB could read psums before the")
	fmt.Println("first layer becomes DRAM-bound (the paper's §8.2 table).")
}
