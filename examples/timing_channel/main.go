// Visualize the psum-encoding timing side channel (§7): per-layer encoding
// intervals on the DRAM bus, their proportionality to dense psum volumes
// when the pipeline is GLB-bound, and how the proportionality degrades on a
// bandwidth-starved memory.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"github.com/huffduff/huffduff"
	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/dram"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

func main() {
	log.SetFlags(0)
	arch := models.ResNet18(16)
	rng := rand.New(rand.NewSource(5))
	bind, err := arch.Build(rng)
	if err != nil {
		log.Fatal(err)
	}
	huffduff.PruneGlobal(bind.Net.Params(), 0.3)

	img := tensor.New(arch.InC, arch.InH, arch.InW)
	img.Uniform(rng, 0, 1)

	for _, mem := range []dram.Spec{dram.LPDDR4(2), {Name: "starved", MTps: 120, BusBytes: 2, Channels: 1, Efficiency: 1}} {
		cfg := accel.DefaultConfig()
		cfg.Mem = mem
		m := accel.NewMachine(cfg, arch, bind)
		tr, err := m.Run(img)
		if err != nil {
			log.Fatal(err)
		}
		obs, err := trace.Analyze(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== memory: %s ===\n", mem)
		fmt.Printf("%-8s %10s %12s %14s  %s\n", "unit", "psums", "Δt (us)", "Δt/psum (ns)", "Δt scaled")
		layers := m.LastStats().Layers
		for i, u := range arch.Units {
			if u.Kind != models.UnitConv {
				continue
			}
			ps := layers[i].Psums
			dt := obs[i+1].EncodingTime()
			perPsum := dt / float64(ps) * 1e9
			bars := int(perPsum * 8)
			if bars > 60 {
				bars = 60
			}
			fmt.Printf("%-8s %10d %12.2f %14.3f  %s\n",
				u.Name, ps, dt*1e6, perPsum, strings.Repeat("#", bars))
		}
		fmt.Println("GLB-bound encoding keeps Δt/psum flat across layers — that flat")
		fmt.Println("line is the side channel: Δt ratios reveal K ratios.")
	}
}
