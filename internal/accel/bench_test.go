package accel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
)

// BenchmarkProbeSequence is the victim's own cost in a probing campaign: it
// replays the prober's four families through Machine.Run, T trials of Q
// positions each, in the order huffduff.CollectContext issues them, with
// the attack's probe seed 1. The first two victims are those of perfbench's
// smallcnn_probe and resnet18_attack workloads; the last two are full-width
// victims at a single trial. Images are rendered with the timer stopped,
// and no trace is analyzed. ms/query is the mean over the sequence, whose
// first query of each family recomputes every cell.
//
//	go test -run '^$' -bench ProbeSequence -benchtime 3x ./internal/accel/
func BenchmarkProbeSequence(b *testing.B) {
	for _, c := range []struct {
		arch      *models.Arch
		keep      float64
		seed      int64 // the victim's weights and defence randomness
		trials, q int
	}{
		{models.SmallCNN(), 0.5, 1, 64, 8},
		{models.ResNet18(16), 0.6, 1234, 6, 16},
		{models.VGGS(1), 0.5, 1, 1, 4},
		{models.ResNet18(1), 0.5, 1, 1, 4},
	} {
		b.Run(fmt.Sprintf("%s/keep%.1f/T%d/Q%d", c.arch.Name, c.keep, c.trials, c.q), func(b *testing.B) {
			bind, err := c.arch.Build(rand.New(rand.NewSource(c.seed)))
			if err != nil {
				b.Fatal(err)
			}
			prune.GlobalMagnitude(bind.Net.Params(), c.keep)
			cfg := DefaultConfig()
			cfg.Seed = c.seed
			m := NewMachine(cfg, c.arch, bind)
			ch, h, w := c.arch.InC, c.arch.InH, c.arch.InW
			// Build the inference plan outside the timed runs.
			if _, err := m.Run(tensor.New(ch, h, w)); err != nil {
				b.Fatal(err)
			}
			fams := []probe.Pattern{
				{N: 1, Q: c.q, FeatRow: h / 2},
				{N: 2, Q: c.q, FeatRow: h/2 - 1},
				{N: 1, Q: c.q, FeatRow: h / 2, FromRight: true},
				{N: 2, Q: c.q, FeatRow: h/2 - 1, FromRight: true},
			}
			imgs := make([]*tensor.Tensor, 0, len(fams)*c.q)
			b.ResetTimer()
			for range b.N {
				rng := rand.New(rand.NewSource(1))
				for range c.trials {
					b.StopTimer()
					imgs = imgs[:0]
					for _, f := range fams {
						vals := probe.RandomValues(rng, f)
						for q := range c.q {
							imgs = append(imgs, probe.Image(f, vals, q, ch, h, w))
						}
					}
					b.StartTimer()
					for _, img := range imgs {
						if _, err := m.Run(img); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			queries := b.N * c.trials * len(fams) * c.q
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(queries), "ms/query")
		})
	}
}
