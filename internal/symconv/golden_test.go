package symconv

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"github.com/huffduff/huffduff/internal/probe"
)

// partitionGoldens are predicted partitions recorded from the hash-consed
// expression interner this engine replaced (testdata/partitions.json):
// every pattern the pattern tests predict, every hypothesis on the
// prober's four families, residual and pooling chains, and every layer of
// the soundness stacks.
type partitionGoldens struct {
	Cases []struct {
		Name    string
		Pattern probe.Pattern
		H, W    int
		Ops     []struct {
			Op      string // conv, maxpool, avgpool, save, add
			K, S, W int
		}
		Want []int
	}
	Stacks []struct {
		Seed    int64
		Pattern probe.Pattern
		Stack   [][3]int
		Want    [][]int
	}
}

// TestPartitionsMatchInternerGoldens is the differential gate of the field
// engine: it must predict exactly the partitions the interner predicted.
func TestPartitionsMatchInternerGoldens(t *testing.T) {
	b, err := os.ReadFile("testdata/partitions.json")
	if err != nil {
		t.Fatal(err)
	}
	var gold partitionGoldens
	if err := json.Unmarshal(b, &gold); err != nil {
		t.Fatal(err)
	}
	if len(gold.Cases) == 0 || len(gold.Stacks) != 25 {
		t.Fatalf("goldens hold %d cases and %d stacks", len(gold.Cases), len(gold.Stacks))
	}
	for _, c := range gold.Cases {
		var e Engine
		sigs := make([]Value, c.Pattern.Q)
		for q := range sigs {
			g := e.ProbeGrid(c.Pattern, q, c.H, c.W)
			var saved Grid
			for i, op := range c.Ops {
				switch op.Op {
				case "conv":
					g = e.Conv(g, fmt.Sprintf("c%d", i), op.K, op.S)
				case "maxpool":
					g = e.MaxPool(g, op.W)
				case "avgpool":
					g = e.AvgPool(g, op.W)
				case "save":
					saved = g
				case "add":
					g = e.Add(g, saved)
				default:
					t.Fatalf("%s: unknown op %q", c.Name, op.Op)
				}
			}
			sigs[q] = Signature(g)
		}
		if got := ClassPattern(sigs); !slices.Equal(got, c.Want) {
			t.Errorf("%s: predicted %s, interner predicted %s", c.Name, PatternString(got), PatternString(c.Want))
		}
	}
	for _, s := range gold.Stacks {
		stack, pat, ok := randomStack(rand.New(rand.NewSource(s.Seed)))
		if !ok || pat != s.Pattern || !slices.Equal(stack, s.Stack) {
			t.Fatalf("seed %d draws stack %v on %+v, golden has %v on %+v", s.Seed, stack, pat, s.Stack, s.Pattern)
		}
		for li, got := range stackPatterns(pat, stack) {
			if !slices.Equal(got, s.Want[li]) {
				t.Errorf("seed %d layer %d: predicted %s, interner predicted %s", s.Seed, li, PatternString(got), PatternString(s.Want[li]))
			}
		}
	}
}
