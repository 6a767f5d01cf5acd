// Command huffduff runs the end-to-end model-stealing attack against a
// simulated sparse-accelerator victim and reports everything it recovers:
// the dataflow graph, per-layer geometry, channel ratios from the timing
// side channel, and the finalized solution space.
//
// The -chaos flags wrap the victim in the fault-injection layer
// (internal/chaos) to exercise the hardened pipeline: transient device
// failures, timing jitter, dropped/duplicated/swapped DRAM events,
// truncated traces, and randomized-padding volume inflation. Combine with
// -robust to enable retries, min-over-repeats aggregation, the §8.2
// convergence loop, and graceful degradation.
//
// The observability flags capture the campaign: -metrics-out writes the
// attacker's host-cost counters, gauges, and histograms, -ledger-out what
// the attack learned step by step, and -v prints each stage's wall time,
// the counters, and per-layer device telemetry after the attack.
//
// Usage:
//
//	huffduff -model resnet18 -scale 16 -keep 0.5 -trials 32
//	huffduff -model smallcnn -chaos -robust
//	huffduff -model smallcnn -metrics-out metrics.json -ledger-out ledger.jsonl -v
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/huffduff/huffduff/cmd/internal/cli"
	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/faults"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prune"
)

func main() {
	cli.Setup()
	var (
		model   = flag.String("model", "smallcnn", "victim architecture ("+cli.ModelNames+")")
		scale   = flag.Int("scale", 16, "channel-width divisor for the victim")
		keep    = flag.Float64("keep", 0.5, "fraction of weights kept after pruning (1 = dense)")
		trials  = flag.Int("trials", 32, "independent random probe trials T")
		q       = flag.Int("q", 24, "probe positions per family")
		seed    = flag.Int64("seed", 1, "victim and attack seed")
		defence = flag.Float64("defence", 0, "randomized zero-padding probability (§9.2 defence)")
		noiseOK = flag.Bool("noise-tolerant", false, "enable the repeated-measurement counter-attack")

		robust    = flag.Bool("robust", false, "enable the fault-hardened pipeline (retries, convergence loop, graceful degradation)")
		retries   = flag.Int("retries", -1, "per-inference retry budget for transient faults (-1 keeps the config default)")
		timingTol = flag.Float64("timing-tol", 0.05, "max robust Δt dispersion before degrading to the timing-free space (with -robust)")

		chaosOn   = flag.Bool("chaos", false, "wrap the victim in the fault-injection layer")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed")
		transient = flag.Float64("chaos-transient", -1, "transient Run failure probability (-1 = class default)")
		jitter    = flag.Float64("chaos-jitter", -1, "timing jitter std as a fraction of the mean event gap")
		drop      = flag.Float64("chaos-drop", -1, "per-event drop probability")
		dup       = flag.Float64("chaos-dup", -1, "per-event duplication probability")
		swap      = flag.Float64("chaos-swap", -1, "per-event payload-swap probability")
		truncP    = flag.Float64("chaos-truncate", -1, "per-trace truncation probability")
		pad       = flag.Float64("chaos-pad", -1, "per-write padding-inflation probability")

		metricsOut = flag.String("metrics-out", "", "write the run's metrics JSON (counters, gauges, histograms) to this file")
		verbose    = flag.Bool("v", false, "print per-stage wall time, metric counters, and per-layer device telemetry")

		progress  = flag.Bool("progress", false, "stream convergence-ledger snapshots to stderr as the attack runs")
		ledgerOut = flag.String("ledger-out", "", "write the convergence ledger as JSONL to this file")
	)
	flag.Parse()

	arch, err := cli.ArchByName(*model, *scale)
	cli.Check(err)
	bind, rng, err := cli.BuildPruned(arch, *seed, *keep)
	cli.Check(err)

	var col *obs.Collector
	if *metricsOut != "" || *verbose {
		col = obs.NewCollector()
	}

	acfg := accel.DefaultConfig()
	acfg.ZeroPadProb = *defence
	acfg.Seed = *seed
	machine := accel.NewMachine(acfg, arch, bind)
	var victim attack.Victim = machine

	var faulty *chaos.FaultyVictim
	if *chaosOn {
		ccfg := chaos.DefaultConfig()
		ccfg.Seed = *chaosSeed
		if col != nil {
			ccfg.Obs = col
		}
		override := func(dst *float64, v float64) {
			if v >= 0 {
				*dst = v
			}
		}
		override(&ccfg.TransientProb, *transient)
		override(&ccfg.JitterStd, *jitter)
		override(&ccfg.DropProb, *drop)
		override(&ccfg.DupProb, *dup)
		override(&ccfg.SwapProb, *swap)
		override(&ccfg.TruncateProb, *truncP)
		override(&ccfg.PadProb, *pad)
		faulty = chaos.Wrap(victim, ccfg)
		victim = faulty
		fmt.Printf("chaos: fault injection on (seed %d)\n", ccfg.Seed)
	}

	cfg := attack.DefaultConfig()
	if *robust {
		cfg = attack.DefaultRobustConfig()
		cfg.TimingTolerance = *timingTol
	}
	cfg.Probe.Trials = *trials
	cfg.Probe.Q = *q
	cfg.Probe.Seed = *seed
	cfg.Probe.NoiseTolerant = *noiseOK
	if *retries >= 0 {
		cfg.Probe.MaxRetries = *retries
	}
	if col != nil {
		cfg.Obs = col
	}

	var led *converge.Ledger
	var progressDone chan struct{}
	if *progress || *ledgerOut != "" {
		led = converge.NewLedger()
		cfg.Ledger = led
	}
	if *progress {
		ch, _ := led.Subscribe()
		progressDone = make(chan struct{})
		go func() {
			defer close(progressDone)
			for s := range ch {
				line := fmt.Sprintf("progress: seq=%d stage=%s queries=%d log10_volume=%.2f bits_eliminated=%.1f",
					s.Seq, s.Stage, s.Queries, s.Log10Volume, s.BitsEliminated)
				if s.GeomAmbiguity > 0 {
					line += fmt.Sprintf(" geom_ambiguity=%d", s.GeomAmbiguity)
				}
				if s.Degraded {
					line += " degraded"
				}
				if s.Done {
					line += " done"
				}
				if s.Note != "" {
					line += fmt.Sprintf(" note=%q", s.Note)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}()
	}

	fmt.Printf("victim: %s (%.0f%% weights pruned)\n", arch.Name, 100*prune.OverallSparsity(bind.Net.Params()))
	fmt.Printf("probing: T=%d trials x 4 families x Q=%d positions\n\n", *trials, *q)

	res, err := attack.Attack(victim, cfg)
	// Flush the metrics and ledger even when the attack died — a failed
	// campaign's costs and progress are exactly what the post-mortem needs.
	if led != nil {
		led.Close()
		if progressDone != nil {
			<-progressDone
		}
		if *ledgerOut != "" {
			writeLedger(led, *ledgerOut)
		}
	}
	writeMetrics(col, *metricsOut)
	if err != nil {
		if stage, ok := faults.StageOf(err); ok {
			fmt.Fprintf(os.Stderr, "attack failed in %s stage: %v\n", stage, err)
		} else {
			fmt.Fprintf(os.Stderr, "attack failed: %v\n", err)
		}
		os.Exit(1)
	}

	fmt.Println("recovered dataflow graph:")
	fmt.Print(res.Graph.String())

	fmt.Println("\nrecovered conv geometry (vs ground truth):")
	correct, total := 0, 0
	for i, u := range arch.Units {
		if u.Kind != models.UnitConv {
			continue
		}
		total++
		got := res.Probe.Geoms[i+1]
		mark := "MISS"
		if got.Kernel == u.Kernel && got.Stride == u.Stride && got.Pool == u.Pool {
			mark = "ok"
			correct++
		}
		kratio := 0.0
		if res.Timing != nil {
			kratio = res.Timing.KRatio[i+1]
		}
		conf := ""
		if res.Confidence != nil {
			conf = fmt.Sprintf("  conf=%.2f", res.Confidence[i+1])
		}
		fmt.Printf("  %-8s recovered k=%d s=%d pool=%d   true k=%d s=%d pool=%d   kratio=%.2f%s  [%s]\n",
			u.Name, got.Kernel, got.Stride, got.Pool, u.Kernel, u.Stride, u.Pool, kratio, conf, mark)
	}
	fmt.Printf("geometry recovery: %d/%d\n", correct, total)
	if cfg.Converge {
		fmt.Printf("convergence: agreed=%v from %d trials\n", res.Converged, res.TrialsConverged)
	}
	if res.VictimRetries > 0 {
		fmt.Printf("victim retries: %d inferences re-run\n", res.VictimRetries)
	}

	sp := res.Space
	if res.Degraded {
		fmt.Printf("\nDEGRADED result: timing channel unusable (%s)\n", res.DegradedReason)
		fmt.Println("per-conv channel bounds from transfer headers + sparse bound:")
		ids := make([]int, 0, len(sp.KBounds))
		for id := range sp.KBounds {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Printf("  node %d: K in [%d, %d]\n", id, sp.KBounds[id][0], sp.KBounds[id][1])
		}
	}
	fmt.Printf("\nsolution space: k1 in [%d, %d] -> %d candidates (geometry ambiguity x%d)\n",
		sp.K1Min, sp.K1Max, len(sp.Solutions), sp.GeomAmbiguity)
	trueK1 := arch.Units[arch.ConvUnits()[0]].OutC
	inRange := trueK1 >= sp.K1Min && trueK1 <= sp.K1Max
	fmt.Printf("true first-layer channels: %d (in range: %v)\n", trueK1, inRange)

	if faulty != nil {
		s := faulty.Stats()
		fmt.Printf("\nchaos stats: %d runs, %d transients, %d padded, %d dropped, %d duplicated, %d swapped, %d truncated\n",
			s.Runs, s.Transients, s.Padded, s.Dropped, s.Duplicated, s.Swapped, s.Truncated)
	}

	if *verbose && col != nil {
		snap := col.Metrics()
		fmt.Println("\nstage wall time (host, stage.seconds):")
		hists := make([]string, 0, len(snap.Histograms))
		for k := range snap.Histograms {
			hists = append(hists, k)
		}
		sort.Strings(hists)
		for _, k := range hists {
			if stage, ok := strings.CutPrefix(k, "stage.seconds{stage="); ok {
				h := snap.Histograms[k]
				wall := time.Duration(h.Sum * float64(time.Second)).Round(10 * time.Microsecond)
				fmt.Printf("  %-12s %-12v x%d\n", strings.TrimSuffix(stage, "}"), wall, h.Count)
			}
		}
		fmt.Println("counters:")
		for _, k := range col.SortedCounterKeys() {
			fmt.Printf("  %-44s %g\n", k, snap.Counters[k])
		}
		fmt.Println("\ndevice telemetry (simulated time):")
		fmt.Print(machine.Campaign().String())
	}

	samples := attack.SampleSolutions(sp, 3, rng)
	fmt.Println("\nsampled candidate architectures:")
	for _, s := range samples {
		fmt.Printf("--- k1=%d ---\n%s", s.K1, s.Arch.String())
	}
}

// writeLedger dumps the convergence ledger as JSONL.
func writeLedger(led *converge.Ledger, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("ledger: %v", err)
		return
	}
	defer f.Close()
	if err := led.WriteJSONL(f); err != nil {
		log.Printf("ledger: write %s: %v", path, err)
	}
}

// writeMetrics writes col's metrics JSON to path. It is a no-op when path
// is empty or col is nil, and logs (rather than aborts) on I/O errors — a
// failed metrics dump must not turn a finished run into a failure.
func writeMetrics(col *obs.Collector, path string) {
	if col == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("observability: %v", err)
		return
	}
	defer f.Close()
	if err := col.WriteMetrics(f); err != nil {
		log.Printf("observability: write %s: %v", path, err)
	}
}
