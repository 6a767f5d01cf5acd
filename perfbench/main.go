// Command perfbench is the repository's benchmark. Each run measures one
// workload and prints, as the last line of standard output, a JSON verdict:
// whether the program's outputs were correct, how many operations were
// attempted and failed, and the metrics with their units.
//
//	perfbench -workload resnet18_attack -seed 1 -seconds 30 -trace 0 \
//	    -huffduffd ./huffduffd -workdir /tmp/perfbench
//
// Workloads (why each was chosen is in NOTES.md):
//
//   - resnet18_attack: solve-bound; the symbolic solve does most of the work.
//   - smallcnn_probe: probe-bound; the simulated victim does most of the work.
//   - daemon_mix: huffduffd under a closed loop of tiny campaigns and an
//     open-loop history reader; the only workload that runs the HTTP, queue,
//     journal and store layers.
//
// With -trace 0 a run reports the end-to-end metrics and records no spans.
// With -trace 1 it reports the per-layer metrics, measured with spans the
// benchmark records around its calls into each layer, and writes the spans
// to the work directory as JSON lines.
//
// run.sh builds this command and huffduffd from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// setupRepeats is how many times a run sets its victim or daemon up; setup_s
// is their median, since one set-up takes milliseconds and varies a lot.
const setupRepeats = 21

// outcome gathers one run's operations and measurements.
type outcome struct {
	seed    int64
	seconds int
	vals    map[string]float64

	mu                sync.Mutex
	attempted, failed int // guarded by mu.
}

// op counts one operation, failed if any problem is given; problems go to
// standard error.
func (o *outcome) op(problems ...string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if len(problems) > 0 {
		o.failed++
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "resnet18_attack, smallcnn_probe or daemon_mix")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds   = flag.Int("seconds", 30, "how long the measured part of a run should take on the reference host")
		traced    = flag.Int("trace", 0, "1 runs the traced variant, which reports per-layer metrics")
		daemonBin = flag.String("huffduffd", "", "huffduffd binary")
		workDir   = flag.String("workdir", "", "directory for daemon data-dirs, logs and span exports")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced, *daemonBin, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, traced int, daemonBin, workDir string) error {
	if seconds < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if daemonBin == "" || workDir == "" {
		return fmt.Errorf("need -huffduffd and -workdir")
	}
	w, isAttack := attackWorkloads[workload]
	if !isAttack && workload != "daemon_mix" {
		return fmt.Errorf("unknown workload %q", workload)
	}
	work := filepath.Join(workDir, workload)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}

	host := stampHost()
	steal0 := stealSeconds()
	ctx := context.Background()
	o := &outcome{seed: seed, seconds: seconds}
	var rec *recorder
	if traced == 1 {
		rec = newRecorder(fmt.Sprintf("%s-seed%d", workload, seed))
	}
	w.probeSeed = seed
	var err error
	switch {
	case !isAttack:
		err = runDaemonMix(ctx, daemonBin, work, rec, o)
	case rec == nil:
		err = runAttackTimed(w, o)
	default:
		err = runAttackTraced(ctx, w, daemonBin, work, rec, o)
	}
	if err != nil {
		return err
	}

	defs := endToEnd
	if rec != nil {
		defs = perLayer
		o.vals["host.ref_s"] = host.RefS
		if err := writeSpans(rec, filepath.Join(work, fmt.Sprintf("spans-seed%d.jsonl", seed))); err != nil {
			return err
		}
	}
	mets, err := emit(defs, o.vals)
	if err != nil {
		return err
	}
	host.StealS = math.Round((stealSeconds()-steal0)*100) / 100
	stamp, _ := json.Marshal(host)
	fmt.Printf("host %s\n", stamp)
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: mets}
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.export(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
