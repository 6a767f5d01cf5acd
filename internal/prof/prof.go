// Package prof is the cost-attribution layer on top of internal/obs: it
// answers *which stage, layer, and loop* of the attack pipeline the host's
// wall-seconds, allocated bytes, and GC time went to.
//
// Three mechanisms compose:
//
//   - Stage tags the goroutine with a runtime/pprof label ("stage=<name>"),
//     so any CPU profile captured while the pipeline runs can be sliced per
//     stage with `pprof -tagfocus`. The simulator adds a second label
//     dimension ("layer=<unit>") around each unit's simulation whenever its
//     caller's context carries labels, giving stage×layer attribution for
//     free.
//   - Stage samples runtime/metrics at both stage boundaries and publishes
//     the deltas as `prof.stage.*` counters: bytes allocated, GC cycles
//     entered, and estimated GC CPU seconds while the stage ran.
//   - RuntimeSampler (runtime.go) publishes point-in-time Go runtime gauges
//     and the GC pause histogram for long-running services' /metrics.
//
// Attribution caveat: the runtime counters are process-global. The attack
// pipeline runs its stages sequentially on one goroutine, so per-stage deltas
// are faithful there; under concurrent campaigns (the daemon) the per-stage
// deltas of overlapping stages overlap too, and only the totals are exact.
//
// This package intentionally reads the host clock: it measures the
// *attacker's* cost, never the victim's. Device time stays in the cycle
// model (accel.CampaignStats); see DESIGN.md "Cost attribution".
package prof

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"github.com/huffduff/huffduff/internal/obs"
)

// Runtime metric names sampled at stage boundaries. All three exist since
// Go 1.20; readBoundary degrades per-metric (KindBad reads as zero) so a
// future rename cannot break the pipeline.
const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
	gcCPUMetric      = "/cpu/classes/gc/total:cpu-seconds"
)

// boundary is one runtime snapshot taken at a stage edge.
type boundary struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

// readBoundary fills b from runtime/metrics. The three-sample read costs on
// the order of a microsecond and never stops the world.
func readBoundary(b *boundary) {
	samples := [3]metrics.Sample{
		{Name: allocBytesMetric},
		{Name: gcCyclesMetric},
		{Name: gcCPUMetric},
	}
	metrics.Read(samples[:])
	if samples[0].Value.Kind() == metrics.KindUint64 {
		b.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		b.gcCycles = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		b.gcCPU = samples[2].Value.Float64()
	}
}

// Stage opens a cost-attributed pipeline-stage region: a goroutine pprof
// label stage=<name> (so CPU profile samples taken inside the stage carry
// it) and a runtime snapshot. The returned closer restores the caller's
// label set and publishes the stage's deltas:
//
//	stage.seconds{stage=<name>}              histogram, host wall time
//	prof.stage.alloc_bytes{stage=<name>}     counter, bytes allocated
//	prof.stage.gc_cycles{stage=<name>}       counter, GC cycles entered
//	prof.stage.gc_cpu_seconds{stage=<name>}  counter, estimated GC CPU time
//
// Without a Recorder in ctx the whole thing degrades to a single nil check,
// so unobserved runs pay nothing.
func Stage(ctx context.Context, name string) (context.Context, func()) {
	rec := obs.RecorderFrom(ctx)
	if rec == nil {
		return ctx, func() {}
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels("stage", name))
	pprof.SetGoroutineLabels(lctx)
	var open boundary
	readBoundary(&open)
	start := time.Now() //lint:ignore hosttime the profiler prices host cost by design; this clock never feeds a device-time channel
	return lctx, func() {
		wall := time.Since(start).Seconds() //lint:ignore hosttime host-cost measurement, see package doc
		var closeB boundary
		readBoundary(&closeB)
		// Restore whatever label set the caller's context carried, so
		// sequential stages never inherit a finished stage's label.
		pprof.SetGoroutineLabels(ctx)
		label := "stage=" + name
		rec.Observe("stage.seconds", label, wall)
		rec.Count("prof.stage.alloc_bytes", label, float64(closeB.allocBytes-open.allocBytes))
		rec.Count("prof.stage.gc_cycles", label, float64(closeB.gcCycles-open.gcCycles))
		rec.Count("prof.stage.gc_cpu_seconds", label, closeB.gcCPU-open.gcCPU)
	}
}
