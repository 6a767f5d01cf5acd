package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (metrics_test.go checks).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd metrics are what a user of the attack or of the daemon sees. Each
// workload reports every one of them from an untraced run; see NOTES.md for
// what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_p50_s", "s", "lower"},
	{"campaigns_per_s", "1/s", "higher"},
	{"host_alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"victim_queries", "count", "lower"},
	{"device_cycles", "cycles", "lower"},
	{"solution_count", "count", "lower"},
}

// perLayer metrics come from the traced run. Attack workloads measure the
// system layers on a short idle-daemon probe, and daemon_mix measures the
// attack layers by replaying some of its campaigns in-process, so that every
// workload reports every layer.
var perLayer = []metricDef{
	{"accel.busy_s", "s", "lower"},
	{"accel.run_p50_ms", "ms", "lower"},
	{"accel.run_p90_ms", "ms", "lower"},
	{"accel.alloc_mb", "MB", "lower"},
	{"accel.trace_events", "count", "lower"},
	{"accel.events_per_s", "1/s", "higher"},
	{"probe.self_s", "s", "lower"},
	{"probe.alloc_mb", "MB", "lower"},
	{"probe.positions", "count", "lower"},
	{"solve.busy_s", "s", "lower"},
	{"solve.alloc_mb", "MB", "lower"},
	{"finalize.busy_s", "s", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"attack.accounted_frac", "ratio", "higher"},
	{"attack.traced_wall_s", "s", "lower"},
	{"attack.geom_exact", "count", "higher"},
	{"telemetry.submit_ack_p50_ms", "ms", "lower"},
	{"telemetry.submit_ack_p90_ms", "ms", "lower"},
	{"telemetry.queue_wait_p50_s", "s", "lower"},
	{"telemetry.run_p50_s", "s", "lower"},
	{"telemetry.done_lag_p50_ms", "ms", "lower"},
	{"telemetry.restart_s", "s", "lower"},
	{"telemetry.campaign_p90_s", "s", "lower"},
	{"store.history_read_p50_ms", "ms", "lower"},
	{"store.history_read_p90_ms", "ms", "lower"},
	{"store.aggregate_p50_ms", "ms", "lower"},
	{"store.aggregate_p90_ms", "ms", "lower"},
	{"store.disk_kb_per_campaign", "KB", "lower"},
	{"loadgen.reader_late_ms", "ms", "lower"},
	{"host.ref_s", "s", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit pairs measured values with their declared units. It fails if vals
// misses a declared metric, names an undeclared one, or holds a value that
// is not a finite number.
func emit(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v is not a finite number", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

func (r result) line() ([]byte, error) { return json.Marshal(r) }
