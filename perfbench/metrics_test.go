package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func allVals(defs []metricDef) map[string]float64 {
	vals := map[string]float64{}
	for i, d := range defs {
		vals[d.Name] = float64(i + 1)
	}
	return vals
}

func TestEmit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		out, err := emit(defs, allVals(defs))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(defs) {
			t.Errorf("emitted %d metrics, want %d", len(out), len(defs))
		}
		for i, d := range defs {
			if got := out[d.Name]; got.Unit != d.Unit || got.Value != float64(i+1) {
				t.Errorf("%s emitted as %+v, want unit %s value %d", d.Name, got, d.Unit, i+1)
			}
		}
	}

	vals := allVals(endToEnd)
	delete(vals, "setup_s")
	if _, err := emit(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("missing metric: err = %v", err)
	}
	vals = allVals(endToEnd)
	vals["bogus"] = 1
	if _, err := emit(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("undeclared metric: err = %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		vals = allVals(endToEnd)
		vals["campaign_p50_s"] = bad
		if _, err := emit(endToEnd, vals); err == nil {
			t.Errorf("value %v accepted", bad)
		}
	}
}

func TestResultLine(t *testing.T) {
	mets, err := emit(endToEnd, allVals(endToEnd))
	if err != nil {
		t.Fatal(err)
	}
	b, err := result{Correct: true, Attempted: 3, Failed: 0, Metrics: mets}.line()
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, b)
		}
	}
	if len(back) != 4 || strings.Contains(string(b), "\n") {
		t.Errorf("result line must be one line with exactly four keys: %s", b)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// perfbench emits, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; d != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end_to_end[%d] = %+v, perfbench declares %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, perfbench declares %+v", i, m, perLayer[i])
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := attackWorkloads[w.Name]; !ok && w.Name != "daemon_mix" {
			t.Errorf("BENCHMARK.json workload %q unknown to perfbench", w.Name)
		}
	}
}

func TestMixSpecs(t *testing.T) {
	a, b, c := mixSpecs(7, 201), mixSpecs(7, 201), mixSpecs(8, 201)
	victims := func(specs []jobSpec) map[jobSpec]bool {
		set := map[jobSpec]bool{}
		for _, s := range specs {
			set[s] = true
		}
		return set
	}
	for i, s := range a {
		if s != b[i] {
			t.Fatalf("spec %d differs between draws from one seed: %+v vs %+v", i, s, b[i])
		}
		if s.Trials != 1+i%2 || s.Q != 2 || s.Model != "smallcnn" || s.Seed < 1 || s.Seed > 201 {
			t.Errorf("spec %d = %+v, want smallcnn T=%d Q=2 on a victim in 1..201", i, s, 1+i%2)
		}
	}
	va, vc := victims(a), victims(c)
	if len(va) != 201 || len(vc) != 201 {
		t.Fatalf("campaigns repeat a victim: %d and %d distinct", len(va), len(vc))
	}
	for s := range va {
		if !vc[s] {
			t.Errorf("seed 8 lacks campaign %+v that seed 7 has", s)
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Errorf("seeds 7 and 8 submit the campaigns in the same order")
	}
}
