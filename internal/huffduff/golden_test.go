package huffduff

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/models"
)

// solveGolden is one solve of a §8.2 escalation schedule, recorded from the
// hash-consed expression interner the field engine replaced
// (testdata/solve_<run>.json).
type solveGolden struct {
	Trials      int            `json:"trials"`
	Err         string         `json:"err,omitempty"`
	Geoms       map[int]Geom   `json:"geoms,omitempty"`
	Candidates  map[int][]Geom `json:"candidates,omitempty"`
	Exact       map[int]bool   `json:"exact,omitempty"`
	PoolFactors map[int]int    `json:"pool_factors,omitempty"`
}

// checkSolveGoldens re-solves data at every trial count of run's recorded
// escalation schedule and fails t unless each solve reproduces the
// interner's result exactly: the differential gate of the engine swap.
func checkSolveGoldens(t *testing.T, run string, data *ProbeData) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "solve_"+run+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var gold []solveGolden
	if err := json.Unmarshal(b, &gold); err != nil {
		t.Fatal(err)
	}
	if len(gold) == 0 {
		t.Fatalf("%s: no recorded solves", run)
	}
	for _, want := range gold {
		got := solveGolden{Trials: want.Trials}
		pr, err := data.Solve(want.Trials)
		if err != nil {
			got.Err = err.Error()
		} else {
			got.Geoms, got.Candidates, got.Exact, got.PoolFactors = pr.Geoms, pr.Candidates, pr.Exact, pr.PoolFactors
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Errorf("%s at T=%d:\n got %s\nwant %s", run, want.Trials, gj, wj)
		}
	}
}

func TestSmallCNNSolvesMatchInternerGoldens(t *testing.T) {
	checkSolveGoldens(t, "smallcnn_dense", smallCNNDense.get(t).res.Data)
	checkSolveGoldens(t, "smallcnn_pruned", smallCNNPruned.get(t).res.Data)
}

// TestLedgerJSONLDeterministic: two identical attacks write the same
// convergence ledger, apart from its wall-clock timestamps. The solve draws
// its field points from constant keys, so nothing it records depends on
// the run.
func TestLedgerJSONLDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("full attack campaigns; the race-instrumented simulator is an order of magnitude slower")
	}
	ts := regexp.MustCompile(`"ts_unix_nano":\d+`)
	cfg := DefaultConfig()
	cfg.Probe.Trials, cfg.Probe.Q = 4, 6
	cfg.Converge = true
	var out [2]string
	for i := range out {
		m, _ := deployVictim(t, models.SmallCNN(), 0.5)
		led := converge.NewLedger(nil)
		cfg.Ledger = led
		if _, err := Attack(m, cfg); err != nil {
			t.Fatal(err)
		}
		led.Close()
		var b bytes.Buffer
		if err := led.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = ts.ReplaceAllString(b.String(), `"ts_unix_nano":0`)
	}
	if out[0] != out[1] {
		t.Fatalf("ledgers differ:\n%s\n---\n%s", out[0], out[1])
	}
}
