package trace_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/trace"
)

// analyzeLinear is the analyzer Analyze replaced, kept as its reference: it
// copies each segment's accesses and finds a read's producer by scanning
// the sorted write spans for the first that contains its address.
func analyzeLinear(t *trace.Trace) ([]trace.SegmentObs, error) {
	if len(t.Accesses) == 0 {
		return nil, fmt.Errorf("trace: empty trace: %w", faults.ErrTraceCorrupt)
	}
	type span struct {
		lo, hi  uint64
		segment int
	}
	var writeSpans []span
	var segments [][]trace.Access
	cur := []trace.Access{t.Accesses[0]}
	for _, a := range t.Accesses[1:] {
		prev := cur[len(cur)-1]
		if a.Time < prev.Time {
			return nil, fmt.Errorf("trace: accesses out of order at t=%g: %w", a.Time, faults.ErrTraceCorrupt)
		}
		if a.Op == trace.Read && prev.Op == trace.Write {
			segments = append(segments, cur)
			cur = nil
		}
		cur = append(cur, a)
	}
	segments = append(segments, cur)
	writtenEver := func(addr uint64) (int, bool) {
		for _, s := range writeSpans {
			if addr >= s.lo && addr < s.hi {
				return s.segment, true
			}
		}
		return 0, false
	}
	obs := make([]trace.SegmentObs, len(segments))
	for i, seg := range segments {
		for _, a := range seg {
			if a.Op == trace.Write {
				writeSpans = append(writeSpans, span{a.Addr, a.Addr + uint64(a.Bytes), i})
			}
		}
	}
	sort.Slice(writeSpans, func(i, j int) bool { return writeSpans[i].lo < writeSpans[j].lo })
	for i, seg := range segments {
		o := &obs[i]
		o.Index = i
		o.FirstWrite = -1
		depSet := map[int]bool{}
		for _, a := range seg {
			switch a.Op {
			case trace.Read:
				if producer, ok := writtenEver(a.Addr); ok {
					o.InputBytes += a.Bytes
					if producer != i {
						depSet[producer] = true
					}
				} else {
					o.WeightBytes += a.Bytes
				}
			case trace.Write:
				o.OutputBytes += a.Bytes
				if o.FirstWrite < 0 {
					o.FirstWrite = a.Time
				}
				o.LastWrite = a.Time
			}
		}
		o.Deps = make([]int, 0, len(depSet))
		for d := range depSet {
			o.Deps = append(o.Deps, d)
		}
		sort.Ints(o.Deps)
	}
	return obs, nil
}

// checkSameAnalysis fails t unless Analyze and the linear-scan reference
// return equal SegmentObs and equal errors on tr.
func checkSameAnalysis(t *testing.T, tr *trace.Trace, what string) ([]trace.SegmentObs, error) {
	t.Helper()
	got, err := trace.Analyze(tr)
	want, wantErr := analyzeLinear(tr)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Analyze error %v, linear scan %v", what, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze and the linear scan disagree:\n%+v\n%+v", what, got, want)
	}
	return got, err
}

// FuzzAnalyze feeds arbitrary access sequences to the analyzer: it must
// never panic, it must agree with the linear-scan reference, every
// rejection must carry the ErrTraceCorrupt sentinel, and when it succeeds
// its outputs must satisfy basic accounting invariants.
//
// Each event is two input bytes: the first selects op (bit 0), size (1 to
// 13 bytes), and the time step — values ≥ 192 rewind the clock, letting the
// fuzzer produce the reordered sequences a faulty bus sniffer emits — and
// the second selects the address, in steps of 4 bytes, so write spans
// overlap.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0, 10, 1, 10, 0, 20})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// A reordered event: 200 ≥ 192 steps time backwards mid-trace.
	f.Add([]byte{0, 10, 1, 10, 200, 12, 0, 20})
	// Duplicated events: the same (op, addr) pair emitted twice.
	f.Add([]byte{0, 10, 1, 10, 1, 10, 0, 20})
	// A duplicated write block feeding a later read.
	f.Add([]byte{0, 7, 0, 7, 1, 7, 0, 20})
	// Overlapping write spans of three segments, read inside the overlaps.
	f.Add([]byte{24, 10, 1, 10, 16, 11, 1, 12, 6, 12, 1, 13, 3, 14, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tr := &trace.Trace{}
		tm := 0.0
		for i := 0; i+2 <= len(data); i += 2 {
			op := trace.Read
			if data[i]%2 == 0 {
				op = trace.Write
			}
			if data[i] >= 192 {
				tm -= 0.0005
			} else {
				tm += 0.001
			}
			tr.Accesses = append(tr.Accesses, trace.Access{
				Time:  tm,
				Op:    op,
				Addr:  uint64(data[i+1]) * 4,
				Bytes: int(data[i]/2%13) + 1,
			})
		}
		obs, err := checkSameAnalysis(t, tr, "fuzz")
		if err != nil {
			if !errors.Is(err, faults.ErrTraceCorrupt) {
				t.Fatalf("Analyze error %v does not wrap ErrTraceCorrupt", err)
			}
			return
		}
		reads, writes := tr.TotalBytes()
		gotR, gotW := 0, 0
		for _, o := range obs {
			if o.WeightBytes < 0 || o.InputBytes < 0 || o.OutputBytes < 0 {
				t.Fatal("negative footprint")
			}
			gotR += o.WeightBytes + o.InputBytes
			gotW += o.OutputBytes
			for _, d := range o.Deps {
				if d < 0 || d >= len(obs) || d == o.Index {
					t.Fatalf("bad dep %d in segment %d", d, o.Index)
				}
			}
			if o.OutputBytes > 0 && o.LastWrite < o.FirstWrite {
				t.Fatal("write window inverted")
			}
		}
		if gotR != reads || gotW != writes {
			t.Fatalf("accounting mismatch: %d/%d vs %d/%d", gotR, gotW, reads, writes)
		}
		// Validate must never panic on analyzed segments; rejections must
		// carry the corruption sentinel.
		if verr := trace.Validate(obs); verr != nil && !errors.Is(verr, faults.ErrTraceCorrupt) {
			t.Fatalf("Validate error %v does not wrap ErrTraceCorrupt", verr)
		}
	})
}

// TestAnalyzeMatchesLinearScanOnZooTraces is Analyze's differential gate on
// real traces: probe inferences of pruned SmallCNN, ResNet-18/16 and
// VGG-S/16, clean and under each chaos fault class alone, at intensities
// that corrupt most traces.
func TestAnalyzeMatchesLinearScanOnZooTraces(t *testing.T) {
	faultClasses := []struct {
		name string
		cfg  chaos.Config
	}{
		{"clean", chaos.Config{}},
		{"transient", chaos.Config{TransientProb: 0.3}},
		{"jitter", chaos.Config{JitterStd: 0.5}},
		{"drop", chaos.Config{DropProb: 0.005}},
		{"dup", chaos.Config{DupProb: 0.005}},
		{"swap", chaos.Config{SwapProb: 0.005}},
		{"truncate", chaos.Config{TruncateProb: 1, TruncateFracMax: 0.5}},
		{"pad", chaos.Config{PadProb: 0.05, PadMaxBytes: 48}},
	}
	for _, arch := range []*models.Arch{models.SmallCNN(), models.ResNet18(16), models.VGGS(16)} {
		bind, err := arch.Build(rand.New(rand.NewSource(1234)))
		if err != nil {
			t.Fatal(err)
		}
		prune.GlobalMagnitude(bind.Net.Params(), 0.5)
		m := accel.NewMachine(accel.DefaultConfig(), arch, bind)
		pat := probe.Default(8, arch.InH)
		rng := rand.New(rand.NewSource(7))
		for ci, fc := range faultClasses {
			fc.cfg.Seed = int64(ci + 1)
			v := chaos.Wrap(m, fc.cfg)
			vals := probe.RandomValues(rng, pat)
			for q := 0; q < pat.Q; q++ {
				tr, err := v.Run(probe.Image(pat, vals, q, arch.InC, arch.InH, arch.InW))
				if errors.Is(err, faults.ErrTransient) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				checkSameAnalysis(t, tr, fmt.Sprintf("%s %s probe %d", arch.Name, fc.name, q))
			}
		}
	}
}
