// Package trace defines the DRAM access trace the accelerator simulator
// emits and the attacker-side analysis that recovers layer structure from
// it. The analysis uses only information the threat model grants: access
// times, operation types, addresses, and sizes — never tensor contents.
package trace

import (
	"fmt"
	"sort"

	"github.com/huffduff/huffduff/internal/faults"
)

// Op is a DRAM operation type.
type Op int

// Operation types.
const (
	Read Op = iota
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Access is one observed DRAM transfer.
type Access struct {
	Time  float64 // seconds since trace start
	Op    Op
	Addr  uint64
	Bytes int
}

// Trace is a time-ordered sequence of DRAM accesses for one inference.
type Trace struct {
	Accesses []Access
}

// TotalBytes returns the total read and written byte counts.
func (t *Trace) TotalBytes() (reads, writes int) {
	for _, a := range t.Accesses {
		if a.Op == Read {
			reads += a.Bytes
		} else {
			writes += a.Bytes
		}
	}
	return reads, writes
}

// SegmentObs is what the attacker learns about one execution segment
// (one accelerator layer pass) from the trace.
type SegmentObs struct {
	Index int
	// WeightBytes is traffic read from read-only addresses (never written
	// in the trace): the compressed weight tensor.
	WeightBytes int
	// InputBytes is traffic read from previously written addresses: the
	// compressed input activations.
	InputBytes int
	// OutputBytes is the compressed output activation traffic.
	OutputBytes int
	// Deps lists the segment indices that produced the data this segment
	// reads (0 = the attacker-supplied input DMA segment). This is the
	// recovered dataflow graph.
	Deps []int
	// FirstWrite/LastWrite bound the output encoding interval; their
	// difference is the timing side channel of §7.
	FirstWrite, LastWrite float64
}

// EncodingTime returns the observed psum-encoding duration (the Δt between
// the first and last output DRAM transfer).
func (s SegmentObs) EncodingTime() float64 { return s.LastWrite - s.FirstWrite }

// Analyze segments a trace into layer passes and extracts per-segment
// footprints, dependencies, and encoding times.
//
// Segmentation exploits layerwise execution: within one pass all input/weight
// reads precede the output writeback, so a Read that follows a Write starts a
// new segment. Segment 0 is the attacker's own input DMA (writes only).
// Dependencies are recovered by matching read addresses against earlier
// segments' write ranges (the read-after-write rule of §3.2).
func Analyze(t *Trace) ([]SegmentObs, error) {
	acc := t.Accesses
	if len(acc) == 0 {
		return nil, fmt.Errorf("trace: empty trace: %w", faults.ErrTraceCorrupt)
	}
	// Segment i is acc[starts[i]:starts[i+1]].
	starts := []int{0}
	for i := 1; i < len(acc); i++ {
		if acc[i].Time < acc[i-1].Time {
			return nil, fmt.Errorf("trace: accesses out of order at t=%g: %w", acc[i].Time, faults.ErrTraceCorrupt)
		}
		if acc[i].Op == Read && acc[i-1].Op == Write {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(acc))

	// Every write span, sorted by start. A read's producer is the segment of
	// the first span in this order that contains its address (spans are
	// matched by containment, and chaos-padded, duplicated or swapped
	// events can make them overlap).
	type span struct {
		lo, hi  uint64 // [lo, hi)
		segment int
	}
	var spans []span
	for i := range len(starts) - 1 {
		for _, a := range acc[starts[i]:starts[i+1]] {
			if a.Op == Write {
				spans = append(spans, span{a.Addr, a.Addr + uint64(a.Bytes), i})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	// reach[i] is the largest end among spans[:i+1]. No span before the
	// first i whose reach exceeds addr contains addr, span i ends past it,
	// and every later span starts at or after span i; so span i is the
	// first to contain addr if it starts at or before addr, and else none
	// does.
	reach := make([]uint64, len(spans))
	for i, s := range spans {
		reach[i] = s.hi
		if i > 0 {
			reach[i] = max(reach[i-1], s.hi)
		}
	}
	producer := func(addr uint64) (int, bool) {
		i := sort.Search(len(reach), func(i int) bool { return reach[i] > addr })
		if i < len(spans) && spans[i].lo <= addr {
			return spans[i].segment, true
		}
		return 0, false
	}

	obs := make([]SegmentObs, len(starts)-1)
	for i := range obs {
		o := &obs[i]
		o.Index = i
		o.FirstWrite = -1
		depSet := map[int]bool{}
		for _, a := range acc[starts[i]:starts[i+1]] {
			switch a.Op {
			case Read:
				if p, ok := producer(a.Addr); ok {
					o.InputBytes += a.Bytes
					if p != i {
						depSet[p] = true
					}
				} else {
					o.WeightBytes += a.Bytes
				}
			case Write:
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

// Validate cross-checks analyzed segments against the byte-accounting
// invariants of layerwise streaming execution: segment 0 is a write-only
// input DMA, and every later segment reads each producer tensor exactly once
// and in full, so its InputBytes must equal the sum of its producers'
// OutputBytes. A dropped, duplicated, or mis-ordered DRAM event almost
// always breaks one of these equalities (only the final segment's output,
// which nothing consumes, escapes the check), which makes Validate the
// attacker's cheap detector for corrupted observations: on failure it
// returns an error wrapping faults.ErrTraceCorrupt and the caller re-runs
// the inference.
//
// Content-dependent noise that inflates a tensor consistently on both the
// producing write and the consuming reads — e.g. the §9.2 randomized-padding
// defence — passes Validate by design; it is measurement noise, not trace
// corruption, and is handled statistically upstream.
func Validate(obs []SegmentObs) error {
	if len(obs) < 2 {
		return fmt.Errorf("trace: %d segments, need an input DMA and at least one layer: %w", len(obs), faults.ErrTraceCorrupt)
	}
	if obs[0].InputBytes != 0 || obs[0].WeightBytes != 0 || obs[0].OutputBytes == 0 {
		return fmt.Errorf("trace: segment 0 is not a write-only input DMA: %w", faults.ErrTraceCorrupt)
	}
	for _, o := range obs[1:] {
		want := 0
		for _, d := range o.Deps {
			want += obs[d].OutputBytes
		}
		if o.InputBytes != want {
			return fmt.Errorf("trace: segment %d reads %d bytes but its producers %v wrote %d: %w",
				o.Index, o.InputBytes, o.Deps, want, faults.ErrTraceCorrupt)
		}
		if o.OutputBytes > 0 && o.LastWrite < o.FirstWrite {
			return fmt.Errorf("trace: segment %d write window inverted: %w", o.Index, faults.ErrTraceCorrupt)
		}
	}
	return nil
}

// OutputSignature extracts the per-layer output byte counts from analyzed
// segments, skipping the input DMA segment. This is the observation vector
// the boundary-effect prober compares across probe images.
func OutputSignature(obs []SegmentObs) []int {
	sig := make([]int, 0, len(obs)-1)
	for _, o := range obs[1:] {
		sig = append(sig, o.OutputBytes)
	}
	return sig
}
