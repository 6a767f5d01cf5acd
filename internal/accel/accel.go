// Package accel simulates a mobile-class two-sided sparse DNN accelerator in
// the style of Eyeriss v2: layerwise execution with all tensors visiting
// off-chip DRAM, compressed weight and activation transfers, zero-skipping
// compute, and an on-the-fly psum-encoding post-processing unit whose
// writeback behaviour creates the timing side channel of §7.
//
// The simulator is the "victim device". It consumes a models.Binding (the
// deployed network) and produces trace.Trace values — the only artifact the
// attacker sees. Tensor contents never appear in the trace ("encrypted"
// transfers).
package accel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sync"

	"github.com/huffduff/huffduff/internal/dram"
	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/sparse"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// Config describes the accelerator and memory system.
type Config struct {
	// ActCodec compresses activation tensors on the DRAM bus
	// (sparse.Dense models a dense accelerator, the ReverseCNN setting).
	ActCodec sparse.Codec
	// WeightCodec compresses weight tensors.
	WeightCodec sparse.Codec
	// PsumBits is the accumulator width (Eyeriss v2 uses 20 bits).
	PsumBits int
	// GLBRowWords is the number of psum words the post-processing unit
	// consumes per cycle (Eyeriss v2: 8 banks × 3 words).
	GLBRowWords int
	// ClockHz is the accelerator clock (Eyeriss v2: 200 MHz).
	ClockHz float64
	// PEs is the processing-element count, for the compute-time model.
	PEs int
	// Mem is the external DRAM.
	Mem dram.Spec
	// BlockBytes is the DRAM transaction granularity.
	BlockBytes int
	// StructuredWeights switches weight transfers to channel-granular
	// compression: alive output channels ship densely plus a channel
	// bitmap. Transfer sizes then depend only on the channel mask, not on
	// weight values — the structured-sparsity regime §2 notes is
	// attackable with dense-era techniques.
	StructuredWeights bool
	// ZeroPadProb is the §9.2 defence: each zero activation is left
	// uncompressed (counted as a nonzero on the bus) with this probability,
	// randomizing observed transfer volumes.
	ZeroPadProb float64
	// Seed drives the defence randomness.
	Seed int64
}

// DefaultConfig returns an Eyeriss-v2-like accelerator with dual-channel
// LPDDR4. With this memory the encoding pipeline is GLB-bound on every
// layer of the evaluated victims — including the residual-branch convs
// whose pre-add outputs are dense — which is the regime the §7 timing
// channel assumes.
func DefaultConfig() Config {
	return Config{
		ActCodec:    sparse.Bitmap{ElemBytes: 1},
		WeightCodec: sparse.CSC{ElemBytes: 1, IndexBits: 4},
		PsumBits:    20,
		GLBRowWords: 24,
		ClockHz:     200e6,
		PEs:         192,
		Mem:         dram.LPDDR4(2),
		BlockBytes:  64,
		Seed:        1,
	}
}

// DenseConfig returns a dense accelerator (no compression anywhere): the
// setting the prior ReverseCNN attack assumes, where every transfer size
// equals the tensor's element count times the element width.
func DenseConfig() Config {
	cfg := DefaultConfig()
	cfg.ActCodec = sparse.Dense{ElemBytes: 1}
	cfg.WeightCodec = sparse.Dense{ElemBytes: 1}
	return cfg
}

// StructuredConfig returns a structured-sparse accelerator: dense
// activations and channel-granular weight compression, so no transfer size
// depends on data content — the regime where dense-era attacks still work.
func StructuredConfig() Config {
	cfg := DefaultConfig()
	cfg.ActCodec = sparse.Dense{ElemBytes: 1}
	cfg.StructuredWeights = true
	return cfg
}

// psumReadRate returns GLB psum words consumed per second.
func (c Config) psumReadRate() float64 { return float64(c.GLBRowWords) * c.ClockHz }

// EncodingBounds returns the two candidate durations of the encoding
// pipeline for a layer with the given dense psum count and compressed output
// size: the GLB-side time (reading all psum rows) and the DRAM-side time
// (writing all compressed blocks). The pipeline is bound by the larger.
func EncodingBounds(c Config, psums, outBytes int) (glbTime, dramTime float64) {
	glbTime = float64(psums) / c.psumReadRate()
	dramTime = float64(outBytes) / c.Mem.Bandwidth()
	return glbTime, dramTime
}

// GLBHeadroom returns how many times faster the GLB could read psums
// before the first conv layer's encoding becomes DRAM-bound on cfg's memory
// (the §8.2 table): the minimum over arch's conv units of GLB time ÷ DRAM
// time, from a run's per-layer stats, whose OutBytes must come from cfg's
// activation codec. Below 1, some conv layer is already DRAM-bound. The
// classifier head is left out: its psum count (#classes) is below the DRAM
// block size, so its "interval" is a single transfer that carries no timing.
func GLBHeadroom(cfg Config, arch *models.Arch, layers []LayerStats) float64 {
	h := math.Inf(1)
	for _, l := range layers {
		if arch.Units[l.Unit].Kind != models.UnitConv {
			continue
		}
		glb, dr := EncodingBounds(cfg, l.Psums, l.OutBytes)
		h = min(h, glb/dr)
	}
	return h
}

// Machine is a deployed model on the simulated accelerator. It computes
// each inference from an inference plan (plan.go) that it builds at its
// first run, reading Bind's weights, batch-norm statistics and biases then:
// changes to them after the first run are not seen. Run is not concurrent:
// one machine serves one campaign at a time.
type Machine struct {
	Cfg  Config
	Arch *models.Arch
	Bind *models.Binding

	weightAddrs []addrRange // per unit
	rng         *rand.Rand
	plan        *plan
	stats       Stats

	// statsMu guards the published snapshots below. Run itself is not
	// concurrent, but live telemetry readers — the /campaigns endpoint, a
	// scraping exporter — snapshot LastStats/Campaign while a worker is
	// mid-campaign.
	statsMu   sync.Mutex
	published Stats
	campaign  CampaignStats
}

type addrRange struct {
	lo   uint64
	size int
}

// Address map: weights live in a read-only region; activations are bump-
// allocated per inference with no reuse (each tensor version gets a fresh
// range, which is what SSA-style renaming would recover anyway).
const (
	weightBase = uint64(0x1000_0000)
	actBase    = uint64(0x8000_0000)
)

// NewMachine deploys a built model. Weight regions are laid out immediately
// (their compressed sizes are content-dependent and fixed after pruning).
func NewMachine(cfg Config, arch *models.Arch, bind *models.Binding) *Machine {
	m := &Machine{Cfg: cfg, Arch: arch, Bind: bind, rng: rand.New(rand.NewSource(cfg.Seed))}
	next := weightBase
	m.weightAddrs = make([]addrRange, len(arch.Units))
	for i := range arch.Units {
		size := m.weightBytes(i)
		m.weightAddrs[i] = addrRange{lo: next, size: size}
		next += uint64(size) + 0x1000
	}
	return m
}

// weightBytes returns the compressed weight footprint of unit i (0 for
// units without weights).
func (m *Machine) weightBytes(i int) int {
	var w *tensor.Tensor
	if c := m.Bind.Conv[i]; c != nil {
		w = c.Weight.W
	} else if fc := m.Bind.FC[i]; fc != nil {
		w = fc.Weight.W
	} else {
		return 0
	}
	if m.Cfg.StructuredWeights {
		return structuredWeightBytes(w)
	}
	return m.Cfg.WeightCodec.Size(w.Data)
}

// structuredWeightBytes models channel-granular weight compression: alive
// output channels ship densely (1 byte/weight) plus a presence bitmap.
func structuredWeightBytes(w *tensor.Tensor) int {
	outC := w.Dim(0)
	per := w.Size() / outC
	alive := 0
	for c := 0; c < outC; c++ {
		for _, v := range w.Data[c*per : (c+1)*per] {
			if v != 0 {
				alive++
				break
			}
		}
	}
	return alive*per + (outC+7)/8
}

// actBytes returns the compressed size of an activation tensor, applying
// the ZeroPadProb defence if enabled: protected zeros are shipped as if
// they were nonzero, inflating (and randomizing) the transfer.
func (m *Machine) actBytes(values []float64) int {
	if m.Cfg.ZeroPadProb > 0 {
		values = append([]float64(nil), values...)
		for i, v := range values {
			if v == 0 && m.rng.Float64() < m.Cfg.ZeroPadProb {
				values[i] = 1 // any nonzero marker: only the size matters
			}
		}
	}
	return m.Cfg.ActCodec.Size(values)
}

// emitter builds the trace with a running clock.
type emitter struct {
	t     float64
	bw    float64
	block int
	tr    *trace.Trace
}

// burst emits a sequence of block transfers covering [lo, lo+bytes) at the
// DRAM bandwidth, advancing the clock.
func (e *emitter) burst(op trace.Op, lo uint64, bytes int) {
	for off := 0; off < bytes; off += e.block {
		n := e.block
		if off+n > bytes {
			n = bytes - off
		}
		e.tr.Accesses = append(e.tr.Accesses, trace.Access{Time: e.t, Op: op, Addr: lo + uint64(off), Bytes: n})
		e.t += float64(n) / e.bw
	}
}

// interleavedReads emits two read streams (input acts first, then strictly
// alternating with weights) so segmentation sees the RAW-dependent read
// first — matching a real streaming accelerator that begins fetching the
// input tile immediately.
func (e *emitter) interleavedReads(inputs []addrRange, weights addrRange) {
	type stream struct {
		r   addrRange
		off int
	}
	var streams []stream
	for _, in := range inputs {
		streams = append(streams, stream{r: in})
	}
	if weights.size > 0 {
		streams = append(streams, stream{r: weights})
	}
	done := 0
	for done < len(streams) {
		done = 0
		for i := range streams {
			s := &streams[i]
			if s.off >= s.r.size {
				done++
				continue
			}
			n := e.block
			if s.off+n > s.r.size {
				n = s.r.size - s.off
			}
			e.tr.Accesses = append(e.tr.Accesses, trace.Access{Time: e.t, Op: trace.Read, Addr: s.r.lo + uint64(s.off), Bytes: n})
			e.t += float64(n) / e.bw
			s.off += n
		}
	}
}

// Run executes one inference (batch size 1) and returns the DRAM trace.
// The returned trace begins with the attacker's input DMA segment.
func (m *Machine) Run(img *tensor.Tensor) (*trace.Trace, error) {
	return m.RunCtx(context.Background(), img)
}

// RunCtx is Run with a caller-supplied context. When ctx carries pprof
// labels (a profiled attack's stage=), each unit's computation and trace
// emission run under a goroutine pprof label layer=<unit name> merged into
// ctx's label set, so a CPU profile captured around a campaign slices by
// pipeline stage AND by simulated layer. The context carries no
// cancellation semantics here — one inference is the simulator's atomic
// unit.
func (m *Machine) RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error) {
	if img.NumDims() == 3 {
		img = img.Reshape(1, img.Dim(0), img.Dim(1), img.Dim(2))
	}
	if img.NumDims() != 4 || img.Dim(0) != 1 {
		return nil, fmt.Errorf("accel: Run requires a single [C,H,W] or [1,C,H,W] image, got %v: %w", img.Shape(), faults.ErrBadConfig)
	}
	if img.Dim(1) != m.Arch.InC || img.Dim(2) != m.Arch.InH || img.Dim(3) != m.Arch.InW {
		return nil, fmt.Errorf("accel: image %v does not match arch input %dx%dx%d: %w", img.Shape(), m.Arch.InC, m.Arch.InH, m.Arch.InW, faults.ErrBadConfig)
	}

	if m.plan == nil {
		p, err := newPlan(m.Arch, m.Bind)
		if err != nil {
			return nil, fmt.Errorf("accel: building the inference plan: %w", err)
		}
		m.plan = p
	}
	p := m.plan
	p.begin(img.Data)

	// Size the trace from the last run's: event counts move little
	// between inputs, and growing it by appends doubles what it allocates.
	events := m.stats.TraceReadEvents + m.stats.TraceWriteEvents
	m.stats = Stats{}
	tr := &trace.Trace{Accesses: make([]trace.Access, 0, events+events/8)}
	e := &emitter{bw: m.Cfg.Mem.Bandwidth(), block: m.Cfg.BlockBytes, tr: tr}

	// Segment 0: attacker DMA of the (compressed) input image.
	next := actBase
	alloc := func(size int) addrRange {
		r := addrRange{lo: next, size: size}
		next += uint64(size) + 0x100
		return r
	}
	inputRange := alloc(m.actBytes(img.Data))
	e.burst(trace.Write, inputRange.lo, inputRange.size)

	// Activation ranges per unit output.
	outRanges := make([]addrRange, len(m.Arch.Units))
	rangeOf := func(id int) addrRange {
		if id == models.InputID {
			return inputRange
		}
		return outRanges[id]
	}

	// Per-layer CPU attribution: only labelled runs pay for the label swap
	// (two small allocations per unit), and the parent label set is restored
	// before returning so the caller's stage= label survives.
	labelled := false
	pprof.ForLabels(ctx, func(string, string) bool {
		labelled = true
		return false
	})
	if labelled {
		defer pprof.SetGoroutineLabels(ctx)
	}

	for i, u := range m.Arch.Units {
		if labelled {
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("layer", u.Name)))
		}
		// 1. Fetch inputs (and weights, interleaved).
		var inputs []addrRange
		readBytes := m.weightAddrs[i].size
		for _, src := range u.In {
			r := rangeOf(src)
			inputs = append(inputs, r)
			readBytes += r.size
		}
		e.interleavedReads(inputs, m.weightAddrs[i])

		// 2. Compute (zero-skipped MACs on the PE array). The compute-time
		// model, effectual MACs over PE throughput, only adds realism to the
		// timeline; the attack does not use it.
		p.run(i)
		dense, effectual := p.macs(i)
		e.t += effectual / float64(m.Cfg.PEs) / m.Cfg.ClockHz
		m.stats.DenseMACs += dense
		m.stats.EffectualMACs += effectual

		// 3. Post-process: encode psums on the fly and write back.
		out := &p.units[i].out
		outBytes := m.actBytes(out.data)
		psums := p.units[i].psums
		r := alloc(outBytes)
		outRanges[i] = r
		encDt := m.encode(e, r, outBytes, psums)
		m.stats.Layers = append(m.stats.Layers, LayerStats{
			Unit:           i,
			Name:           u.Name,
			DRAMReadBytes:  readBytes,
			DRAMWriteBytes: outBytes,
			EffectualMACs:  effectual,
			DenseMACs:      dense,
			Psums:          psums,
			OutBytes:       outBytes,
			OutNNZ:         out.nnz,
			EncodeTime:     encDt,
		})
	}
	p.commit()
	m.stats.DRAMReadBytes, m.stats.DRAMWriteBytes = e.tr.TotalBytes()
	for _, a := range e.tr.Accesses {
		if a.Op == trace.Read {
			m.stats.TraceReadEvents++
		} else {
			m.stats.TraceWriteEvents++
		}
	}
	m.finalizeStats(e.t)
	return e.tr, nil
}

// encode simulates the on-the-fly encoding pipeline of §7.2. The encoder
// consumes dense psums from the GLB at a fixed rate; compressed bytes become
// available in proportion to psums consumed; completed blocks are written to
// DRAM, which serializes at its bandwidth. The resulting write timestamps
// are GLB-bound (panel a) or DRAM-bound (panel b) exactly as in the paper.
// It returns the simulated duration of the encoding interval.
func (m *Machine) encode(e *emitter, r addrRange, outBytes, psums int) float64 {
	if outBytes == 0 {
		return 0
	}
	start := e.t
	rate := m.Cfg.psumReadRate()
	dramFree := e.t
	for off := 0; off < outBytes; off += e.block {
		n := e.block
		if off+n > outBytes {
			n = outBytes - off
		}
		// Psums that must be consumed before this block is complete.
		needed := float64(psums) * float64(off+n) / float64(outBytes)
		avail := start + needed/rate
		issue := avail
		if dramFree > issue {
			issue = dramFree
		}
		e.tr.Accesses = append(e.tr.Accesses, trace.Access{Time: issue, Op: trace.Write, Addr: r.lo + uint64(off), Bytes: n})
		dramFree = issue + float64(n)/e.bw
	}
	if dramFree > e.t {
		e.t = dramFree
	}
	return dramFree - start
}
