package accel

import (
	"fmt"
	"strings"
)

// Energy cost constants: representative per-operation energies for a
// 28–45 nm mobile accelerator (Eyeriss-class numbers; the exact values only
// scale the report, the attack never reads them).
const (
	// EnergyPerMAC is an 8-bit multiply-accumulate in pJ.
	EnergyPerMAC = 0.5
	// EnergyPerGLBByte is a global-buffer SRAM access in pJ/byte.
	EnergyPerGLBByte = 3.0
	// EnergyPerDRAMByte is an off-chip LPDDR access in pJ/byte.
	EnergyPerDRAMByte = 100.0
)

// LayerStats is the per-layer telemetry of one inference: what each
// execution unit moved, computed, and spent in the encoding pipeline. All
// times are *simulated* device time, never host wall-clock.
type LayerStats struct {
	// Unit is the Arch unit index; Name is its architectural name.
	Unit int    `json:"unit"`
	Name string `json:"name"`
	// DRAM traffic attributed to this unit, in compressed on-bus bytes.
	DRAMReadBytes  int `json:"dram_read_bytes"`
	DRAMWriteBytes int `json:"dram_write_bytes"`
	// EffectualMACs counts multiply-accumulates after two-sided zero
	// skipping; DenseMACs is the dense-accelerator count (0 for units
	// without MACs).
	EffectualMACs float64 `json:"effectual_macs"`
	DenseMACs     float64 `json:"dense_macs"`
	// Psums is the dense psum count entering the encoder; OutBytes and
	// OutNNZ describe the compressed output written back.
	Psums    int `json:"psums"`
	OutBytes int `json:"out_bytes"`
	OutNNZ   int `json:"out_nnz"`
	// EncodeTime is the simulated duration of the unit's psum-encoding
	// interval (first to last output write), in seconds.
	EncodeTime float64 `json:"encode_seconds"`
}

// add accumulates another observation of the same layer.
func (l *LayerStats) add(o LayerStats) {
	l.DRAMReadBytes += o.DRAMReadBytes
	l.DRAMWriteBytes += o.DRAMWriteBytes
	l.EffectualMACs += o.EffectualMACs
	l.DenseMACs += o.DenseMACs
	l.Psums += o.Psums
	l.OutBytes += o.OutBytes
	l.OutNNZ += o.OutNNZ
	l.EncodeTime += o.EncodeTime
}

// Stats summarizes one inference on the simulated device.
type Stats struct {
	// DRAM traffic in bytes (compressed, as on the bus).
	DRAMReadBytes, DRAMWriteBytes int
	// EffectualMACs counts multiply-accumulates after two-sided zero
	// skipping; DenseMACs is the count a dense accelerator would perform.
	EffectualMACs, DenseMACs float64
	// TraceReadEvents / TraceWriteEvents count the individual DRAM trace
	// accesses emitted by this inference. Every event costs host CPU in the
	// simulator's hot loops (emission, then segmentation and feature
	// extraction on the attack side), so their campaign total is the
	// simulator workload measure the tier-1 cost pins hold (trace events
	// per attack, in internal/huffduff's tests).
	TraceReadEvents, TraceWriteEvents int
	// Latency is the end-to-end inference time in seconds (simulated
	// device time, not host wall-clock).
	Latency float64
	// EnergyPJ breaks the energy estimate down by component, in pJ.
	EnergyPJ EnergyBreakdown
	// Layers is the per-unit breakdown of this inference.
	Layers []LayerStats
}

// EnergyBreakdown splits the energy estimate.
type EnergyBreakdown struct {
	DRAM, GLB, MAC float64
}

// Total returns the summed energy in pJ.
func (e EnergyBreakdown) Total() float64 { return e.DRAM + e.GLB + e.MAC }

// Speedup returns the zero-skipping MAC reduction factor.
func (s Stats) Speedup() float64 {
	if s.EffectualMACs == 0 {
		return 1
	}
	return s.DenseMACs / s.EffectualMACs
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("dram %d B read / %d B written, %.0f effectual MACs (%.1fx skip), %.1f us, %.1f uJ",
		s.DRAMReadBytes, s.DRAMWriteBytes, s.EffectualMACs, s.Speedup(), s.Latency*1e6, s.EnergyPJ.Total()/1e6)
}

// LastStats returns the statistics of the most recent completed Run (zero
// value before the first inference). Use Campaign for totals across runs.
// Safe to call concurrently with a running campaign: in-flight runs are
// invisible until they finalize.
func (m *Machine) LastStats() Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	out := m.published
	out.Layers = append([]LayerStats(nil), m.published.Layers...)
	return out
}

// CampaignStats accumulates device telemetry across every Run since machine
// creation (or the last ResetCampaign): the per-layer breakdown a whole
// probing campaign induces on the victim. All times are simulated device
// seconds.
type CampaignStats struct {
	// Runs is how many inferences the campaign executed.
	Runs int `json:"runs"`
	// Aggregate DRAM traffic and MAC work across all runs.
	DRAMReadBytes  int     `json:"dram_read_bytes"`
	DRAMWriteBytes int     `json:"dram_write_bytes"`
	EffectualMACs  float64 `json:"effectual_macs"`
	DenseMACs      float64 `json:"dense_macs"`
	// TraceReadEvents / TraceWriteEvents total the DRAM trace accesses the
	// campaign generated — the simulator hot-loop workload measure.
	TraceReadEvents  int `json:"trace_read_events"`
	TraceWriteEvents int `json:"trace_write_events"`
	// SimulatedTime is the summed per-inference device latency.
	SimulatedTime float64 `json:"simulated_seconds"`
	// EnergyPJ sums the per-run energy estimates.
	EnergyPJ EnergyBreakdown `json:"energy_pj"`
	// Layers accumulates the per-unit breakdown across runs.
	Layers []LayerStats `json:"layers"`
}

// Campaign returns a copy of the accumulated campaign telemetry. Safe to
// call concurrently with a running campaign: runs publish their stats
// atomically as they finalize, so readers always see a consistent total.
func (m *Machine) Campaign() CampaignStats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	out := m.campaign
	out.Layers = append([]LayerStats(nil), m.campaign.Layers...)
	return out
}

// ResetCampaign clears the accumulated campaign telemetry.
func (m *Machine) ResetCampaign() {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	m.campaign = CampaignStats{}
}

// String renders the campaign as a per-layer table.
func (c CampaignStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign: %d runs, %.3f simulated device seconds, %.1f uJ\n",
		c.Runs, c.SimulatedTime, c.EnergyPJ.Total()/1e6)
	fmt.Fprintf(&sb, "%4s %-10s %14s %14s %16s %16s %12s %14s\n",
		"unit", "name", "dram rd (B)", "dram wr (B)", "effectual MACs", "dense MACs", "out nnz", "encode Δt (s)")
	for _, l := range c.Layers {
		fmt.Fprintf(&sb, "%4d %-10s %14d %14d %16.0f %16.0f %12d %14.6f\n",
			l.Unit, l.Name, l.DRAMReadBytes, l.DRAMWriteBytes, l.EffectualMACs, l.DenseMACs, l.OutNNZ, l.EncodeTime)
	}
	return sb.String()
}

// accumulateCampaign folds the just-finalized per-run stats into the
// campaign accumulator.
func (m *Machine) accumulateCampaign() {
	c := &m.campaign
	c.Runs++
	c.DRAMReadBytes += m.stats.DRAMReadBytes
	c.DRAMWriteBytes += m.stats.DRAMWriteBytes
	c.EffectualMACs += m.stats.EffectualMACs
	c.DenseMACs += m.stats.DenseMACs
	c.TraceReadEvents += m.stats.TraceReadEvents
	c.TraceWriteEvents += m.stats.TraceWriteEvents
	c.SimulatedTime += m.stats.Latency
	c.EnergyPJ.DRAM += m.stats.EnergyPJ.DRAM
	c.EnergyPJ.GLB += m.stats.EnergyPJ.GLB
	c.EnergyPJ.MAC += m.stats.EnergyPJ.MAC
	if len(c.Layers) == 0 {
		c.Layers = append([]LayerStats(nil), m.stats.Layers...)
		return
	}
	for i, l := range m.stats.Layers {
		if i < len(c.Layers) {
			c.Layers[i].add(l)
		} else {
			c.Layers = append(c.Layers, l)
		}
	}
}

// finalizeStats computes derived quantities once a run completes.
func (m *Machine) finalizeStats(latency float64) {
	m.stats.Latency = latency
	// GLB traffic: the encoder consumes *dense* psums — every psum word is
	// written to the GLB once by the PE array and read once by the encoder
	// (§7: the encoding pipeline is GLB-bound on dense psums, not on the
	// compressed output) — while activations and weights stream through the
	// GLB once at their compressed on-bus size.
	psumBytes := 0.0
	for _, l := range m.stats.Layers {
		psumBytes += float64(l.Psums) * float64(m.Cfg.PsumBits) / 8
	}
	glbBytes := 2*psumBytes + float64(m.stats.DRAMReadBytes+m.stats.DRAMWriteBytes)
	m.stats.EnergyPJ = EnergyBreakdown{
		DRAM: float64(m.stats.DRAMReadBytes+m.stats.DRAMWriteBytes) * EnergyPerDRAMByte,
		GLB:  glbBytes * EnergyPerGLBByte,
		MAC:  m.stats.EffectualMACs * EnergyPerMAC,
	}
	// Publish the finished run for concurrent snapshot readers; m.stats
	// itself stays private to the runner.
	m.statsMu.Lock()
	m.published = m.stats
	m.published.Layers = append([]LayerStats(nil), m.stats.Layers...)
	m.accumulateCampaign()
	m.statsMu.Unlock()
}
