// Package converge makes the attack's solution-space collapse a first-class
// observable. HuffDuff's headline result (§8.2) is the narrowing of the
// architecture search space from ~10⁹⁶ candidate networks to fewer than a
// hundred; metrics can say where the attacker's *time* went, but not what
// the attack has *learned* so far. The Ledger closes that gap: the
// pipeline appends a Snapshot after every knowledge-changing step
// (calibration, probe progress, each convergence-loop solve, timing,
// finalization), and each snapshot carries the per-layer candidate state,
// the log10 volume of the remaining solution space, and the information
// eliminated since the previous snapshot.
//
// The ledger is the attack's one record of knowledge and progress; host
// cost (metrics, pprof stage labels) travels separately, through the
// obs.Recorder and prof.Stage, and neither copies anything into the other.
//
// Ledgers are safe for concurrent use: the attack appends from its worker
// goroutine while HTTP handlers read Latest/Snapshots and streaming clients
// consume Subscribe. Victim-query counting (AddQueries) is a single atomic
// add so the prober's hot path stays cheap, and every accessor is nil-safe
// so call sites need no ledger checks — a nil *Ledger is the off switch,
// mirroring the obs.Recorder convention.
package converge

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// LayerState is one layer's recovered knowledge at snapshot time. Node is
// the victim-architecture node ID; a conv layer that has collapsed to a
// single geometry hypothesis reports its Kernel/Stride/Pool, one that is
// still ambiguous reports Candidates > 1. KMin/KMax bound the layer's
// channel count once finalization has run (exact recovery sets KMin==KMax),
// and KRatio/Confidence carry the timing channel and §8.2 convergence-loop
// outputs when available.
type LayerState struct {
	Node       int     `json:"node"`
	Kernel     int     `json:"kernel,omitempty"`
	Stride     int     `json:"stride,omitempty"`
	Pool       int     `json:"pool,omitempty"`
	Candidates int     `json:"candidates"`
	Exact      bool    `json:"exact,omitempty"`
	KMin       int     `json:"k_min,omitempty"`
	KMax       int     `json:"k_max,omitempty"`
	KRatio     float64 `json:"k_ratio,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// Snapshot is one ledger entry: everything the attack knows at a point in
// the campaign. Seq, TS, and Queries are assigned by Append; the caller
// fills in the knowledge fields. Layers must be sorted by Node so the JSONL
// stream is deterministic.
type Snapshot struct {
	// Seq numbers snapshots from 0 in append order.
	Seq int `json:"seq"`
	// TS is the append host time (Unix nanoseconds). Excluded from any
	// determinism gating; it exists so streamed snapshots can be plotted
	// against wall clock.
	TS int64 `json:"ts_unix_nano"`
	// Stage names the pipeline stage that produced the snapshot
	// (calibration, probe, solve, timing, finalize, ...).
	Stage string `json:"stage"`
	// Queries is the cumulative victim-inference count at snapshot time.
	Queries int64 `json:"queries"`
	// Log10Volume is log10 of the number of candidate architectures still
	// admissible, when computable (VolumeKnown). The §8.2 collapse is this
	// value falling from ~96 toward ~2.
	Log10Volume float64 `json:"log10_volume"`
	VolumeKnown bool    `json:"volume_known"`
	// BitsEliminated is the information gained since the previous
	// volume-known snapshot: (prevLog10 − Log10Volume)·log2(10). Computed
	// by Append; negative gains are clamped to 0.
	BitsEliminated float64 `json:"bits_eliminated"`
	// GeomAmbiguity is the number of whole-network geometry assignments
	// consistent with the probe observations (1 = geometry pinned).
	GeomAmbiguity int `json:"geom_ambiguity,omitempty"`
	// Layers is the per-layer candidate state, sorted by Node.
	Layers []LayerState `json:"layers,omitempty"`
	// Degraded marks a snapshot taken on the timing-free path. Done marks
	// the campaign's final snapshot.
	Degraded bool `json:"degraded,omitempty"`
	Done     bool `json:"done,omitempty"`
	// Note carries free-form context (degradation reason, convergence-loop
	// trial count).
	Note string `json:"note,omitempty"`
}

// subBuffer is the per-subscriber channel capacity beyond the replayed
// prefix. A subscriber that falls this far behind the live append stream is
// disconnected (its channel closed) rather than allowed to block the
// attack; campaigns append a handful of snapshots per stage, so only a
// stalled client ever hits this.
const subBuffer = 256

// Ledger accumulates Snapshots for one attack campaign and serves them as a
// history, a JSONL export, and a live subscription stream for HTTP progress
// endpoints.
type Ledger struct {
	queries atomic.Int64

	mu sync.Mutex
	// snaps is guarded by mu.
	snaps []Snapshot
	// subs is guarded by mu.
	subs map[int]chan Snapshot
	// nextSub is guarded by mu.
	nextSub int
	// closed is guarded by mu.
	closed bool
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{subs: make(map[int]chan Snapshot)}
}

// AddQueries counts n victim inferences against the ledger. Nil-safe and
// atomic: the prober calls this once per inference.
func (l *Ledger) AddQueries(n int) {
	if l == nil {
		return
	}
	l.queries.Add(int64(n))
}

// Queries returns the cumulative victim-inference count. Nil-safe.
func (l *Ledger) Queries() int64 {
	if l == nil {
		return 0
	}
	return l.queries.Load()
}

// Append records s, assigning Seq, TS, Queries, and BitsEliminated, and
// fans the completed snapshot out to subscribers. It returns
// the completed snapshot. Nil-safe; appends after Close are dropped.
func (l *Ledger) Append(s Snapshot) Snapshot {
	if l == nil {
		return s
	}
	s.TS = time.Now().UnixNano()
	s.Queries = l.queries.Load()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return s
	}
	s.Seq = len(l.snaps)
	s.BitsEliminated = 0
	if s.VolumeKnown {
		for i := len(l.snaps) - 1; i >= 0; i-- {
			if l.snaps[i].VolumeKnown {
				if gain := (l.snaps[i].Log10Volume - s.Log10Volume) * math.Log2(10); gain > 0 {
					s.BitsEliminated = gain
				}
				break
			}
		}
	}
	l.snaps = append(l.snaps, s)
	for id, ch := range l.subs {
		select {
		case ch <- s:
		default:
			// Slow consumer: disconnect it rather than block the attack.
			delete(l.subs, id)
			close(ch)
		}
	}
	l.mu.Unlock()
	return s
}

// Snapshots returns a copy of every snapshot appended so far. Nil-safe.
func (l *Ledger) Snapshots() []Snapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Snapshot(nil), l.snaps...)
}

// Latest returns the most recent snapshot, if any. Nil-safe.
func (l *Ledger) Latest() (Snapshot, bool) {
	if l == nil {
		return Snapshot{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.snaps) == 0 {
		return Snapshot{}, false
	}
	return l.snaps[len(l.snaps)-1], true
}

// Subscribe returns a channel that first replays every snapshot appended so
// far and then delivers each new one as it lands. The channel is closed when
// the ledger is closed or when the subscriber falls more than subBuffer
// snapshots behind. cancel unsubscribes (idempotent, safe after close).
func (l *Ledger) Subscribe() (<-chan Snapshot, func()) {
	if l == nil {
		ch := make(chan Snapshot)
		close(ch)
		return ch, func() {}
	}
	l.mu.Lock()
	ch := make(chan Snapshot, len(l.snaps)+subBuffer)
	for _, s := range l.snaps {
		ch <- s
	}
	if l.closed {
		close(ch)
		l.mu.Unlock()
		return ch, func() {}
	}
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	l.mu.Unlock()

	cancel := func() {
		l.mu.Lock()
		if c, ok := l.subs[id]; ok {
			delete(l.subs, id)
			close(c)
		}
		l.mu.Unlock()
	}
	return ch, cancel
}

// Subscribers reports the number of live subscriptions. This is the
// regression hook for the streaming handlers: after a client disconnects,
// its subscription must be gone, or every abandoned stream pins a channel
// (and its buffered replay) for the life of the campaign. Nil-safe.
func (l *Ledger) Subscribers() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

// Close marks the ledger complete: subscriber channels are closed (after
// draining their buffered replay) and later Appends are dropped. Idempotent
// and nil-safe.
func (l *Ledger) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for id, ch := range l.subs {
		delete(l.subs, id)
		close(ch)
	}
}

// WriteJSONL writes every snapshot as one JSON object per line, in append
// order. This is the convergence-curve artifact format (bench uploads,
// EXPERIMENTS plots). Nil-safe.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range l.Snapshots() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// Summary condenses a completed ledger into the few numbers the benchmark
// gate tracks.
type Summary struct {
	// InitialLog10Volume / FinalLog10Volume are the first and last
	// volume-known snapshots (the §8.2 collapse endpoints).
	InitialLog10Volume float64 `json:"initial_log10_volume"`
	FinalLog10Volume   float64 `json:"final_log10_volume"`
	// QueriesTo90Pct is the victim-query count at the first snapshot where
	// 90% of the total log-volume collapse had happened — the attack's
	// "time to useful answer". 0 when no volume was ever computed.
	QueriesTo90Pct int64 `json:"queries_to_90pct"`
	// TotalQueries and Snapshots size the campaign.
	TotalQueries int64 `json:"total_queries"`
	Snapshots    int   `json:"snapshots"`
}

// Summary computes the ledger's summary. Nil-safe.
func (l *Ledger) Summary() Summary {
	var sum Summary
	if l == nil {
		return sum
	}
	snaps := l.Snapshots()
	sum.Snapshots = len(snaps)
	sum.TotalQueries = l.Queries()
	first := true
	for _, s := range snaps {
		if !s.VolumeKnown {
			continue
		}
		if first {
			sum.InitialLog10Volume = s.Log10Volume
			first = false
		}
		sum.FinalLog10Volume = s.Log10Volume
	}
	if first {
		return sum // no volume-known snapshots
	}
	target := sum.InitialLog10Volume - 0.9*(sum.InitialLog10Volume-sum.FinalLog10Volume)
	for _, s := range snaps {
		if s.VolumeKnown && s.Log10Volume <= target {
			sum.QueriesTo90Pct = s.Queries
			break
		}
	}
	return sum
}

// ctxKey keys a *Ledger in a context.
type ctxKey struct{}

// WithLedger attaches l to ctx; a nil ledger returns ctx unchanged.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, l)
}

// FromContext returns the ledger attached to ctx, or nil. Combined with
// nil-safe methods, hooks read as one line:
// converge.FromContext(ctx).AddQueries(1).
func FromContext(ctx context.Context) *Ledger {
	l, _ := ctx.Value(ctxKey{}).(*Ledger)
	return l
}
