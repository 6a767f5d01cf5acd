package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point of the program. Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends; it is safe for
// concurrent use. A nil *recorder records nothing, so untimed runs pay only a
// nil check per call site.
type recorder struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span // guarded by mu.
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// add records an already-measured interval, for spans whose start is known
// only after the fact (a campaign's submit→done).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// export writes the closed spans as JSON lines, in ID order.
func (r *recorder) export(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// children returns the spans whose parent is id.
func children(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is parent's duration minus the part of its interval that the
// children cover; overlapping children are counted once and anything outside
// the parent's interval is ignored.
func selfTime(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if open {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}
