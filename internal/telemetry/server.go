package telemetry

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	rtpprof "runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prof"
	"github.com/huffduff/huffduff/internal/store"
)

// CampaignSource lists campaigns for /campaigns. *Daemon implements it.
type CampaignSource interface {
	Campaigns() []CampaignSnapshot
	CampaignByID(id int) (CampaignSnapshot, bool)
}

// AggregateSource serves GET /campaigns/aggregate?by=model. *Daemon
// implements it (from the campaign store).
type AggregateSource interface {
	AggregateByModel() ([]store.ModelAggregate, error)
}

// CampaignEventsSource serves GET /campaigns/{id}/events — the persisted
// flight-recorder tail of a terminal campaign. *Daemon implements it.
type CampaignEventsSource interface {
	CampaignEvents(id int) (store.EventBatch, bool, error)
}

// Submitter accepts campaign jobs for POST /campaigns. *Daemon implements
// it; a nil Submitter makes the endpoint read-only.
type Submitter interface {
	Submit(JobSpec) (CampaignSnapshot, error)
}

// HealthSource reports daemon health for /healthz. *Daemon implements it;
// without one the endpoint degrades to a bare 200 "ok".
type HealthSource interface {
	Health() Health
}

// ProgressSource resolves a campaign's convergence ledger for the
// /campaigns/{id}/progress endpoints. *Daemon implements it.
type ProgressSource interface {
	ProgressLedger(id int) (*converge.Ledger, bool)
}

// ServerOptions wires the telemetry server to its data sources. Every field
// is optional: a missing source turns the corresponding endpoint into a
// 404/empty response rather than a crash.
type ServerOptions struct {
	// Collector backs /metrics (Prometheus text format).
	Collector *obs.Collector
	// Flight backs /events (JSONL dump of the retained event tail).
	Flight *obs.FlightRecorder
	// Campaigns backs GET /campaigns and /campaigns/{id}.
	Campaigns CampaignSource
	// Submitter enables POST /campaigns.
	Submitter Submitter
	// Health backs /healthz: "ok" (200), "degraded" (200, the most recent
	// durable write failed), or "draining" (503, so load-balancers stop
	// routing to a dying node).
	Health HealthSource
	// Progress backs GET /campaigns/{id}/progress (latest convergence
	// snapshot) and /campaigns/{id}/progress/stream (incremental JSONL).
	Progress ProgressSource
	// Runtime, when set alongside Collector, refreshes Go runtime gauges
	// (goroutines, heap bytes, GC cycles, GC pause histogram) into the
	// Collector on every /metrics scrape.
	Runtime *prof.RuntimeSampler
	// DisablePprof removes the net/http/pprof handlers (on by default:
	// on-demand CPU/heap profiles are half the point of a live daemon).
	DisablePprof bool
}

// Server is the live telemetry HTTP server: /metrics, /healthz, /campaigns,
// /events, and /debug/pprof on one mux.
type Server struct {
	opts ServerOptions
	mux  *http.ServeMux
	http *http.Server
	// profiling guards /debug/profile: the runtime allows one CPU profile
	// at a time process-wide, so concurrent captures get 409.
	profiling atomic.Bool
}

// NewServer builds the server; call Serve or ListenAndServe to start it.
func NewServer(opts ServerOptions) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/campaigns", s.handleCampaigns)
	s.mux.HandleFunc("/campaigns/", s.handleCampaignByID)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/debug/profile", s.handleProfile)
	if !opts.DisablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Handler exposes the mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("telemetry: serve: %w", err)
	}
	return nil
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.http.Addr = addr
	err := s.http.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("telemetry: listen on %s: %w", addr, err)
	}
	return nil
}

// Shutdown gracefully stops the HTTP server (in-flight requests finish).
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.http.Shutdown(ctx); err != nil {
		return fmt.Errorf("telemetry: http shutdown: %w", err)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.opts.Health == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	h := s.opts.Health.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		// A draining daemon finishes what it has but must receive no new
		// work: 503 tells fleet load-balancers to route elsewhere.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.opts.Collector == nil {
		http.Error(w, "no collector configured", http.StatusNotFound)
		return
	}
	if s.opts.Runtime != nil {
		// Pull-driven runtime health: gauges reflect the moment of the
		// scrape, and GC pauses land exactly once across scrapes.
		s.opts.Runtime.Sample(s.opts.Collector)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.opts.Collector.WriteProm(w)
}

// profileSecondsMax caps the /debug/profile capture window so a stray query
// parameter cannot pin the profiler (and its capture slot) for minutes.
const profileSecondsMax = 60

// handleProfile captures an on-demand diagnostic bundle: a CPU profile over
// ?seconds (default 5, max 60) zipped together with the flight-recorder
// events that happened *during the capture window* and a metrics snapshot —
// the three artifacts a post-mortem wants, correlated in time. One capture
// runs at a time (409 otherwise). Captures are counted as
// daemon.profile_captures.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	secs := 5
	if q := r.URL.Query().Get("seconds"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, "seconds must be a positive integer", http.StatusBadRequest)
			return
		}
		secs = n
	}
	if secs > profileSecondsMax {
		secs = profileSecondsMax
	}
	if !s.profiling.CompareAndSwap(false, true) {
		http.Error(w, "a profile capture is already in progress", http.StatusConflict)
		return
	}
	defer s.profiling.Store(false)

	var cpu bytes.Buffer
	startNS := time.Now().UnixNano()
	if err := rtpprof.StartCPUProfile(&cpu); err != nil {
		// Something else (net/http/pprof, a local tool) holds the profiler.
		http.Error(w, "cpu profiler busy: "+err.Error(), http.StatusConflict)
		return
	}
	select {
	case <-time.After(time.Duration(secs) * time.Second):
	case <-r.Context().Done():
		// Client gave up: stop early and discard, freeing the profiler.
		rtpprof.StopCPUProfile()
		return
	}
	rtpprof.StopCPUProfile()

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	if f, err := zw.Create("cpu.pprof"); err == nil {
		_, _ = f.Write(cpu.Bytes())
	}
	if s.opts.Flight != nil {
		if f, err := zw.Create("flight.jsonl"); err == nil {
			enc := json.NewEncoder(f)
			for _, ev := range s.opts.Flight.Events() {
				if ev.TS >= startNS {
					_ = enc.Encode(ev)
				}
			}
		}
	}
	if s.opts.Collector != nil {
		if s.opts.Runtime != nil {
			s.opts.Runtime.Sample(s.opts.Collector)
		}
		if f, err := zw.Create("metrics.prom"); err == nil {
			_, _ = f.Write([]byte(s.opts.Collector.PromText()))
		}
		s.opts.Collector.Count("daemon.profile_captures", "", 1)
	}
	if err := zw.Close(); err != nil {
		http.Error(w, "assembling bundle: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", `attachment; filename="profile-bundle.zip"`)
	_, _ = w.Write(buf.Bytes())
}

// handleEvents serves the flight-recorder tail as JSONL, oldest first.
// ?since= (unix nanos) keeps only events with TS >= since; ?n= keeps only
// the newest n of what remains — so combined they mean "the last n events
// since T".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Flight == nil {
		http.Error(w, "no flight recorder configured", http.StatusNotFound)
		return
	}
	since, okSince := parseIntParam(r, "since", 64)
	n, okN := parseIntParam(r, "n", 0)
	if !okSince || !okN {
		http.Error(w, "n and since must be non-negative integers", http.StatusBadRequest)
		return
	}
	events := s.opts.Flight.Events()
	if since > 0 {
		kept := events[:0]
		for _, ev := range events {
			if ev.TS >= since {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if n > 0 && int64(len(events)) > n {
		events = events[int64(len(events))-n:]
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
}

// parseIntParam reads a non-negative integer query parameter; ok is false
// only when the parameter is present and malformed. bits 0 means int-sized.
func parseIntParam(r *http.Request, name string, bits int) (int64, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, true
	}
	v, err := strconv.ParseInt(q, 10, max(bits, strconv.IntSize))
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// parseCampaignQuery builds the store query from GET /campaigns parameters.
func parseCampaignQuery(r *http.Request) (store.Query, string, bool) {
	var q store.Query
	q.State = r.URL.Query().Get("state")
	switch q.State {
	case "", StateQueued, StateRunning, StateRetrying, StateDone, StateFailed:
	default:
		return q, "unknown state " + strconv.Quote(q.State), false
	}
	q.Model = r.URL.Query().Get("model")
	since, ok := parseIntParam(r, "since", 64)
	if !ok {
		return q, "since must be unix nanoseconds", false
	}
	q.SinceNS = since
	limit, ok := parseIntParam(r, "limit", 0)
	if !ok {
		return q, "limit must be a non-negative integer", false
	}
	q.Limit = int(limit)
	offset, ok := parseIntParam(r, "offset", 0)
	if !ok {
		return q, "offset must be a non-negative integer", false
	}
	q.Offset = int(offset)
	return q, "", true
}

// queryCampaigns serves the filtered listing behind GET
// /campaigns?state=&model=&since=&limit=&offset= from the source's listing,
// with the store's filter semantics and ascending-ID windows. The daemon's
// table holds every stored campaign once NewDaemon has restored it, so the
// listing needs no store read.
func queryCampaigns(src CampaignSource, q store.Query) []CampaignSnapshot {
	all := src.Campaigns()
	out := make([]CampaignSnapshot, 0, len(all))
	for _, snap := range all {
		if matchSnapshot(q, snap) {
			out = append(out, snap)
		}
	}
	// The listing contract is deterministic ascending-ID order regardless of
	// how the source enumerates.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if q.Offset > 0 {
		if q.Offset >= len(out) {
			out = out[:0]
		} else {
			out = out[q.Offset:]
		}
	}
	if q.Limit > 0 && q.Limit < len(out) {
		out = out[:q.Limit]
	}
	return out
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if s.opts.Campaigns == nil {
			writeJSON(w, http.StatusOK, []CampaignSnapshot{})
			return
		}
		q, msg, ok := parseCampaignQuery(r)
		if !ok {
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, queryCampaigns(s.opts.Campaigns, q))
	case http.MethodPost:
		if s.opts.Submitter == nil {
			http.Error(w, "read-only server: no submitter configured", http.StatusMethodNotAllowed)
			return
		}
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		snap, err := s.opts.Submitter.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			// Real backpressure: the bounded queue is full. 429 plus a
			// Retry-After hint and a structured body, so clients can back
			// off programmatically instead of parsing prose.
			s.writeAPIError(w, http.StatusTooManyRequests, err, true)
		case errors.Is(err, ErrShuttingDown):
			s.writeAPIError(w, http.StatusServiceUnavailable, err, true)
		case err != nil:
			s.writeAPIError(w, http.StatusBadRequest, err, false)
		default:
			writeJSON(w, http.StatusAccepted, snap)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleCampaignByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	idPart, sub, _ := strings.Cut(rest, "/")
	if idPart == "aggregate" && sub == "" {
		s.handleAggregate(w, r)
		return
	}
	id, err := strconv.Atoi(idPart)
	if err != nil {
		http.Error(w, "campaign IDs are integers", http.StatusBadRequest)
		return
	}
	switch sub {
	case "":
		if s.opts.Campaigns == nil {
			http.NotFound(w, r)
			return
		}
		snap, ok := s.opts.Campaigns.CampaignByID(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	case "progress":
		s.handleProgress(w, r, id)
	case "progress/stream":
		s.handleProgressStream(w, r, id)
	case "events":
		s.handleCampaignEvents(w, r, id)
	default:
		http.NotFound(w, r)
	}
}

// handleAggregate serves GET /campaigns/aggregate?by=model: the per-model
// fold of the stored campaign history.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	src, ok := s.opts.Campaigns.(AggregateSource)
	if !ok {
		http.Error(w, "no aggregate source configured", http.StatusNotFound)
		return
	}
	if by := r.URL.Query().Get("by"); by != "" && by != "model" {
		http.Error(w, "unsupported aggregation "+strconv.Quote(by)+"; only by=model", http.StatusBadRequest)
		return
	}
	aggs, err := src.AggregateByModel()
	if err != nil {
		http.Error(w, "aggregating campaigns: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, aggs)
}

// handleCampaignEvents serves GET /campaigns/{id}/events: the persisted
// flight-recorder tail of a terminal campaign, 404 until one is stored.
func (s *Server) handleCampaignEvents(w http.ResponseWriter, r *http.Request, id int) {
	src, ok := s.opts.Campaigns.(CampaignEventsSource)
	if !ok {
		http.NotFound(w, r)
		return
	}
	batch, found, err := src.CampaignEvents(id)
	if err != nil {
		http.Error(w, "reading stored events: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if !found {
		http.Error(w, "no stored events for campaign "+strconv.Itoa(id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, batch)
}

// handleProgress serves the latest convergence snapshot for one campaign.
// A campaign whose attack has not yet produced a snapshot returns 404 with
// a distinct message, so clients can tell "not started" from "no campaign".
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request, id int) {
	if s.opts.Progress == nil {
		http.NotFound(w, r)
		return
	}
	led, ok := s.opts.Progress.ProgressLedger(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	snap, ok := led.Latest()
	if !ok {
		http.Error(w, "no convergence snapshots yet", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleProgressStream streams convergence snapshots as JSONL: full replay
// of the history so far, then live snapshots as the attack appends them.
// The stream ends when the campaign's ledger closes (terminal state) or the
// client disconnects. Each line is flushed immediately so a watcher sees
// the collapse as it happens, not when a buffer fills.
func (s *Server) handleProgressStream(w http.ResponseWriter, r *http.Request, id int) {
	if s.opts.Progress == nil {
		http.NotFound(w, r)
		return
	}
	led, ok := s.opts.Progress.ProgressLedger(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	ch, cancel := led.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case snap, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(snap); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// APIError is the structured error body of every non-2xx /campaigns
// response. RetryAfterSeconds mirrors the Retry-After header on
// backpressure rejections (429 queue-full, 503 draining).
type APIError struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// writeAPIError writes a structured error response; withRetry adds the
// Retry-After header and body field from the submitter's hint.
func (s *Server) writeAPIError(w http.ResponseWriter, status int, err error, withRetry bool) {
	body := APIError{Error: err.Error()}
	if withRetry {
		retry := 5 * time.Second
		if h, ok := s.opts.Submitter.(interface{ RetryAfterHint() time.Duration }); ok {
			retry = h.RetryAfterHint()
		}
		secs := int(retry.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		body.RetryAfterSeconds = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, body)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
