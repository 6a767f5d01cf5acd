package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prof"
)

// Server is the live telemetry HTTP server for one Daemon: /metrics,
// /healthz, /campaigns and /debug/pprof on one mux.
type Server struct {
	d       *Daemon
	col     *obs.Collector
	runtime *prof.RuntimeSampler
	mux     *http.ServeMux
	http    *http.Server
}

// NewServer builds the server for d; call Serve to start it. col backs
// /metrics (Prometheus text format), refreshed with the Go runtime gauges
// (goroutines, heap bytes, GC cycles, GC pause histogram) on every scrape.
func NewServer(d *Daemon, col *obs.Collector) *Server {
	s := &Server{d: d, col: col, runtime: prof.NewRuntimeSampler(), mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/campaigns", s.handleCampaigns)
	s.mux.HandleFunc("/campaigns/", s.handleCampaignByID)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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

// Shutdown gracefully stops the HTTP server (in-flight requests finish).
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.http.Shutdown(ctx); err != nil {
		return fmt.Errorf("telemetry: http shutdown: %w", err)
	}
	return nil
}

// handleHealthz serves the daemon's health: "ok" (200), "degraded" (200,
// the most recent durable write failed), or "draining" (503).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.d.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		// A draining daemon finishes what it has but must receive no new
		// work: 503 tells fleet load-balancers to route elsewhere.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Pull-driven runtime health: gauges reflect the moment of the scrape,
	// and GC pauses land exactly once across scrapes.
	s.runtime.Sample(s.col)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.col.WriteProm(w)
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

// campaignQuery filters and paginates GET /campaigns. The zero query
// matches everything.
type campaignQuery struct {
	// State and Model keep only campaigns in that state, of that victim
	// model ("" = any).
	State, Model string
	// SinceNS keeps only campaigns finished at or after it, in Unix
	// nanoseconds (0 = any).
	SinceNS int64
	// Offset skips that many matching campaigns; Limit caps the page (0 =
	// all).
	Offset, Limit int
}

// match reports whether a snapshot passes the query's filters (pagination
// excluded — that is a property of the result window, not the campaign).
// A SinceNS filter only ever matches finished campaigns.
func (q campaignQuery) match(s CampaignSnapshot) bool {
	if q.State != "" && s.State != q.State {
		return false
	}
	if q.Model != "" && s.Spec.Model != q.Model {
		return false
	}
	if q.SinceNS != 0 && (s.Finished == nil || s.Finished.UnixNano() < q.SinceNS) {
		return false
	}
	return true
}

// parseCampaignQuery builds the listing query from GET /campaigns parameters.
func parseCampaignQuery(r *http.Request) (campaignQuery, string, bool) {
	var q campaignQuery
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
// /campaigns?state=&model=&since=&limit=&offset= from the daemon's table in
// ascending-ID windows. The table holds every stored campaign once
// NewDaemon has restored it, so the listing needs no log read.
func queryCampaigns(d *Daemon, q campaignQuery) []CampaignSnapshot {
	all := d.Campaigns()
	out := make([]CampaignSnapshot, 0, len(all))
	for _, snap := range all {
		if q.match(snap) {
			out = append(out, snap)
		}
	}
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
		q, msg, ok := parseCampaignQuery(r)
		if !ok {
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, queryCampaigns(s.d, q))
	case http.MethodPost:
		var spec JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		snap, err := s.d.Submit(spec)
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
		snap, ok := s.d.CampaignByID(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	case "progress":
		s.handleProgress(w, r, id)
	case "progress/stream":
		s.handleProgressStream(w, r, id)
	default:
		http.NotFound(w, r)
	}
}

// handleAggregate serves GET /campaigns/aggregate?by=model: the per-model
// fold of the daemon's terminal campaigns, which for a daemon restored from
// its log is the whole stored history.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if by := r.URL.Query().Get("by"); by != "" && by != "model" {
		http.Error(w, "unsupported aggregation "+strconv.Quote(by)+"; only by=model", http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, aggregateByModel(s.d.Campaigns()))
}

// progressLedger resolves campaign id's ledger for the progress endpoints.
// When there is none it answers the request itself and returns false: 404
// for an unknown campaign, 410 Gone for one restored as finished, whose
// history died with the process that ran it.
func (s *Server) progressLedger(w http.ResponseWriter, r *http.Request, id int) (*converge.Ledger, bool) {
	led, ok := s.d.ProgressLedger(id)
	if !ok {
		http.NotFound(w, r)
		return nil, false
	}
	if led == nil {
		http.Error(w, fmt.Sprintf("campaign %d finished before the daemon restarted: its convergence history "+
			"was not kept across the restart; /campaigns/%d carries its converge summary", id, id), http.StatusGone)
		return nil, false
	}
	return led, true
}

// handleProgress serves the latest convergence snapshot for one campaign.
// A campaign whose attack has not yet produced a snapshot returns 404 with
// a distinct message, so clients can tell "not started" from "no campaign".
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request, id int) {
	led, ok := s.progressLedger(w, r, id)
	if !ok {
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
	led, ok := s.progressLedger(w, r, id)
	if !ok {
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
// Retry-After header and body field, retryAfterSeconds.
func (s *Server) writeAPIError(w http.ResponseWriter, status int, err error, withRetry bool) {
	body := APIError{Error: err.Error()}
	if withRetry {
		body.RetryAfterSeconds = retryAfterSeconds
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
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
