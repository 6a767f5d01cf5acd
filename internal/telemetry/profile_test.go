package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/huffduff/huffduff/internal/obs"
)

// TestMetricsIncludesRuntimeGauges checks a /metrics scrape carries the Go
// runtime health gauges the server samples next to the application series.
func TestMetricsIncludesRuntimeGauges(t *testing.T) {
	col := obs.NewCollector()
	col.Count("daemon.jobs_submitted", "", 3)
	d := newTestDaemon(t, DaemonConfig{Workers: 1})
	defer d.Kill()
	srv := NewServer(d, col)

	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"runtime_goroutines",
		"runtime_heap_alloc_bytes",
		"runtime_gc_cycles",
		"daemon_jobs_submitted 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
