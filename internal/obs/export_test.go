package obs

import (
	"context"
	"sync"
	"testing"
)

// TestExportWhileRecording races every export path against live recording;
// it exists to run under -race (the CI obs step). A live telemetry server
// scrapes PromText while campaign goroutines are still writing.
func TestExportWhileRecording(t *testing.T) {
	col := NewCollector()
	col.Count("exports", "", 1) // so the first scrape is never empty
	ctx := WithRecorder(context.Background(), col)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				Count(ctx, "iters", "", 1)
				col.Gauge("depth", "", float64(i))
				col.Observe("latency", "", float64(i%1000)*1e-6)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if col.PromText() == "" {
			t.Fatal("PromText empty during recording")
		}
		if _, err := col.MetricsJSON(); err != nil {
			t.Fatalf("MetricsJSON during recording: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
