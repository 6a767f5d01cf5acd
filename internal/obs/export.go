package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// HistogramSnapshot is the exported form of one log-bucketed histogram.
// Bucket keys are the upper bound of the bucket, formatted with %g.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Buckets map[string]uint64 `json:"buckets"`
}

// MetricsSnapshot is a point-in-time copy of every metric series.
type MetricsSnapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Metrics returns a deep copy of the current metric state.
func (c *Collector) Metrics() MetricsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := MetricsSnapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for k, v := range c.counters {
		snap.Counters[k.String()] = v
	}
	for k, v := range c.gauges {
		snap.Gauges[k.String()] = v
	}
	for k, h := range c.hists {
		hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: map[string]uint64{}}
		for b, n := range h.buckets {
			hs.Buckets[fmt.Sprintf("%g", pow2(b))] = n
		}
		snap.Histograms[k.String()] = hs
	}
	return snap
}

// pow2 returns 2^i as a float64.
func pow2(i int) float64 {
	v := 1.0
	for ; i > 0; i-- {
		v *= 2
	}
	for ; i < 0; i++ {
		v /= 2
	}
	return v
}

// MetricsJSON renders the metrics snapshot as indented JSON.
func (c *Collector) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(c.Metrics(), "", " ")
}

// WriteMetrics writes the metrics JSON to w.
func (c *Collector) WriteMetrics(w io.Writer) error {
	b, err := c.MetricsJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SortedCounterKeys returns every counter series name in deterministic
// order, for summary printing.
func (c *Collector) SortedCounterKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := sortedKeys(c.counters)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}
