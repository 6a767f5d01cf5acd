package obs

import (
	"math"
	"sort"
	"sync"
)

// Collector is the standard in-memory Recorder: it keeps every metric
// series it is sent and exports them as a metrics JSON or in the Prometheus
// text format. Safe for concurrent use.
type Collector struct {
	mu       sync.Mutex
	counters map[metricKey]float64
	gauges   map[metricKey]float64
	hists    map[metricKey]*histogram
}

// metricKey identifies one metric series.
type metricKey struct{ name, label string }

// String renders the conventional name{label} form.
func (k metricKey) String() string {
	if k.label == "" {
		return k.name
	}
	return k.name + "{" + k.label + "}"
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		counters: map[metricKey]float64{},
		gauges:   map[metricKey]float64{},
		hists:    map[metricKey]*histogram{},
	}
}

// Count implements Recorder.
func (c *Collector) Count(name, label string, delta float64) {
	c.mu.Lock()
	c.counters[metricKey{name, label}] += delta
	c.mu.Unlock()
}

// Gauge implements Recorder.
func (c *Collector) Gauge(name, label string, v float64) {
	c.mu.Lock()
	c.gauges[metricKey{name, label}] = v
	c.mu.Unlock()
}

// Observe implements Recorder.
func (c *Collector) Observe(name, label string, v float64) {
	c.mu.Lock()
	k := metricKey{name, label}
	h, ok := c.hists[k]
	if !ok {
		h = &histogram{buckets: map[int]uint64{}}
		c.hists[k] = h
	}
	h.observe(v)
	c.mu.Unlock()
}

// CounterValue returns the current value of counter name{label} (0 when the
// series was never written).
func (c *Collector) CounterValue(name, label string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[metricKey{name, label}]
}

// GaugeValue returns the current value of gauge name{label}.
func (c *Collector) GaugeValue(name, label string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gauges[metricKey{name, label}]
}

// histogram is a fixed log-scale histogram: values fall into power-of-two
// buckets, index i covering (2^(i-1), 2^i]. The range is clamped to
// [minBucket, maxBucket], wide enough for nanoseconds through gigabytes.
type histogram struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  map[int]uint64
}

const (
	minBucket = -40 // 2^-40 ≈ 9.1e-13
	maxBucket = 40  // 2^40 ≈ 1.1e12
)

// bucketOf returns the log-scale bucket index for v. Non-positive values
// and NaN fall into the lowest bucket; +Inf clamps to the highest (the
// float-to-int conversion of an infinite Log2 is platform-defined, so the
// clamp must happen before it).
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return minBucket
	}
	if math.IsInf(v, 1) {
		return maxBucket
	}
	i := int(math.Ceil(math.Log2(v)))
	if i < minBucket {
		i = minBucket
	}
	if i > maxBucket {
		i = maxBucket
	}
	return i
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// sortedKeys returns every metric key of the map in deterministic order.
func sortedKeys[V any](m map[metricKey]V) []metricKey {
	keys := make([]metricKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].label < keys[j].label
	})
	return keys
}
