package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// hostStamp identifies the machine a run measured, so that a reader can tell
// host drift from a regression.
type hostStamp struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	RefS       float64 `json:"host_ref_s"`
	// StealS is the CPU time the hypervisor gave to other guests during
	// the run, summed over this machine's CPUs.
	StealS float64 `json:"steal_s"`
}

func stampHost() hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		RefS:       refLoop(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the steal column of /proc/stat (0 where there is none).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// refSink keeps the compiler from deleting refLoop's work.
var refSink uint64

// refLoop times a fixed allocation-free integer loop: the same work on every
// run and every commit, so its time tracks only the host's speed.
func refLoop() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 150_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return time.Since(start).Seconds()
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set from its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is this process's peak resident set since the last
// resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rtCounters are cumulative Go runtime counters of this process.
type rtCounters struct {
	allocBytes, gcCycles, gcCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtCounters{allocBytes: val(s[0].Value), gcCycles: val(s[1].Value), gcCPU: val(s[2].Value)}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}
