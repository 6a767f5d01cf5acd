package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	hd "github.com/huffduff/huffduff"
)

// daemon is one huffduffd process the benchmark started.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan struct{} // closed once the process has been waited for
}

// startDaemon starts huffduffd with two workers on dataDir and returns once
// /healthz answers 200, with the time that took.
func startDaemon(bin, dataDir string, logf io.Writer) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting huffduffd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.exited)
	}()
	health := &http.Client{Timeout: time.Second}
	deadline := start.Add(20 * time.Second)
	for {
		resp, err := health.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				health.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("huffduffd exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("huffduffd not healthy after 20s (last error: %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// stop shuts the daemon down gracefully (SIGINT drains the workers) and
// returns its peak resident set in MB. SIGINT is repeated until the daemon
// exits, because one that arrives before huffduffd has installed its handler
// is lost if the signal was ignored when the benchmark started, or otherwise
// ends the process at once, which is then treated as a clean stop: a daemon
// that young has no work to drain.
func (d *daemon) stop() (float64, error) {
	deadline := time.After(60 * time.Second)
	resend := time.NewTicker(500 * time.Millisecond)
	defer resend.Stop()
	for exited := false; !exited; {
		_ = d.cmd.Process.Signal(os.Interrupt) // fails only once the process has exited
		select {
		case <-d.exited:
			exited = true
		case <-resend.C:
		case <-deadline:
			// SIGQUIT makes the Go runtime dump every goroutine into the
			// daemon's log before it exits.
			_ = d.cmd.Process.Signal(syscall.SIGQUIT)
			select {
			case <-d.exited:
			case <-time.After(5 * time.Second):
				d.kill()
			}
			return 0, fmt.Errorf("huffduffd did not stop within 60s of SIGINT; its goroutines are dumped in huffduffd.log")
		}
	}
	st := d.cmd.ProcessState
	if ws, ok := st.Sys().(syscall.WaitStatus); !st.Success() && !(ok && ws.Signaled() && ws.Signal() == syscall.SIGINT) {
		return 0, fmt.Errorf("huffduffd exited with %v", st)
	}
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no resource usage for huffduffd")
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

// kill ends the process without a drain and waits for it; for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.exited
}

// jobSpec is the part of huffduffd's campaign spec the benchmark sets.
type jobSpec struct {
	Model  string  `json:"model"`
	Keep   float64 `json:"keep"`
	Trials int     `json:"trials"`
	Q      int     `json:"q"`
	Seed   int64   `json:"seed"`
}

// snapshot is the part of huffduffd's campaign view the benchmark reads.
type snapshot struct {
	ID            int        `json:"id"`
	Spec          jobSpec    `json:"spec"`
	State         string     `json:"state"`
	Submitted     time.Time  `json:"submitted"`
	Started       *time.Time `json:"started"`
	Finished      *time.Time `json:"finished"`
	Error         string     `json:"error"`
	VictimQueries int        `json:"victim_queries"`
	SolutionCount int        `json:"solution_count"`
	Device        *struct {
		SimulatedSeconds float64 `json:"simulated_seconds"`
	} `json:"device"`
}

// mixSpecs returns n tiny SmallCNN campaigns (Q=2, T alternating 1 and 2)
// against victims seeded 1..n, in an order drawn from seed. The population
// is the same for every seed: drawing the victims from the seed too moves the
// summed solution count by 11% between seeds (NOTES.md), which would swamp
// the bounds. The seed shuffles the arrival order within each T.
func mixSpecs(seed int64, n int) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	var byT [2][]int64 // victims 1, 3, 5, ... run T=1; 2, 4, 6, ... run T=2
	for v := 1; v <= n; v++ {
		byT[(v-1)%2] = append(byT[(v-1)%2], int64(v))
	}
	for _, vs := range byT {
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	}
	specs := make([]jobSpec, n)
	for k := range specs {
		specs[k] = jobSpec{Model: "smallcnn", Keep: 0.5, Trials: 1 + k%2, Q: 2, Seed: byT[k%2][k/2]}
	}
	return specs
}

// replaySpec is the victim and campaign huffduffd runs for a jobSpec.
func (s jobSpec) replaySpec() victimSpec {
	return victimSpec{arch: hd.SmallCNN, keep: s.Keep, victimSeed: s.Seed, probeSeed: s.Seed, trials: s.Trials, q: s.Q}
}

// The traffic: a closed loop on one connection keeps a fixed number of
// campaigns in flight and polls each of them every pollEvery; an open-loop
// reader on another connection sends a history request every readEvery.
const (
	pollEvery = 20 * time.Millisecond
	readEvery = 50 * time.Millisecond
)

// campaignRun is one campaign as the client saw it.
type campaignRun struct {
	spec             jobSpec
	id               int
	submitAt, doneAt time.Time
	snap             snapshot
}

// mixResult is what one pass of the traffic mix measured.
type mixResult struct {
	done                 []*campaignRun
	acked                []*campaignRun
	phase                time.Duration
	submitAckMS          []float64
	listMS, aggMS, late  []float64
	allocBefore, allocAt float64
}

// client issues requests on a single keep-alive connection.
type client struct {
	http *http.Client
	base string
	rec  *recorder
	o    *outcome
}

func newClient(base string, rec *recorder, o *outcome) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, rec: rec, o: o}
}

// do sends one request and returns the body of a 2xx response; anything
// else counts as a failed operation.
func (c *client) do(method, path string, body []byte) ([]byte, bool) {
	id := c.rec.start(method+" "+strings.SplitN(path, "?", 2)[0], 0)
	defer c.rec.end(id)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.o.op(err.Error())
		return nil, false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.o.op(fmt.Sprintf("%s %s: %v", method, path, err))
		return nil, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		c.o.op(fmt.Sprintf("%s %s: status %d, read error %v: %.200s", method, path, resp.StatusCode, err, b))
		return nil, false
	}
	c.o.op()
	return b, true
}

// runMix drives the daemon with the campaigns in specs, `outstanding` at a
// time, and the history reader until every campaign has finished.
func runMix(d *daemon, specs []jobSpec, outstanding int, rec *recorder, o *outcome) (*mixResult, error) {
	c1 := newClient(d.base, rec, o)
	c2 := newClient(d.base, rec, o)
	defer c1.http.CloseIdleConnections()
	defer c2.http.CloseIdleConnections()
	res := &mixResult{}
	var ok bool
	if res.allocBefore, ok = totalAlloc(c1); !ok {
		return nil, fmt.Errorf("reading huffduffd's allocation counter failed")
	}

	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.listMS, res.aggMS, res.late = readHistory(c2, start, stop)
	}()

	deadline := start.Add(150 * time.Second)
	next := 0
	var inflight []*campaignRun
	for next < len(specs) || len(inflight) > 0 {
		for len(inflight) < outstanding && next < len(specs) {
			cr := &campaignRun{spec: specs[next], submitAt: time.Now()}
			next++
			body, _ := json.Marshal(cr.spec)
			b, ok := c1.do(http.MethodPost, "/campaigns", body)
			if !ok {
				continue
			}
			res.submitAckMS = append(res.submitAckMS, ms(time.Since(cr.submitAt)))
			var s snapshot
			if err := json.Unmarshal(b, &s); err != nil || s.ID == 0 {
				o.op(fmt.Sprintf("submit answered %.200s", b))
				continue
			}
			cr.id = s.ID
			res.acked = append(res.acked, cr)
			inflight = append(inflight, cr)
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("%d campaigns still unfinished after 150s", len(inflight))
		}
		time.Sleep(pollEvery)
		kept := inflight[:0]
		for _, cr := range inflight {
			b, ok := c1.do(http.MethodGet, "/campaigns/"+strconv.Itoa(cr.id), nil)
			var s snapshot
			if ok && json.Unmarshal(b, &s) != nil {
				o.op(fmt.Sprintf("campaign %d: unreadable snapshot", cr.id))
				ok = false
			}
			switch {
			case !ok || s.State != "done" && s.State != "failed":
				kept = append(kept, cr)
			case s.State == "failed":
				o.op(fmt.Sprintf("campaign %d failed: %s", cr.id, s.Error))
			default:
				cr.doneAt, cr.snap = time.Now(), s
				rec.add("campaign", 0, cr.submitAt, cr.doneAt)
				res.done = append(res.done, cr)
			}
		}
		inflight = kept
	}
	res.phase = time.Since(start)
	close(stop)
	wg.Wait()
	if res.allocAt, ok = totalAlloc(c1); !ok {
		return nil, fmt.Errorf("reading huffduffd's allocation counter failed")
	}
	return res, nil
}

// readHistory is the open-loop reader: one request every readEvery, alternating
// the done-campaign listing and the per-model aggregate, each timed from the
// moment it was due so that a stall also charges the requests queued behind
// it. It also returns how late each request was sent.
func readHistory(c *client, start time.Time, stop <-chan struct{}) (listMS, aggMS, lateMS []float64) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * readEvery)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		lateMS = append(lateMS, ms(time.Since(due)))
		path := "/campaigns?state=done&limit=50"
		if i%2 == 1 {
			path = "/campaigns/aggregate?by=model"
		}
		b, ok := c.do(http.MethodGet, path, nil)
		if ok && !bytes.HasPrefix(bytes.TrimSpace(b), []byte("[")) {
			c.o.op(fmt.Sprintf("GET %s: not a JSON list: %.200s", path, b))
		}
		if i%2 == 0 {
			listMS = append(listMS, ms(time.Since(due)))
		} else {
			aggMS = append(aggMS, ms(time.Since(due)))
		}
	}
}

// totalAlloc reads the daemon's cumulative heap allocation, which the Go
// runtime prints at the end of the debug=1 allocation profile.
func totalAlloc(c *client) (float64, bool) {
	b, ok := c.do(http.MethodGet, "/debug/pprof/allocs?debug=1", nil)
	if !ok {
		return 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, found := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); found {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n, err == nil
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// daemonSession is one data-dir's life: a daemon that serves the mix, a
// graceful shutdown, and a restart that must list every campaign again.
type daemonSession struct {
	mix        *mixResult
	peakRSSMB  float64
	diskBytes  int64
	restart    time.Duration
	setupTimes []float64
}

// runSession drives d (already started on an empty data-dir) through the
// mix, shuts it down, restarts it on the same data-dir and checks that every
// acknowledged campaign is listed done under its original ID.
func runSession(bin string, d *daemon, specs []jobSpec, outstanding int, rec *recorder, o *outcome, logf io.Writer) (*daemonSession, error) {
	s := &daemonSession{}
	mix, err := runMix(d, specs, outstanding, rec, o)
	if err != nil {
		d.kill()
		return nil, err
	}
	s.mix = mix
	if s.peakRSSMB, err = d.stop(); err != nil {
		return nil, err
	}
	if s.diskBytes, err = dirBytes(d.dataDir); err != nil {
		return nil, err
	}
	d2, restart, err := startDaemon(bin, d.dataDir, logf)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	s.restart = restart
	c := newClient(d2.base, rec, o)
	b, ok := c.do(http.MethodGet, "/campaigns", nil)
	c.http.CloseIdleConnections()
	var listed []snapshot
	if ok && json.Unmarshal(b, &listed) != nil {
		o.op("listing after restart is not a campaign list")
	}
	byID := map[int]snapshot{}
	for _, l := range listed {
		byID[l.ID] = l
	}
	for _, cr := range mix.acked {
		l, found := byID[cr.id]
		switch {
		case !found:
			o.op(fmt.Sprintf("campaign %d missing after restart", cr.id))
		case l.State != "done" || l.Spec.Seed != cr.spec.Seed:
			o.op(fmt.Sprintf("campaign %d after restart: state %s, seed %d (want done, %d)", cr.id, l.State, l.Spec.Seed, cr.spec.Seed))
		default:
			o.op()
		}
	}
	if _, err := d2.stop(); err != nil {
		return nil, fmt.Errorf("stopping the restarted daemon: %w", err)
	}
	return s, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// endToEnd is the session's end-to-end metrics.
func (s *daemonSession) endToEnd() map[string]float64 {
	var lat []float64
	var queries, cycles, sols float64
	clockHz := hd.DefaultAccelConfig().ClockHz
	for _, cr := range s.mix.done {
		lat = append(lat, cr.doneAt.Sub(cr.submitAt).Seconds())
		queries += float64(cr.snap.VictimQueries)
		sols += float64(cr.snap.SolutionCount)
		if cr.snap.Device != nil {
			cycles += cr.snap.Device.SimulatedSeconds * clockHz
		}
	}
	n := float64(len(s.mix.done))
	return map[string]float64{
		"setup_s":         median(s.setupTimes),
		"campaign_p50_s":  median(lat),
		"campaigns_per_s": n / s.mix.phase.Seconds(),
		"host_alloc_mb":   (s.mix.allocAt - s.mix.allocBefore) / 1e6 / n,
		"peak_rss_mb":     s.peakRSSMB,
		"victim_queries":  queries,
		"device_cycles":   cycles,
		"solution_count":  sols,
	}
}

// systemLayers is the session's per-layer metrics for the daemon's layers.
func (s *daemonSession) systemLayers() map[string]float64 {
	var lat, wait, run, lag []float64
	for _, cr := range s.mix.done {
		lat = append(lat, cr.doneAt.Sub(cr.submitAt).Seconds())
		if st, fin := cr.snap.Started, cr.snap.Finished; st != nil && fin != nil {
			wait = append(wait, st.Sub(cr.snap.Submitted).Seconds())
			run = append(run, fin.Sub(*st).Seconds())
			lag = append(lag, ms(cr.doneAt.Sub(*fin)))
		}
	}
	return map[string]float64{
		"telemetry.submit_ack_p50_ms": percentile(s.mix.submitAckMS, 50),
		"telemetry.submit_ack_p90_ms": percentile(s.mix.submitAckMS, 90),
		"telemetry.queue_wait_p50_s":  median(wait),
		"telemetry.run_p50_s":         median(run),
		"telemetry.done_lag_p50_ms":   median(lag),
		"telemetry.restart_s":         s.restart.Seconds(),
		"telemetry.campaign_p90_s":    percentile(lat, 90),
		"store.history_read_p50_ms":   percentile(s.mix.listMS, 50),
		"store.history_read_p90_ms":   percentile(s.mix.listMS, 90),
		"store.aggregate_p50_ms":      percentile(s.mix.aggMS, 50),
		"store.aggregate_p90_ms":      percentile(s.mix.aggMS, 90),
		"store.disk_kb_per_campaign":  float64(s.diskBytes) / 1e3 / float64(len(s.mix.done)),
		"loadgen.reader_late_ms":      percentile(s.mix.late, 90),
	}
}

// mixCampaigns is how many campaigns one daemon_mix run completes: about
// seven a second on the reference host, and never fewer than 100, so that at
// least ten lie beyond the 90th percentile.
func mixCampaigns(seconds int) int { return max(100, 7*seconds) }

// daemon_mix keeps four campaigns outstanding, so that about two always wait
// in the queue of the two workers. The attack workloads' traced runs measure
// the daemon's layers on a short idle probe: a dozen campaigns, one at a time.
const (
	mixOutstanding = 4
	idleCampaigns  = 12
)

// runDaemonMix is a daemon_mix run: set-up samples on empty data-dirs, then
// the mix on the last daemon started, shutdown, restart and checks. A traced
// run also replays the first campaigns in-process to measure the attack
// layers they ran.
func runDaemonMix(ctx context.Context, bin, work string, rec *recorder, o *outcome) error {
	logf, err := os.Create(filepath.Join(work, "huffduffd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(work, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		dd, took, err := startDaemon(bin, dir, logf)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i == setupRepeats-1 {
			d = dd
			break
		}
		if _, err := dd.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	defer os.RemoveAll(d.dataDir)
	specs := mixSpecs(o.seed, mixCampaigns(o.seconds))
	s, err := runSession(bin, d, specs, mixOutstanding, rec, o, logf)
	if err != nil {
		return err
	}
	s.setupTimes = setups
	if rec == nil {
		o.vals = s.endToEnd()
		return nil
	}
	o.vals = s.systemLayers()
	var tot layerTotals
	const replays = 8
	for _, cr := range s.mix.done[:min(replays, len(s.mix.done))] {
		before := len(tot.queries)
		if err := tracedAttack(ctx, rec, cr.spec.replaySpec(), false, &tot, o); err != nil {
			return err
		}
		if len(tot.queries) > before {
			var mismatch []string
			if q, n := tot.queries[before], tot.solutions[before]; q != cr.snap.VictimQueries || n != cr.snap.SolutionCount {
				mismatch = append(mismatch, fmt.Sprintf("campaign %d replayed in-process: %d queries, %d solutions; huffduffd reported %d, %d",
					cr.id, q, n, cr.snap.VictimQueries, cr.snap.SolutionCount))
			}
			o.op(mismatch...)
		}
	}
	for k, v := range tot.metrics() {
		o.vals[k] = v
	}
	return nil
}

// idleDaemonProbe measures the daemon's layers for an attack workload's
// traced run: a fresh daemon serving a dozen tiny campaigns one at a time
// beside the history reader, then shutdown, restart and checks.
func idleDaemonProbe(bin, work string, rec *recorder, o *outcome) (map[string]float64, error) {
	logf, err := os.Create(filepath.Join(work, "huffduffd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	dir := filepath.Join(work, "data-idle")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, _, err := startDaemon(bin, dir, logf)
	if err != nil {
		return nil, err
	}
	s, err := runSession(bin, d, mixSpecs(o.seed, idleCampaigns), 1, rec, o, logf)
	if err != nil {
		return nil, err
	}
	return s.systemLayers(), nil
}
