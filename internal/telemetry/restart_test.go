package telemetry

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
)

// startServer binds a loopback server for d and returns its base URL plus a
// teardown func.
func startServer(t *testing.T, d *Daemon, col *obs.Collector) (string, func()) {
	t.Helper()
	srv := NewServer(d, col)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	return "http://" + l.Addr().String(), func() { srv.Shutdown(context.Background()) }
}

// waitState polls campaign id until its state matches one of want.
func waitState(t *testing.T, d *Daemon, id int, timeout time.Duration, want ...string) CampaignSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap, ok := d.CampaignByID(id)
		if ok {
			for _, w := range want {
				if snap.State == w {
					return snap
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %d stuck in %q, want one of %v", id, snap.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonKillRestart is the crash-safety integration test: a daemon with
// one running (chaos-stalled) and two queued campaigns is killed mid-run,
// a second daemon restarts on the same store, and every campaign finishes
// with its original ID — no duplicates, no losses — while the store/requeue
// metrics appear on /metrics.
func TestDaemonKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full smallcnn campaigns; skipped in -short (CI runs it in a dedicated race step)")
	}
	dir := t.TempDir()

	// Phase 1: every victim run stalls, so campaign 1 wedges mid-attack
	// while 2 and 3 wait in the queue. Then the process "dies".
	s1, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	d1 := newTestDaemon(t, DaemonConfig{Workers: 1, QueueDepth: 8, Store: s1, Faults: stall})
	base1, stop1 := startServer(t, d1, obs.NewCollector())
	for i := 0; i < 3; i++ {
		snap := postJob(t, base1, tinySpec())
		if snap.ID != i+1 {
			t.Fatalf("submitted campaign got ID %d, want %d", snap.ID, i+1)
		}
	}
	waitState(t, d1, 1, 30*time.Second, StateRunning)
	if st := s1.Stats(); st.Appends == 0 || st.AppendBytes == 0 {
		t.Fatalf("store recorded nothing before the crash: %+v", st)
	}
	d1.Kill()
	stop1()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart on the same data dir, no fault injection. The
	// restore must rebuild all three campaigns, requeue them, and run them
	// to completion under their original IDs.
	col := obs.NewCollector()
	s2, err := store.Open(dir, store.Config{Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d2 := newTestDaemon(t, DaemonConfig{Workers: 2, QueueDepth: 8, Store: s2, Recorder: col})
	base2, stop2 := startServer(t, d2, col)
	defer stop2()

	restored := getCampaigns(t, base2)
	if len(restored) != 3 {
		t.Fatalf("restart restored %d campaigns, want 3: %+v", len(restored), restored)
	}
	for _, c := range restored {
		if !c.Resumed {
			t.Errorf("campaign %d not marked resumed", c.ID)
		}
		if c.State == StateDone || c.State == StateFailed {
			t.Errorf("campaign %d terminal at restore: %q", c.ID, c.State)
		}
	}

	deadline := time.Now().Add(4 * time.Minute)
	for {
		done := 0
		seen := map[int]int{}
		for _, c := range getCampaigns(t, base2) {
			seen[c.ID]++
			if c.State == StateDone || c.State == StateFailed {
				done++
			}
		}
		for id, n := range seen {
			if n > 1 {
				t.Fatalf("campaign ID %d appears %d times after restart", id, n)
			}
		}
		if len(seen) != 3 {
			t.Fatalf("campaign set changed after restart: %v", seen)
		}
		if done == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed campaigns did not finish: %+v", getCampaigns(t, base2))
		}
		time.Sleep(50 * time.Millisecond)
	}
	for id := 1; id <= 3; id++ {
		c := getCampaign(t, base2, id)
		if c.State != StateDone {
			t.Fatalf("resumed campaign %d = %q (%s), want done", id, c.State, c.Error)
		}
		if c.SolutionCount < 1 {
			t.Errorf("resumed campaign %d has no solutions", id)
		}
		if !c.Resumed {
			t.Errorf("finished campaign %d lost its resumed mark", id)
		}
	}

	// IDs keep growing from the restored high-water mark.
	snap := postJob(t, base2, tinySpec())
	if snap.ID != 4 {
		t.Fatalf("post-restart submission got ID %d, want 4", snap.ID)
	}
	waitState(t, d2, 4, 4*time.Minute, StateDone, StateFailed)

	// The new durability metrics are live on /metrics.
	metrics := scrapeProm(t, base2)
	if v := metrics["daemon_requeues"]; v < 3 {
		t.Errorf("daemon_requeues = %v, want >= 3", v)
	}
	for _, name := range []string{"store_appends", "store_append_bytes"} {
		if metrics[name] <= 0 {
			t.Errorf("metric %s missing or zero after restart: %v", name, metrics[name])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d2.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown after drain: %v", err)
	}
}

// TestWorkerPanicSupervision proves a panicking worker never crashes the
// daemon: the panic is recovered into faults.ErrWorkerPanic, retried per
// policy, and the campaign fails typed once attempts are exhausted.
func TestWorkerPanicSupervision(t *testing.T) {
	col := obs.NewCollector()
	boom := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{PanicProb: 1})
	d := newTestDaemon(t, DaemonConfig{
		Workers:  1,
		Recorder: col,
		Faults:   boom,
		Retry:    RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	})
	defer d.Kill()

	snap, err := d.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, d, snap.ID, 30*time.Second, StateFailed)
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one retry)", final.Attempts)
	}
	if final.ErrorClass != faults.ClassPanic {
		t.Errorf("error class = %q, want %q", final.ErrorClass, faults.ClassPanic)
	}
	if !strings.Contains(final.Error, "panic") {
		t.Errorf("error %q does not mention the recovered panic", final.Error)
	}
	if got := boom.Stats().Panics; got != 2 {
		t.Errorf("injected panics = %d, want 2", got)
	}
	// The daemon survived: health is fine and the retry metrics landed.
	if h := d.Health(); h.Status != "ok" {
		t.Errorf("health after recovered panics = %q, want ok", h.Status)
	}
	prom := col.PromText()
	for _, want := range []string{`daemon_retries{class="panic"}`, "daemon_worker_panics"} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %s:\n%s", want, prom)
		}
	}
}

// TestJobDeadline proves per-job deadlines propagate via context into the
// victim loop: a stalled run is unwedged by the deadline, classified as a
// deadline fault, retried, and finally failed.
func TestJobDeadline(t *testing.T) {
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	d := newTestDaemon(t, DaemonConfig{
		Workers: 1,
		Faults:  stall,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	})
	defer d.Kill()

	spec := tinySpec()
	spec.TimeoutSeconds = 0.1
	snap, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, d, snap.ID, 30*time.Second, StateFailed)
	if final.ErrorClass != faults.ClassDeadline {
		t.Errorf("error class = %q, want %q (%s)", final.ErrorClass, faults.ClassDeadline, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", final.Attempts)
	}
}

// TestJournalFailureDegradesHealth proves durable write faults never take
// the daemon down: submissions still run, but /healthz reports degraded
// while the store cannot persist.
func TestJournalFailureDegradesHealth(t *testing.T) {
	faulty := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{WriteErrProb: 1, StallProb: 1})
	s, err := store.Open(t.TempDir(), store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := newTestDaemon(t, DaemonConfig{Workers: 1, Store: s, Faults: faulty})
	defer d.Kill()

	if _, err := d.Submit(tinySpec()); err != nil {
		t.Fatalf("submit with failing store = %v, want accepted (degraded, not down)", err)
	}
	if h := d.Health(); h.Status != "degraded" || h.WriteErrors == 0 {
		t.Fatalf("health with failing store = %+v, want degraded with errors counted", h)
	}
	if st := s.Stats(); st.Appends != 0 {
		t.Errorf("store appended under total write failure: %+v", st)
	}
}

// TestShutdownUnderLoad races concurrent submissions against Shutdown with
// an aggressive drain deadline: every accepted job must either complete or
// be stored as requeueable — never silently lost — and every rejected
// submit must return a typed error.
func TestShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	s, err := store.Open(dir, store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, DaemonConfig{Workers: 2, QueueDepth: 64, Store: s, Faults: stall})

	var mu sync.Mutex
	accepted := map[int]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				snap, err := d.Submit(tinySpec())
				switch {
				case err == nil:
					mu.Lock()
					accepted[snap.ID] = true
					mu.Unlock()
				case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrQueueFull):
					// Typed rejection: the caller knows the job was not taken.
				default:
					t.Errorf("Submit returned untyped error %v", err)
				}
			}
		}()
	}
	// Let some submissions land, then drain with a deadline far too short
	// for the stalled workers.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	shutdownErr := d.Shutdown(ctx)
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("no submission landed before shutdown; test proves nothing")
	}
	if shutdownErr == nil {
		t.Fatal("shutdown with stalled workers returned nil, want deadline error")
	}
	// Finish "crashing" so the store is quiesced, then read it back.
	d.Kill()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stored := storedSnapshots(t, s2)
	for id := range accepted {
		snap, ok := stored[id]
		if !ok {
			t.Errorf("accepted campaign %d lost: not in the store", id)
			continue
		}
		if terminalState(snap.State) {
			t.Errorf("stalled campaign %d stored terminal: %q", id, snap.State)
		}
	}
	for id := range stored {
		if !accepted[id] {
			t.Errorf("store holds campaign %d that no submit acknowledged", id)
		}
	}
}

// TestGoroutinesStopWithOwner checks that no goroutine outlives its owner:
// once the daemon is shut down and the log closed, the workers and the
// compactor have exited and the goroutine count is back where it started.
func TestGoroutinesStopWithOwner(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := store.Open(t.TempDir(), store.Config{NoSync: true, CompactAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, DaemonConfig{Workers: 3, Store: s})
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines with the daemon and log running, want more than the %d before", n, base)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Shutdown and Close, %d before the daemon started:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestoreFromStore restores a daemon from a store holding every
// campaign state, written transition by transition as the daemon writes
// them, and runs no attack: the one worker wedges on the first requeued
// campaign (chaos stall), so the rest stay exactly as restored.
func TestRestoreFromStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir, store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	at := func(sec int) *time.Time {
		ts := t0.Add(time.Duration(sec) * time.Second)
		return &ts
	}
	put := func(snap CampaignSnapshot) {
		t.Helper()
		snap.Spec = tinySpec().withDefaults()
		snap.Submitted = t0
		putSnapshots(t, s1, snap)
	}
	// Campaign 1 finished, 2 failed after a retry, 3 was still queued, 4
	// was mid-run, and 5 crashed mid-backoff.
	for id := 1; id <= 5; id++ {
		put(CampaignSnapshot{ID: id, State: StateQueued})
	}
	put(CampaignSnapshot{ID: 1, State: StateRunning, Attempts: 1, Started: at(1)})
	put(CampaignSnapshot{ID: 1, State: StateDone, Attempts: 1, Started: at(1), Finished: at(2),
		SolutionCount: 4, VictimQueries: 250, VictimRetries: 3, Degraded: true})
	put(CampaignSnapshot{ID: 2, State: StateRunning, Attempts: 1, Started: at(1)})
	put(CampaignSnapshot{ID: 2, State: StateRetrying, Attempts: 1, Started: at(1), Error: "boom", ErrorClass: "panic"})
	put(CampaignSnapshot{ID: 2, State: StateRunning, Attempts: 2, Started: at(3)})
	put(CampaignSnapshot{ID: 2, State: StateFailed, Attempts: 2, Started: at(3), Finished: at(4),
		Error: "boom again", ErrorClass: "panic"})
	put(CampaignSnapshot{ID: 4, State: StateRunning, Attempts: 1, Started: at(1)})
	put(CampaignSnapshot{ID: 5, State: StateRunning, Attempts: 1, Started: at(1)})
	put(CampaignSnapshot{ID: 5, State: StateRetrying, Attempts: 1, Started: at(1), Error: "boom", ErrorClass: "panic"})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	col := obs.NewCollector()
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	d := newTestDaemon(t, DaemonConfig{Workers: 1, Store: s2, Recorder: col, Faults: stall})
	defer d.Kill()

	get := func(id int) CampaignSnapshot {
		t.Helper()
		c, ok := d.CampaignByID(id)
		if !ok {
			t.Fatalf("campaign %d not restored", id)
		}
		if !c.Resumed || c.Spec.Model != "smallcnn" || !c.Submitted.Equal(t0) {
			t.Errorf("campaign %d restored without its resumed mark, spec, or submit time: %+v", id, c)
		}
		return c
	}
	if c := get(1); c.State != StateDone || c.SolutionCount != 4 || c.VictimQueries != 250 ||
		c.VictimRetries != 3 || !c.Degraded || c.Finished == nil || !c.Finished.Equal(*at(2)) {
		t.Errorf("campaign 1 outcome not preserved: %+v", c)
	}
	if c := get(2); c.State != StateFailed || c.Error != "boom again" || c.ErrorClass != "panic" || c.Attempts != 2 {
		t.Errorf("campaign 2 failure not preserved: %+v", c)
	}
	// The worker took the first requeued campaign and is running it again.
	if c := waitState(t, d, 3, 30*time.Second, StateRunning); c.Attempts != 1 || !c.Resumed {
		t.Errorf("campaign 3 not re-run as resumed: %+v", c)
	}
	for _, id := range []int{4, 5} {
		if c := get(id); c.State != StateQueued || c.Started != nil || c.Attempts != 1 {
			t.Errorf("campaign %d not requeued as queued with its attempts kept: %+v", id, c)
		}
	}
	if v := col.PromText(); !strings.Contains(v, "daemon_requeues 3") {
		t.Errorf("daemon_requeues missing or not 3:\n%s", v)
	}
	// A campaign restored as finished kept its summary but not its
	// convergence history: both progress endpoints answer 410 Gone and
	// point at the summary. A requeued one that has not started keeps the
	// not-started answer.
	base, stop := startServer(t, d, col)
	defer stop()
	for _, id := range []int{1, 2} {
		for _, path := range []string{"/progress", "/progress/stream"} {
			url := fmt.Sprintf("/campaigns/%d%s", id, path)
			body, code := getRaw(t, base, url)
			if want := fmt.Sprintf("/campaigns/%d carries its converge summary", id); code != http.StatusGone ||
				!strings.Contains(string(body), want) {
				t.Errorf("GET %s = %d %q, want 410 naming %s", url, code, body, want)
			}
		}
	}
	if body, code := getRaw(t, base, "/campaigns/4/progress"); code != http.StatusNotFound ||
		!strings.Contains(string(body), "no convergence snapshots yet") {
		t.Errorf("GET /campaigns/4/progress = %d %q, want 404 not started", code, body)
	}
	snap, err := d.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != 6 {
		t.Errorf("first submission after restore got ID %d, want 6", snap.ID)
	}
	// The worker is wedged on campaign 3, so only Submit can have stored
	// the new campaign: its queued record is durable before the ack.
	if stored, ok := storedSnapshots(t, s2)[snap.ID]; !ok || stored.State != StateQueued {
		t.Errorf("campaign %d not stored as queued when Submit returned: %+v (found %v)", snap.ID, stored, ok)
	}
}

// TestRestoreRefusesUnreadableStore corrupts campaign 1's only record in a
// sealed segment. A sealed frame was acknowledged, so it cannot be skipped
// as a torn tail: opening the log fails, naming the segment and the frame's
// offset, and huffduffd, which opens the log before it builds the daemon,
// refuses to start rather than serve without knowing the highest stored ID.
// The failed open writes and removes nothing, so no stored campaign can be
// superseded by a reused ID and the history stays as the operator left it.
func TestRestoreRefusesUnreadableStore(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{NoSync: true, CompactAfter: -1}
	s1, err := store.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		putSnapshots(t, s1, CampaignSnapshot{ID: id, Spec: tinySpec().withDefaults(), State: StateDone})
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("segments = %v (err %v)", logs, err)
	}
	raw, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff // inside campaign 1's frame body: the CRC no longer matches
	if err := os.WriteFile(logs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A sidecar index an older build left, which a successful open deletes.
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.idx"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	if s2, err := store.Open(dir, cfg); err == nil {
		s2.Close()
		t.Fatal("opened a log whose sealed segment holds a corrupt frame, want an error")
	} else if want := logs[0] + ": corrupt frame at offset 0"; !strings.Contains(err.Error(), want) {
		t.Errorf("open error %q does not name %q", err, want)
	}
	if after := dirContents(t, dir); after != before {
		t.Errorf("the failed open changed the data directory:\n before %s\n after %s", before, after)
	}
}

// dirContents renders every file in dir, names and bytes, for comparison.
func dirContents(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%x;", e.Name(), raw)
	}
	return b.String()
}

// TestWriteFaultsRecover replays a seeded chaos write-fault schedule against
// the daemon's write path: /healthz is degraded exactly while the most
// recent durable write failed, failures are counted, and only successful
// writes reach the log.
func TestWriteFaultsRecover(t *testing.T) {
	cfg := chaos.DaemonFaultsConfig{Seed: 42, WriteErrProb: 0.5}
	schedule := chaos.NewDaemonFaults(cfg)
	l, err := store.Open(t.TempDir(), store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := newTestDaemon(t, DaemonConfig{Workers: 1, Store: l, Faults: chaos.NewDaemonFaults(cfg)})
	defer d.Kill()

	var failed uint64
	recovered := false
	want := map[int]bool{}
	for id := 1; id <= 16; id++ {
		fail := schedule.WriteFault() != nil
		d.persist(CampaignSnapshot{ID: id, Spec: tinySpec().withDefaults(), State: StateQueued})
		if fail {
			failed++
		} else {
			want[id] = true
			recovered = recovered || failed > 0
		}
		if h := d.Health(); (h.Status == "degraded") != fail || h.WriteErrors != failed {
			t.Errorf("write %d (failed: %v): health %+v, want %d errors", id, fail, h, failed)
		}
		if got := l.Stats().Appends; got != uint64(len(want)) {
			t.Errorf("write %d (failed: %v): %d appends, want %d", id, fail, got, len(want))
		}
	}
	if failed == 0 || !recovered {
		t.Fatalf("schedule never failed and then recovered (%d failures); test proves nothing", failed)
	}
	stored := storedSnapshots(t, l)
	for id := 1; id <= 16; id++ {
		if _, ok := stored[id]; ok != want[id] {
			t.Errorf("campaign %d stored = %v, want %v", id, ok, want[id])
		}
	}
}

// TestKillStopsWrites proves Kill stops durable writes before teardown:
// once it returns, neither the unwinding worker nor any later transition
// reaches the log.
func TestKillStopsWrites(t *testing.T) {
	l, err := store.Open(t.TempDir(), store.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	d := newTestDaemon(t, DaemonConfig{Workers: 1, Store: l, Faults: stall})
	snap, err := d.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, snap.ID, 30*time.Second, StateRunning)
	d.Kill()
	appends := l.Stats().Appends
	fin := time.Now()
	snap.State, snap.Finished = StateDone, &fin
	d.persist(snap)
	if got := l.Stats().Appends; got != appends {
		t.Errorf("%d appends reached the log after Kill", got-appends)
	}
	if stored, ok := storedSnapshots(t, l)[snap.ID]; !ok || terminalState(stored.State) {
		t.Errorf("stored campaign after Kill = %+v (found %v), want non-terminal", stored, ok)
	}
}
