package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/obs"
)

// TestProgressStream is the convergence-observability integration test: it
// runs a real campaign through the daemon, subscribes to its progress
// stream over loopback HTTP *while the attack runs*, and checks that the
// stream delivers incremental snapshots (monotone Seq, non-increasing
// solution-space volume, terminal Done snapshot) and terminates when the
// campaign finishes. The latest-snapshot endpoint is checked afterwards.
func TestProgressStream(t *testing.T) {
	col := obs.NewCollector()
	d := newTestDaemon(t, DaemonConfig{Workers: 1, QueueDepth: 4, Recorder: col})
	srv := NewServer(d, col)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	snap := postJob(t, base, tinySpec())

	// Unknown campaigns 404 on both endpoints.
	for _, path := range []string{"/campaigns/99/progress", "/campaigns/99/progress/stream"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: got %d, want 404", path, resp.StatusCode)
		}
	}

	// Open the stream immediately — before the attack has necessarily
	// produced a snapshot — and read it to EOF. The server must replay
	// whatever exists, then deliver live snapshots, then close the stream
	// when the campaign reaches a terminal state.
	resp, err := http.Get(base + "/campaigns/" + strconv.Itoa(snap.ID) + "/progress/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: got status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	type result struct {
		snaps []converge.Snapshot
		err   error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var s converge.Snapshot
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				r.err = err
				break
			}
			r.snaps = append(r.snaps, s)
		}
		if r.err == nil {
			r.err = sc.Err()
		}
		done <- r
	}()

	var streamed []converge.Snapshot
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("reading stream: %v", r.err)
		}
		streamed = r.snaps
	case <-time.After(4 * time.Minute):
		t.Fatal("stream did not terminate after campaign completion")
	}

	if len(streamed) < 3 {
		t.Fatalf("stream delivered %d snapshots, want at least calibrate+probe+finalize", len(streamed))
	}
	for i, s := range streamed {
		if s.Seq != i {
			t.Fatalf("snapshot %d: Seq = %d, want %d (monotone, gap-free)", i, s.Seq, i)
		}
	}
	if streamed[0].Stage != "calibrate" {
		t.Fatalf("first snapshot stage = %q, want calibrate", streamed[0].Stage)
	}
	last := streamed[len(streamed)-1]
	if !last.Done {
		t.Fatalf("last streamed snapshot not Done: %+v", last)
	}
	// The whole point: the solution space collapses. The final volume must
	// be well below the initial (pre-solve) volume.
	first := streamed[0]
	if !first.VolumeKnown || !last.VolumeKnown {
		t.Fatal("snapshots missing volume accounting")
	}
	if last.Log10Volume >= first.Log10Volume {
		t.Fatalf("no collapse observed: initial log10 volume %.2f, final %.2f",
			first.Log10Volume, last.Log10Volume)
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].Queries < streamed[i-1].Queries {
			t.Fatalf("victim query counter went backwards at snapshot %d", i)
		}
	}

	// After the campaign is terminal, /progress serves the final snapshot.
	final := waitState(t, d, snap.ID, 4*time.Minute, StateDone)
	if final.State != StateDone {
		t.Fatalf("campaign state = %q", final.State)
	}
	resp2, err := http.Get(base + "/campaigns/" + strconv.Itoa(snap.ID) + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /progress after completion: %d: %s", resp2.StatusCode, body)
	}
	var latest converge.Snapshot
	if err := json.Unmarshal(body, &latest); err != nil {
		t.Fatalf("decoding latest snapshot: %v", err)
	}
	if latest.Seq != last.Seq || !latest.Done {
		t.Fatalf("latest snapshot = seq %d done=%v, want seq %d done=true",
			latest.Seq, latest.Done, last.Seq)
	}

	// A second subscriber connecting after close gets the full replay and
	// immediate EOF (closed ledger), not a hang.
	resp3, err := http.Get(base + "/campaigns/" + strconv.Itoa(snap.ID) + "/progress/stream")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatalf("replay read: %v", err)
	}
	var replayCount int
	for sc := bufio.NewScanner(bytes.NewReader(replay)); sc.Scan(); {
		replayCount++
	}
	if replayCount != len(streamed) {
		t.Fatalf("post-close replay delivered %d snapshots, live stream saw %d", replayCount, len(streamed))
	}

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	<-serveDone
}

// TestProgressStreamClientDisconnect is the goroutine-leak regression test
// for the stream handler: a client that walks away mid-stream (campaign
// still running, ledger still open) must tear down its subscription — the
// handler goroutine exits via the request context and unsubscribes. Without
// that cleanup each abandoned watcher pins a subscriber channel until the
// campaign ends. The open ledger is registered as campaign 1 of a daemon
// with no store, so the test needs no real attack. Named to ride the CI
// race-instrumented TestProgressStream run.
func TestProgressStreamClientDisconnect(t *testing.T) {
	led := converge.NewLedger()
	defer led.Close()
	led.Append(converge.Snapshot{Stage: "calibrate"})
	led.Append(converge.Snapshot{Stage: "probe"})

	d := newTestDaemon(t, DaemonConfig{Workers: 1})
	defer d.Kill()
	c := &campaign{snap: CampaignSnapshot{ID: 1, Spec: tinySpec(), State: StateRunning}, ledger: led}
	d.mu.Lock()
	d.byID[1] = c
	d.campaigns = append(d.campaigns, c)
	d.mu.Unlock()

	srv := NewServer(d, obs.NewCollector())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	ctx, cancelReq := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/campaigns/1/progress/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: got status %d", resp.StatusCode)
	}

	// Read the replayed history so the stream is demonstrably live before
	// the client walks away.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d replayed snapshots: %v", i, sc.Err())
		}
	}
	if got := led.Subscribers(); got != 1 {
		t.Fatalf("live stream holds %d subscriptions, want 1", got)
	}

	cancelReq()

	deadline := time.Now().Add(10 * time.Second)
	for led.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription leaked: %d subscribers remain after client disconnect", led.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The ledger is still open: appends after the disconnect must not block
	// or panic on the departed subscriber's channel.
	led.Append(converge.Snapshot{Stage: "finalize"})

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	<-serveDone
}
