package converge

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilLedgerIsInert(t *testing.T) {
	var l *Ledger
	l.AddQueries(5)
	if l.Queries() != 0 {
		t.Fatal("nil ledger counted queries")
	}
	l.Append(Snapshot{Stage: "probe"})
	if l.Snapshots() != nil {
		t.Fatal("nil ledger retained a snapshot")
	}
	if _, ok := l.Latest(); ok {
		t.Fatal("nil ledger has a latest snapshot")
	}
	ch, cancel := l.Subscribe()
	cancel()
	if _, open := <-ch; open {
		t.Fatal("nil ledger subscription not closed")
	}
	l.Close()
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if sum := l.Summary(); sum.Snapshots != 0 {
		t.Fatal("nil ledger summary non-empty")
	}
}

func TestAppendAssignsSeqQueriesAndBits(t *testing.T) {
	l := NewLedger(nil)
	l.AddQueries(10)
	s0 := l.Append(Snapshot{Stage: "probe", Log10Volume: 96, VolumeKnown: true})
	if s0.Seq != 0 || s0.Queries != 10 || s0.TS == 0 {
		t.Fatalf("first snapshot: %+v", s0)
	}
	if s0.BitsEliminated != 0 {
		t.Fatalf("first volume-known snapshot eliminated %v bits, want 0", s0.BitsEliminated)
	}

	l.AddQueries(15)
	// A volume-unknown snapshot in between must not break the bits chain.
	l.Append(Snapshot{Stage: "timing"})
	s2 := l.Append(Snapshot{Stage: "solve", Log10Volume: 6, VolumeKnown: true})
	if s2.Seq != 2 || s2.Queries != 25 {
		t.Fatalf("third snapshot: %+v", s2)
	}
	want := (96 - 6) * math.Log2(10)
	if math.Abs(s2.BitsEliminated-want) > 1e-9 {
		t.Fatalf("BitsEliminated = %v, want %v", s2.BitsEliminated, want)
	}

	// Volume increasing (e.g. accounting model change between stages) clamps
	// to zero rather than reporting negative information gain.
	s3 := l.Append(Snapshot{Stage: "finalize", Log10Volume: 8, VolumeKnown: true})
	if s3.BitsEliminated != 0 {
		t.Fatalf("negative gain not clamped: %v", s3.BitsEliminated)
	}

	if latest, ok := l.Latest(); !ok || latest.Seq != 3 {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
}

func TestSubscribeReplayAndLive(t *testing.T) {
	l := NewLedger(nil)
	l.Append(Snapshot{Stage: "calibrate"})
	l.Append(Snapshot{Stage: "probe"})

	ch, cancel := l.Subscribe()
	defer cancel()
	for i, want := range []string{"calibrate", "probe"} {
		s := <-ch
		if s.Seq != i || s.Stage != want {
			t.Fatalf("replayed snapshot %d: %+v", i, s)
		}
	}

	l.Append(Snapshot{Stage: "solve"})
	if s := <-ch; s.Stage != "solve" || s.Seq != 2 {
		t.Fatalf("live snapshot: %+v", s)
	}

	l.Close()
	if _, open := <-ch; open {
		t.Fatal("channel not closed after ledger Close")
	}

	// Subscribing after close replays history and closes immediately.
	ch2, cancel2 := l.Subscribe()
	defer cancel2()
	var n int
	for range ch2 {
		n++
	}
	if n != 3 {
		t.Fatalf("post-close replay delivered %d snapshots, want 3", n)
	}
}

func TestSlowSubscriberDisconnected(t *testing.T) {
	l := NewLedger(nil)
	ch, cancel := l.Subscribe()
	defer cancel()
	// Never read: once the buffer fills the ledger must disconnect the
	// subscriber instead of blocking Append.
	for i := 0; i < subBuffer+10; i++ {
		l.Append(Snapshot{Stage: "probe"})
	}
	var n int
	for range ch {
		n++
	}
	if n != subBuffer {
		t.Fatalf("slow subscriber received %d snapshots before disconnect, want %d", n, subBuffer)
	}
	// The ledger itself kept everything.
	if got := len(l.Snapshots()); got != subBuffer+10 {
		t.Fatalf("ledger has %d snapshots, want %d", got, subBuffer+10)
	}
}

func TestCloseDropsLaterAppends(t *testing.T) {
	l := NewLedger(nil)
	l.Append(Snapshot{Stage: "probe"})
	l.Close()
	l.Close() // idempotent
	l.Append(Snapshot{Stage: "late"})
	if got := len(l.Snapshots()); got != 1 {
		t.Fatalf("append after close retained: %d snapshots", got)
	}
}

func TestConcurrentAppendSubscribe(t *testing.T) {
	l := NewLedger(nil)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			l.AddQueries(1)
			l.Append(Snapshot{Stage: "probe", Log10Volume: float64(100 - i), VolumeKnown: true})
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			ch, cancel := l.Subscribe()
			defer cancel()
			prev := -1
			for s := range ch {
				if s.Seq <= prev {
					t.Errorf("out-of-order snapshot: %d after %d", s.Seq, prev)
					return
				}
				prev = s.Seq
				if s.Seq == 99 {
					return
				}
			}
		}()
	}
	wg.Wait()
	l.Close()
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	l := NewLedger(nil)
	l.AddQueries(3)
	l.Append(Snapshot{
		Stage: "probe", Log10Volume: 42.5, VolumeKnown: true,
		Layers: []LayerState{{Node: 1, Kernel: 3, Stride: 1, Candidates: 1, Exact: true}},
	})
	l.Append(Snapshot{Stage: "finalize", Log10Volume: 2, VolumeKnown: true, Done: true})

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Snapshot
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		var s Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(got))
	}
	if got[0].Layers[0].Kernel != 3 || got[0].Queries != 3 || !got[1].Done {
		t.Fatalf("round trip mangled snapshots: %+v", got)
	}
}

func TestSummary(t *testing.T) {
	l := NewLedger(nil)
	if sum := l.Summary(); sum.Snapshots != 0 || sum.QueriesTo90Pct != 0 {
		t.Fatalf("empty ledger summary: %+v", sum)
	}

	// Collapse 100 → 0 in three steps; 90% of the collapse is volume ≤ 10.
	l.AddQueries(50)
	l.Append(Snapshot{Stage: "probe", Log10Volume: 100, VolumeKnown: true})
	l.AddQueries(50)
	l.Append(Snapshot{Stage: "solve", Log10Volume: 40, VolumeKnown: true})
	l.AddQueries(100)
	l.Append(Snapshot{Stage: "finalize", Log10Volume: 0, VolumeKnown: true})

	sum := l.Summary()
	if sum.InitialLog10Volume != 100 || sum.FinalLog10Volume != 0 {
		t.Fatalf("collapse endpoints: %+v", sum)
	}
	if sum.QueriesTo90Pct != 200 {
		t.Fatalf("QueriesTo90Pct = %d, want 200 (first snapshot at or past 90%% collapse)", sum.QueriesTo90Pct)
	}
	if sum.TotalQueries != 200 || sum.Snapshots != 3 {
		t.Fatalf("sizes: %+v", sum)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a ledger")
	}
	if ctx := WithLedger(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("nil ledger attached to context")
	}
	l := NewLedger(nil)
	ctx := WithLedger(context.Background(), l)
	if FromContext(ctx) != l {
		t.Fatal("ledger did not round-trip through context")
	}
	FromContext(ctx).AddQueries(7)
	if l.Queries() != 7 {
		t.Fatal("context-resolved ledger is not the same ledger")
	}
}
