package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func iv(id, parent int, a, b time.Duration) span {
	return span{ID: id, Parent: parent, Start: a, End: b}
}

func TestSelfTime(t *testing.T) {
	parent := iv(1, 0, 0, 100)
	for _, c := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{iv(2, 1, 10, 20), iv(3, 1, 30, 50)}, 70},
		{"overlapping", []span{iv(2, 1, 10, 40), iv(3, 1, 30, 60)}, 50},
		{"nested", []span{iv(2, 1, 10, 60), iv(3, 1, 20, 30)}, 50},
		{"touching", []span{iv(2, 1, 10, 20), iv(3, 1, 20, 30)}, 80},
		{"unsorted", []span{iv(3, 1, 50, 70), iv(2, 1, 0, 10)}, 70},
		{"clipped to parent", []span{iv(2, 1, -20, 10), iv(3, 1, 90, 130)}, 80},
		{"outside parent", []span{iv(2, 1, 100, 120)}, 100},
		{"covers parent", []span{iv(2, 1, 0, 100), iv(3, 1, 50, 60)}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorderExport(t *testing.T) {
	rec := newRecorder("w-seed1")
	root := rec.start("attack", 0)
	kid := rec.start("accel.Run", root)
	rec.end(kid)
	open := rec.start("never closed", root)
	rec.end(root)
	t0 := rec.t0
	rec.add("campaign", 0, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))

	var buf bytes.Buffer
	if err := rec.export(&buf); err != nil {
		t.Fatal(err)
	}
	var got []span
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 {
		t.Fatalf("exported %d spans, want 3 closed ones: %+v", len(got), got)
	}
	for _, s := range got {
		if s.ID == open {
			t.Errorf("exported the unclosed span %+v", s)
		}
		if s.Run != "w-seed1" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if got[1].Name != "accel.Run" || got[1].Parent != root {
		t.Errorf("child span = %+v, want accel.Run under %d", got[1], root)
	}
	if c := got[2]; c.Name != "campaign" || c.dur() != 2*time.Millisecond {
		t.Errorf("added span = %+v, want a 2ms campaign", c)
	}
	if kids := children(got, root); len(kids) != 1 || kids[0].ID != kid {
		t.Errorf("children(root) = %+v", kids)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := newRecorder("c")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.end(rec.start("req", 0))
			}
		}()
	}
	wg.Wait()
	if n := len(rec.snapshot()); n != 400 {
		t.Errorf("recorded %d spans, want 400", n)
	}
}

func TestNilRecorder(t *testing.T) {
	var rec *recorder
	if id := rec.start("x", 0); id != 0 {
		t.Errorf("nil recorder start = %d", id)
	}
	if d := rec.end(0); d != 0 {
		t.Errorf("nil recorder end = %v", d)
	}
	rec.add("x", 0, time.Now(), time.Now())
}
