package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/faults"
)

func TestDaemonFaultsPanic(t *testing.T) {
	f := NewDaemonFaults(DaemonFaultsConfig{PanicProb: 1})
	recovered := func() (r any) {
		defer func() { r = recover() }()
		_ = f.BeforeRun(context.Background())
		return nil
	}()
	if recovered == nil {
		t.Fatal("PanicProb=1 BeforeRun did not panic")
	}
	if st := f.Stats(); st.Runs != 1 || st.Panics != 1 {
		t.Errorf("stats after panic = %+v", st)
	}
}

func TestDaemonFaultsStallUnwedgedByDeadline(t *testing.T) {
	f := NewDaemonFaults(DaemonFaultsConfig{StallProb: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := f.BeforeRun(ctx)
	if err == nil {
		t.Fatal("StallProb=1 BeforeRun returned nil")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall error = %v, want wrapped DeadlineExceeded", err)
	}
	if got := faults.Class(err); got != faults.ClassDeadline {
		t.Errorf("faults.Class(stall) = %q, want %q", got, faults.ClassDeadline)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("stall returned after %v, before the deadline", elapsed)
	}
	if st := f.Stats(); st.Stalls != 1 {
		t.Errorf("stats after stall = %+v", st)
	}
}

func TestDaemonFaultsWrite(t *testing.T) {
	f := NewDaemonFaults(DaemonFaultsConfig{WriteErrProb: 1})
	err := f.WriteFault()
	if err == nil {
		t.Fatal("WriteErrProb=1 WriteFault returned nil")
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Errorf("write fault = %v, want wrapped ErrTransient", err)
	}
	if st := f.Stats(); st.WriteCalls != 1 || st.WriteErrs != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Probability zero never injects.
	quiet := NewDaemonFaults(DaemonFaultsConfig{})
	for i := 0; i < 100; i++ {
		if err := quiet.WriteFault(); err != nil {
			t.Fatalf("zero-probability injector returned %v", err)
		}
		if err := quiet.BeforeRun(context.Background()); err != nil {
			t.Fatalf("zero-probability BeforeRun returned %v", err)
		}
	}
}

func TestDaemonFaultsReproducible(t *testing.T) {
	schedule := func() []bool {
		f := NewDaemonFaults(DaemonFaultsConfig{Seed: 42, WriteErrProb: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = f.WriteFault() != nil
		}
		return out
	}
	a, b := schedule(), schedule()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at call %d", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("p=0.5 schedule injected %d/%d — not probabilistic", hits, len(a))
	}
}
