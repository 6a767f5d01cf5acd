package store

import "os"

// Path shapes for Rule A: on each, some feasible path reaches the rename
// while a handle still carries unsynced bytes.

// OneBranch syncs on one branch only.
func OneBranch(f *os.File, b []byte, ok bool) error {
	f.Write(b)
	if ok {
		f.Sync()
	}
	return os.Rename("a", "b")
}

// WriteInLoop writes inside the loop after the only sync.
func WriteInLoop(f *os.File, bs [][]byte) error {
	f.Sync()
	for i := 0; i < len(bs); i++ {
		f.Write(bs[i])
	}
	return os.Rename("a", "b")
}

// SwitchNoDefault syncs in every case, but no case may match.
func SwitchNoDefault(f *os.File, b []byte, mode int) error {
	f.Write(b)
	switch mode {
	case 1:
		f.Sync()
	case 2:
		f.Sync()
	}
	return os.Rename("a", "b")
}

// FallthroughCarriesWrite falls from the writing case into one that does
// not sync.
func FallthroughCarriesWrite(f *os.File, b []byte, mode int) error {
	switch mode {
	case 0:
		f.Write(b)
		fallthrough
	default:
		mode++
	}
	return os.Rename("a", "b")
}

// SelectEmptyDefault skips the sync when no message is ready.
func SelectEmptyDefault(f *os.File, b []byte, done <-chan struct{}) error {
	f.Write(b)
	select {
	case <-done:
		f.Sync()
	default:
	}
	return os.Rename("a", "b")
}

// Redirty writes again after the sync.
func Redirty(f *os.File, b []byte) error {
	f.Write(b)
	f.Sync()
	f.Write(b)
	return os.Rename("a", "b")
}

// BreakWhileDirty leaves the loop between a write and its sync.
func BreakWhileDirty(f *os.File, bs [][]byte) error {
	for i := 0; i < len(bs); i++ {
		f.Write(bs[i])
		if len(bs[i]) == 0 {
			break
		}
		f.Sync()
	}
	return os.Rename("a", "b")
}

// ContinuePastSync skips the sync for empty frames.
func ContinuePastSync(f *os.File, bs [][]byte) error {
	for i := 0; i < len(bs); i++ {
		f.Write(bs[i])
		if len(bs[i]) == 0 {
			continue
		}
		f.Sync()
	}
	return os.Rename("a", "b")
}

// LabeledBreakSkipsSync leaves both loops from the inner one between a
// write and its sync.
func LabeledBreakSkipsSync(f *os.File, rows [][][]byte) error {
outer:
	for i := 0; i < len(rows); i++ {
		for j := 0; j < len(rows[i]); j++ {
			f.Write(rows[i][j])
			if len(rows[i][j]) == 0 {
				break outer
			}
			f.Sync()
		}
		f.Sync()
	}
	return os.Rename("a", "b")
}

// SyncInClosure syncs only inside a function literal, which is a separate
// function: the enclosing path never sees the sync.
func SyncInClosure(f *os.File, b []byte) error {
	f.Write(b)
	flush := func() { f.Sync() }
	flush()
	return os.Rename("a", "b")
}

// RenameThenWrite renames at the top of each iteration and writes after
// it, so every iteration but the first renames over unsynced bytes.
func RenameThenWrite(f *os.File, bs [][]byte) error {
	for i := 0; i < len(bs); i++ {
		if err := os.Rename("a", "b"); err != nil {
			return err
		}
		f.Write(bs[i])
	}
	return f.Sync()
}

// RenameSeesBothHandles renames while either handle may be dirty from an
// earlier iteration: the report names both.
func RenameSeesBothHandles(f, g *os.File, bs [][]byte) error {
	for i := 0; i < len(bs); i++ {
		os.Rename("a", "b")
		if i%2 == 0 {
			f.Write(bs[i])
		} else {
			g.Write(bs[i])
		}
	}
	f.Sync()
	return g.Sync()
}

// SyncInCountedLoop syncs only inside a loop that may run zero times.
func SyncInCountedLoop(f *os.File, b []byte, n int) error {
	f.Write(b)
	for i := 0; i < n; i++ {
		f.Sync()
	}
	return os.Rename("a", "b")
}

// SyncInRangeLoop syncs only inside a range loop that may run zero times.
func SyncInRangeLoop(f *os.File, b []byte, xs []int) error {
	f.Write(b)
	for range xs {
		f.Sync()
	}
	return os.Rename("a", "b")
}

// RenameInRange renames inside a range body while the handle is dirty.
func RenameInRange(f *os.File, b []byte, names []string) error {
	f.Write(b)
	for _, name := range names {
		os.Rename(name, name+".old")
	}
	return f.Sync()
}
