package store

import (
	"errors"
	"os"
)

// Path shapes for Rule A done right: every feasible path to the rename
// syncs after its last write.

// SyncAfterLoop syncs once after the write loop.
func SyncAfterLoop(f *os.File, bs [][]byte) error {
	for _, b := range bs {
		f.Write(b)
	}
	f.Sync()
	return os.Rename("a", "b")
}

// SwitchAllSync syncs in every case, default included.
func SwitchAllSync(f *os.File, b []byte, mode int) error {
	f.Write(b)
	switch mode {
	case 1:
		f.Sync()
	default:
		f.Sync()
	}
	return os.Rename("a", "b")
}

// TypeSwitchSyncs syncs after the write in every case that writes.
func TypeSwitchSyncs(f *os.File, v any) error {
	switch b := v.(type) {
	case []byte:
		f.Write(b)
		f.Sync()
	case string:
		f.WriteString(b)
		f.Sync()
	}
	return os.Rename("a", "b")
}

// Fallthrough writes in one case and falls into the case that syncs.
func Fallthrough(f *os.File, b []byte, mode int) error {
	switch mode {
	case 0:
		f.Write(b)
		fallthrough
	case 1:
		f.Sync()
	}
	return os.Rename("a", "b")
}

// SelectAllSync syncs whichever clause runs.
func SelectAllSync(f *os.File, b []byte, done <-chan struct{}) error {
	f.Write(b)
	select {
	case <-done:
		f.Sync()
	default:
		f.Sync()
	}
	return os.Rename("a", "b")
}

// EarlyExit ends each dirty path before it reaches the rename.
func EarlyExit(f *os.File, b []byte, mode int) error {
	if mode == 0 {
		f.Write(b)
		return errors.New("abandoned")
	}
	if mode == 1 {
		f.Write(b)
		panic("abandoned")
	}
	return os.Rename("a", "b")
}

// BreakLeavesSelect breaks out of the select, not the loop, so the sync
// after the select runs before the loop can exit.
func BreakLeavesSelect(f *os.File, b []byte, done <-chan struct{}) error {
	for i := 0; i < 3; i++ {
		f.Write(b)
		select {
		case <-done:
			break
		default:
		}
		f.Sync()
	}
	return os.Rename("a", "b")
}

// NoSyncElse syncs on the production branch; the NoSync branch is pruned.
func NoSyncElse(cfg Config, f *os.File, b []byte) (skipped int, err error) {
	f.Write(b)
	if cfg.NoSync {
		skipped++
	} else {
		f.Sync()
	}
	return skipped, os.Rename("a", "b")
}

// SyncInIfInit syncs in the init clause of the error check.
func SyncInIfInit(f *os.File, b []byte) error {
	f.Write(b)
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return os.Rename("a", "b")
}

// ForeverBreakAfterSync leaves its unconditional loop only through the
// break that follows a sync.
func ForeverBreakAfterSync(f *os.File, next func() []byte) error {
	for {
		b := next()
		if b == nil {
			f.Sync()
			break
		}
		f.Write(b)
	}
	return os.Rename("a", "b")
}

// LabeledBreak leaves both loops from the inner one, after a sync.
func LabeledBreak(f *os.File, rows [][][]byte) error {
outer:
	for i := 0; i < len(rows); i++ {
		for j := 0; j < len(rows[i]); j++ {
			f.Write(rows[i][j])
			if len(rows[i][j]) == 0 {
				f.Sync()
				break outer
			}
		}
		f.Sync()
	}
	return os.Rename("a", "b")
}

// SyncEachIteration writes and syncs in each pass of both loop forms.
func SyncEachIteration(f *os.File, bs [][]byte) error {
	for i := 0; i < len(bs); i++ {
		f.Write(bs[i])
		f.Sync()
	}
	for _, b := range bs {
		f.Write(b)
		f.Sync()
	}
	return os.Rename("a", "b")
}
