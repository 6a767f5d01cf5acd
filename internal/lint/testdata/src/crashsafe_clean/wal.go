// Package store is the crashsafe clean twin: the same durability shapes
// done right — the analyzer must stay silent here.
package store

import "os"

// Config carries the test-only fsync bypass.
type Config struct {
	NoSync bool
}

// Log is the WAL-like appender with disciplined error paths.
type Log struct {
	f   *os.File
	off int64
	cfg Config
}

// Append seals the handle on a failed write before returning.
func (l *Log) Append(frame []byte) error {
	if _, err := l.f.Write(frame); err != nil {
		l.f.Close()
		return err
	}
	l.off += int64(len(frame))
	return nil
}

// Flush truncates back to the known-good offset when fsync fails.
func (l *Log) Flush() error {
	if err := l.f.Sync(); err != nil {
		l.f.Truncate(l.off)
		return err
	}
	return nil
}

// Publish syncs before renaming. The NoSync branch is pruned to its
// production value (false), so the bypass does not poison the path.
func (l *Log) Publish(dir string) error {
	f, err := os.Create(dir + "/staging")
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		f.Close()
		return err
	}
	if !l.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(dir+"/staging", dir+"/final")
}

// Scratch writes through an abandoned temp file: torn bytes are never
// renamed into place, so a bare error return is fine.
func Scratch(dir string, data []byte) error {
	f, err := os.OpenFile(dir+"/scratch.tmp", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// AppendSealed recovers through helpers of this package, two calls deep.
func (l *Log) AppendSealed(frame []byte) error {
	if _, err := l.f.Write(frame); err != nil {
		return l.fail(err)
	}
	return nil
}

// fail seals the log after a failed write.
func (l *Log) fail(err error) error {
	l.seal()
	return err
}

func (l *Log) seal() { l.f.Close() }
