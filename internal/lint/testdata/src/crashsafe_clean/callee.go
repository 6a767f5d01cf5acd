package store

import "os"

// PublishHelper renames a file that its helper wrote and synced.
func PublishHelper(path string, b []byte) error {
	if err := writeSynced(path+".tmp", b); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// writeSynced leaves f dirty only on its error returns, after which the
// caller does not reach the rename.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
