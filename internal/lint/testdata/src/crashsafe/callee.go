package store

import "os"

// PublishHelper renames a file that its helper wrote and closed without a sync.
func PublishHelper(path string, b []byte) error {
	if err := writeUnsynced(path+".tmp", b); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// writeUnsynced may succeed with f written but not synced.
func writeUnsynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
