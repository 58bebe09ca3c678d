// Package fsutil holds the durable file operations the write-ahead
// journal, the snapshot writer and the columnar store share.
package fsutil

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a crash leaves either the old
// state or the complete new file under path, never a torn one: it writes
// path+".tmp", fsyncs and closes it, renames it to path and fsyncs the
// directory. When any step up to the rename fails, the tmp file is removed
// and the error returned.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so creations, renames and removals in it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
