// Package atomicfile replaces files so that a crash at any moment leaves
// either the old content or the new, never a torn or empty file.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write atomically replaces path with data. The data goes to path+".tmp"
// in the same directory, which is fsynced before the rename onto path, and
// the directory is fsynced after it, so the either-old-or-new guarantee
// covers OS crashes and power loss, not just process kills:
// rename-before-data-flush could otherwise surface an empty or torn file.
// On error path is untouched; a stale temp file may remain, and the next
// Write to path truncates it.
func Write(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives an OS crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
