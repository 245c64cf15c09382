package cli

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that a crash at any point
// leaves either the previous file or the complete new one, never a torn mix:
// the bytes go to a temporary file in the same directory, which is fsynced
// and renamed over path, and then the directory is fsynced so the rename
// itself survives a power loss. The checkpoint and artifact writers of the
// commands (wsdserve -checkpoint, wsdtrain -out) use it.
//
// An error from the final directory fsync means the new file is already in
// place but its rename may not survive a power loss; the error says so.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return writeFileAtomic(path, data, perm, (*os.File).Write)
}

// writeFileAtomic is WriteFileAtomic with the data write injectable, so tests
// can fail it midway.
func writeFileAtomic(path string, data []byte, perm os.FileMode, write func(*os.File, []byte) (int, error)) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := writeAndRename(f, path, data, perm, write); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("cli: %s written, but syncing its directory failed: %w", path, err)
	}
	return nil
}

// writeAndRename fills the temporary file f, fsyncs it and renames it over
// path; on error the caller removes f.
func writeAndRename(f *os.File, path string, data []byte, perm os.FileMode, write func(*os.File, []byte) (int, error)) error {
	if _, err := write(f, data); err != nil {
		return err
	}
	if err := f.Chmod(perm); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
