package vfs

import "fmt"

// WriteFileAtomic publishes data as name with the tmp → sync → rename
// pattern every atomic commit in the engine uses (torn-WAL truncation,
// flight-recorder dumps): readers see either the old content or the complete
// new content, never a torn prefix. The temporary file is name+".tmp"; a
// crash can leave it behind, and the next write to name recreates it.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("vfs: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("vfs: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("vfs: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("vfs: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, name); err != nil {
		return fmt.Errorf("vfs: rename %s: %w", name, err)
	}
	return nil
}

// ReadFileAll reads the whole of name.
func ReadFileAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil && len(buf) > 0 {
		return nil, fmt.Errorf("vfs: read %s: %w", name, err)
	}
	return buf, nil
}
