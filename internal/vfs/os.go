package vfs

import (
	"os"
	"path/filepath"
	"sort"
)

// OS is the production FS: a thin adapter over the os package. The zero
// value is ready to use.
type OS struct{}

func hostPath(name string) string { return filepath.FromSlash(name) }

// Create opens name for writing and fsyncs the parent directory, honoring
// the FS contract that the new directory entry is durable when Create
// returns. Without the dir sync, a WAL segment created here — and every
// record fsynced into it — could vanish wholesale on power loss, because
// POSIX only makes the *entry* durable once the directory itself is synced.
// The extra fsync is per file creation (segment rotation, table build), not
// per write, so it is off the hot path.
func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(hostPath(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(hostPath(name))); err != nil {
		f.Close()
		return nil, err
	}
	return osFile{f}, nil
}

// syncDir fsyncs a directory so metadata changes inside it (created or
// renamed entries) survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (OS) Open(name string) (ReadFile, error) {
	f, err := os.Open(hostPath(name))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &osReadFile{f: f, size: st.Size()}, nil
}

func (OS) Remove(name string) error { return os.Remove(hostPath(name)) }

// Rename renames and then syncs the parent directory, so the new directory
// entry survives a crash (the POSIX contract behind the
// write-tmp-sync-rename commit). A dir-sync failure is returned:
// callers treat Rename as a commit point and must not ack on top of an
// unsynced rename.
func (OS) Rename(oldname, newname string) error {
	if err := os.Rename(hostPath(oldname), hostPath(newname)); err != nil {
		return err
	}
	return syncDir(filepath.Dir(hostPath(newname)))
}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(hostPath(dir), 0o755) }

func (OS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(hostPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func (OS) Size(name string) (int64, error) {
	st, err := os.Stat(hostPath(name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

type osFile struct{ f *os.File }

func (w osFile) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w osFile) Sync() error                 { return w.f.Sync() }
func (w osFile) Close() error                { return w.f.Close() }

type osReadFile struct {
	f    *os.File
	size int64
}

func (r *osReadFile) ReadAt(p []byte, off int64) (int, error) { return r.f.ReadAt(p, off) }
func (r *osReadFile) Size() int64                             { return r.size }
func (r *osReadFile) Close() error                            { return r.f.Close() }
