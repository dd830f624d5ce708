// Package vfs is the filesystem seam under the durability layer (the WAL
// and its repair, flight-recorder dumps). Production code runs on OS, a thin
// wrapper over the os package; tests run on MemFS, an in-memory
// implementation that models exactly the crash semantics a journaling
// filesystem gives a database: written-but-unsynced bytes may be lost,
// truncated, or corrupted by a power cut, while synced bytes and metadata
// operations (create, rename, remove) survive. MemFS can arm a "crash" at a
// chosen operation index, which is what makes every torn-write and
// mid-compaction failure mode mechanically enumerable (internal/dstest's
// crash harness walks all of them).
//
// Paths use forward slashes on every implementation (path.Join); OS
// translates to the host separator internally.
package vfs

import (
	"errors"
	"io"
)

// ErrCrashed is returned by every operation on a MemFS that has hit its
// armed crash point, and by operations on file handles that were open when
// the crash (or a Recover) happened — the moral equivalent of the process
// being gone.
var ErrCrashed = errors.New("vfs: filesystem crashed")

// ErrNotExist mirrors os.ErrNotExist for the in-memory implementation.
var ErrNotExist = errors.New("vfs: file does not exist")

// FS is the narrow filesystem surface the durability layer needs: create
// and append-write files, sync them, read them back by offset, and do
// atomic metadata operations. It is deliberately smaller than io/fs — the
// point is that every byte the storage engine persists flows through a
// mockable seam.
type FS interface {
	// Create opens name for writing, truncating any existing file. Parent
	// directories must exist (MkdirAll). The new file's existence is
	// durable when Create returns — MemFS models journaled metadata, and
	// the OS implementation enforces it by fsyncing the parent directory
	// (a plain open(O_CREAT) leaves the entry volatile until the directory
	// is synced, which would let a whole WAL segment vanish on power
	// loss). Contents are durable only after Sync.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (ReadFile, error)
	// Remove deletes a file (durable immediately).
	Remove(name string) error
	// Rename atomically replaces newname with oldname (durable
	// immediately, the atomic-commit primitive). The destination's old
	// contents are gone afterwards.
	Rename(oldname, newname string) error
	// MkdirAll creates dir and parents.
	MkdirAll(dir string) error
	// List returns the sorted base names of the files in dir (directories
	// excluded). A missing dir lists as empty.
	List(dir string) ([]string, error)
	// Size returns the current size of name in bytes.
	Size(name string) (int64, error)
}

// File is a sequential write handle.
type File interface {
	io.Writer
	// Sync makes every byte written so far crash-durable.
	Sync() error
	Close() error
}

// ReadFile is a random-access read handle.
type ReadFile interface {
	io.ReaderAt
	Size() int64
	Close() error
}
