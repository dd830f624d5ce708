package vfs

import (
	"fmt"
	"io"
	"math/rand"
	"path"
	"sort"
	"sync"
)

// CrashMode selects what happens to each file's written-but-unsynced bytes
// when an armed MemFS crash fires and Recover is called.
type CrashMode int

const (
	// DropUnsynced discards every unsynced byte — the classic power cut on
	// a drive that honors flush barriers. Recovered state is exactly the
	// synced prefix, which is what the strict differential crash suite
	// checks against the acked-write oracle.
	DropUnsynced CrashMode = iota
	// TornTail keeps a pseudo-random prefix of each file's unsynced bytes
	// (a torn write): the tail of the last WAL segment may end mid-frame.
	TornTail
	// CorruptTail keeps the unsynced bytes but flips a pseudo-random bit
	// somewhere in them — bit rot in a cache line that never hit the
	// platter. CRC validation must catch this.
	CorruptTail
)

func (m CrashMode) String() string {
	switch m {
	case DropUnsynced:
		return "drop"
	case TornTail:
		return "torn"
	case CorruptTail:
		return "corrupt"
	}
	return fmt.Sprintf("CrashMode(%d)", int(m))
}

// MemFS is the fault-injecting in-memory FS. Every mutating operation
// (Create, Write, Sync, Remove, Rename) increments an operation counter;
// CrashAt arms a crash at a chosen counter value, after which every
// operation — including the one that tripped it, whose effect is NOT
// applied — fails with ErrCrashed. Recover then plays the configured
// CrashMode against each file's unsynced bytes and returns the filesystem
// to service, modeling a process restart over the surviving media state.
// Handles opened before the crash stay dead forever.
//
// Durability model (matching a journaling FS with data barriers): file
// contents are durable only after File.Sync; Create/Remove/Rename are
// metadata-journaled and durable as soon as they return.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
	epoch int // bumped by Recover; stale handles check it

	ops     int64 // mutating operations applied or attempted
	crashAt int64 // fire when ops reaches this value; 0 = disarmed
	crashed bool
	mode    CrashMode
	rng     *rand.Rand

	failSync func(name string) error // FailSyncs
}

type memFile struct {
	synced   []byte
	unsynced []byte
}

func (f *memFile) view() []byte {
	out := make([]byte, 0, len(f.synced)+len(f.unsynced))
	out = append(out, f.synced...)
	return append(out, f.unsynced...)
}

// NewMemFS returns an empty in-memory filesystem with no crash armed.
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		dirs:  map[string]bool{".": true, "/": true, "": true},
		rng:   rand.New(rand.NewSource(1)),
	}
}

// CrashAt arms a crash that fires on the op-th mutating operation from now
// (1 = the very next one). mode picks the unsynced-byte damage applied by
// Recover, seed makes torn/corrupt damage reproducible.
func (fs *MemFS) CrashAt(op int64, mode CrashMode, seed int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt = fs.ops + op
	fs.mode = mode
	fs.rng = rand.New(rand.NewSource(seed))
}

// FailSyncs makes File.Sync fail, from now on, on every file for whose
// (cleaned) name fail returns an error: the call returns that error and the
// file's bytes stay unsynced — one failing device or directory, where CrashAt
// stops the whole filesystem. A nil fail clears it.
func (fs *MemFS) FailSyncs(fail func(name string) error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failSync = fail
}

// Crashed reports whether the armed crash has fired.
func (fs *MemFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Ops returns the number of mutating operations observed so far.
func (fs *MemFS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Recover applies the configured crash damage to every file's unsynced
// bytes, promotes the survivors to synced, disarms the crash, and
// invalidates all pre-crash handles. It is also valid on an un-crashed
// filesystem (simulating a clean restart: unsynced bytes still at risk are
// kept — the process exited, the machine did not lose power).
func (fs *MemFS) Recover() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		for _, f := range fs.files {
			switch fs.mode {
			case DropUnsynced:
				f.unsynced = nil
			case TornTail:
				if len(f.unsynced) > 0 {
					f.unsynced = f.unsynced[:fs.rng.Intn(len(f.unsynced)+1)]
				}
			case CorruptTail:
				if len(f.unsynced) > 0 {
					i := fs.rng.Intn(len(f.unsynced))
					f.unsynced[i] ^= 1 << uint(fs.rng.Intn(8))
				}
			}
		}
	}
	for _, f := range fs.files {
		f.synced = append(f.synced, f.unsynced...)
		f.unsynced = nil
	}
	fs.crashed = false
	fs.crashAt = 0
	fs.epoch++
}

// step accounts one mutating operation and fires the armed crash when its
// index comes up. The tripping operation fails without applying its effect.
// Requires fs.mu.
func (fs *MemFS) step() error {
	if fs.crashed {
		return ErrCrashed
	}
	fs.ops++
	if fs.crashAt != 0 && fs.ops >= fs.crashAt {
		fs.crashed = true
		return ErrCrashed
	}
	return nil
}

func (fs *MemFS) Create(name string) (File, error) {
	name = path.Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return nil, err
	}
	if !fs.dirs[path.Dir(name)] {
		return nil, fmt.Errorf("vfs: create %s: %w (missing dir)", name, ErrNotExist)
	}
	f := &memFile{}
	fs.files[name] = f
	return &memWriter{fs: fs, f: f, name: name, epoch: fs.epoch}, nil
}

func (fs *MemFS) Open(name string) (ReadFile, error) {
	name = path.Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("vfs: open %s: %w", name, ErrNotExist)
	}
	return &memReader{fs: fs, f: f, epoch: fs.epoch}, nil
}

func (fs *MemFS) Remove(name string) error {
	name = path.Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return err
	}
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("vfs: remove %s: %w", name, ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

func (fs *MemFS) Rename(oldname, newname string) error {
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.step(); err != nil {
		return err
	}
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("vfs: rename %s: %w", oldname, ErrNotExist)
	}
	delete(fs.files, oldname)
	fs.files[newname] = f
	return nil
}

func (fs *MemFS) MkdirAll(dir string) error {
	dir = path.Clean(dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	for d := dir; ; d = path.Dir(d) {
		fs.dirs[d] = true
		if d == "." || d == "/" || d == path.Dir(d) {
			break
		}
	}
	return nil
}

func (fs *MemFS) List(dir string) ([]string, error) {
	dir = path.Clean(dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	var out []string
	for name := range fs.files {
		if path.Dir(name) == dir {
			out = append(out, path.Base(name))
		}
	}
	sort.Strings(out)
	return out, nil
}

func (fs *MemFS) Size(name string) (int64, error) {
	name = path.Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return 0, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("vfs: size %s: %w", name, ErrNotExist)
	}
	return int64(len(f.synced) + len(f.unsynced)), nil
}

// Corrupt flips bits at off in name's durable contents — the out-of-band
// damage injector for crash-matrix tests (a bit-flipped WAL frame).
func (fs *MemFS) Corrupt(name string, off int64, xor byte) error {
	name = path.Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("vfs: corrupt %s: %w", name, ErrNotExist)
	}
	if off < int64(len(f.synced)) {
		f.synced[off] ^= xor
		return nil
	}
	off -= int64(len(f.synced))
	if off < int64(len(f.unsynced)) {
		f.unsynced[off] ^= xor
		return nil
	}
	return fmt.Errorf("vfs: corrupt %s: offset past EOF", name)
}

// Truncate cuts name's durable contents to size bytes (crash-matrix helper:
// a truncated WAL segment).
func (fs *MemFS) Truncate(name string, size int64) error {
	name = path.Clean(name)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("vfs: truncate %s: %w", name, ErrNotExist)
	}
	all := f.view()
	if size > int64(len(all)) {
		return fmt.Errorf("vfs: truncate %s: size past EOF", name)
	}
	f.synced = all[:size]
	f.unsynced = nil
	return nil
}

type memWriter struct {
	fs     *MemFS
	f      *memFile
	name   string
	epoch  int
	closed bool
}

func (w *memWriter) check() error {
	if w.closed {
		return fmt.Errorf("vfs: write on closed file")
	}
	if w.epoch != w.fs.epoch || w.fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if err := w.check(); err != nil {
		return 0, err
	}
	if err := w.fs.step(); err != nil {
		return 0, err
	}
	w.f.unsynced = append(w.f.unsynced, p...)
	return len(p), nil
}

func (w *memWriter) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if err := w.check(); err != nil {
		return err
	}
	if err := w.fs.step(); err != nil {
		return err
	}
	if w.fs.failSync != nil {
		if err := w.fs.failSync(w.name); err != nil {
			return err
		}
	}
	w.f.synced = append(w.f.synced, w.f.unsynced...)
	w.f.unsynced = nil
	return nil
}

func (w *memWriter) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.closed = true
	return nil
}

type memReader struct {
	fs    *MemFS
	f     *memFile
	epoch int
}

func (r *memReader) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.epoch != r.fs.epoch || r.fs.crashed {
		return 0, ErrCrashed
	}
	// Copy straight out of the synced/unsynced halves rather than
	// materializing the whole file per call (view would): sequential
	// fixed-size reads — the WAL replay pattern — stay O(file), not
	// O(file²).
	size := int64(len(r.f.synced)) + int64(len(r.f.unsynced))
	if off >= size {
		return 0, io.EOF
	}
	n := 0
	if off < int64(len(r.f.synced)) {
		n = copy(p, r.f.synced[off:])
	}
	if n < len(p) {
		uoff := off + int64(n) - int64(len(r.f.synced))
		n += copy(p[n:], r.f.unsynced[uoff:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *memReader) Size() int64 {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return int64(len(r.f.synced) + len(r.f.unsynced))
}

func (r *memReader) Close() error { return nil }

// ensure interface compliance
var (
	_ FS = OS{}
	_ FS = (*MemFS)(nil)
)
