// Package index defines the common contracts shared by the in-memory search
// trees of Chapter 2 (B+tree, Masstree, Skip List, ART), their compact
// static variants, and the dual-stage hybrid indexes of Chapter 5.
//
// # Thread safety
//
// Dynamic implementations are NOT internally synchronized: concurrent reads
// are safe only while no writer is active, and any mutation requires
// exclusive access. Static implementations are immutable after construction
// and therefore safe for unlimited concurrent readers. Concurrency is
// provided one layer up: hybrid.Index puts a Dynamic behind its memtable's
// readers-writer lock and lsm.DB behind its own, each supporting any number
// of concurrent readers plus a single writer and moving rebuild work (merge,
// flush, compaction) off the critical path onto background goroutines.
package index

// Entry is one key-value pair. Values are 64-bit tuple pointers throughout,
// as in the thesis.
type Entry struct {
	Key   []byte
	Value uint64
}

// Dynamic is an ordered index supporting in-place modification.
type Dynamic interface {
	// Insert adds key with value; it returns false without modifying the
	// index when the key is already present.
	Insert(key []byte, value uint64) bool
	// Get returns the value stored under key.
	Get(key []byte) (uint64, bool)
	// Update overwrites the value of an existing key, returning false when
	// the key is absent.
	Update(key []byte, value uint64) bool
	// Delete removes key, returning false when absent.
	Delete(key []byte) bool
	// Scan visits entries in key order starting at the smallest key >= start
	// until fn returns false; it returns the number of entries visited. The
	// key is lent: valid only until fn returns (the structure may reuse or
	// later mutate its bytes) and not to be modified — copy it to retain it.
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
	// Len returns the number of stored entries.
	Len() int
	// MemoryUsage returns the analytically-accounted structure size in
	// bytes (nodes, key bytes, pointers at 8 B each).
	MemoryUsage() int64
}

// Static is a read-only ordered index.
type Static interface {
	Get(key []byte) (uint64, bool)
	// Scan follows Dynamic.Scan, lent key included: a static structure need
	// not hold its keys contiguously (btree.Compact stores a leaf group's
	// common prefix once) and may rebuild each one in a buffer the scan
	// reuses. Every caller that keeps a key clones it.
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
	Len() int
	MemoryUsage() int64
}

// Snapshot drains an ordered index into a sorted entry slice.
func Snapshot(d interface {
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
	Len() int
}) []Entry {
	return Snapshot2(d, nil)
}

// Snapshot2 drains an ordered index into a sorted entry slice beginning at
// the smallest key >= start.
func Snapshot2(d interface {
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
	Len() int
}, start []byte) []Entry {
	out := make([]Entry, 0, d.Len())
	d.Scan(start, func(k []byte, v uint64) bool {
		kk := make([]byte, len(k))
		copy(kk, k)
		out = append(out, Entry{Key: kk, Value: v})
		return true
	})
	return out
}
