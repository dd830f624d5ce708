package hybrid

import (
	"sort"
	"sync"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/skiplist"
)

// memtable is the dynamic-stage contract the one hybrid core is written
// against. A key is in one of three states: a live value, a tombstone
// ("deleted here — suppress the key in every lower stage"), or absent. The
// tombstones live inside the memtable, so the read path touches exactly one
// structure per stage and a sealed memtable carries its deletes with it.
//
// Concurrency: Put and Tomb are called by one writer at a time (the index's
// writer mutex); every other method may be called by any number of readers
// concurrently with that writer. A sealed (frozen) memtable sees no more
// writes.
type memtable interface {
	Get(key []byte) (value uint64, live, tomb bool)
	// Put inserts key or overwrites it, reviving a tombstone; it reports
	// whether a new node was created.
	Put(key []byte, value uint64) bool
	// Tomb marks key deleted, creating the tombstone when key is absent; it
	// reports whether key held a live value.
	Tomb(key []byte) bool
	// ScanStates visits every state, live and tombstoned, in key order from
	// the smallest key >= start until fn returns false. Keys handed to fn
	// are never modified afterwards and may be retained. States written
	// behind the scan position are not revisited.
	ScanStates(start []byte, fn func(key []byte, value uint64, tomb bool) bool) int
	// Len counts live entries; Nodes adds the tombstones — the raw size the
	// merge trigger weighs, so accumulated deletes push toward a merge too.
	Len() int
	Nodes() int
	MemoryUsage() int64
	// SnapshotStates drains every state into a sorted slice (what a Snapshot
	// captures; merges stream ScanStates instead).
	SnapshotStates() []skiplist.StateEntry
}

// *skiplist.Concurrent is the memtable Config.EpochReads selects: lock-free
// readers beside the single writer.
var _ memtable = (*skiplist.Concurrent)(nil)

// lockedMem is the memtable without Config.EpochReads: any factory-made
// thesis structure (B+tree, ART, Masstree, skip list — none internally
// synchronized) for the live entries, a second one holding the tombstoned
// keys as the sorted tombstone set, and a readers-writer lock that is the
// whole synchronization policy. The lock covers single memtable operations
// only: a reader contends with one Put or Tomb at a time, never with a merge
// (merges drain a memtable under the read lock) and never with user code
// (ScanStates callers only buffer).
type lockedMem struct {
	mu    sync.RWMutex
	dyn   index.Dynamic
	tombs index.Dynamic // keys only; disjoint from dyn
}

func newLockedMem(newDynamic func() index.Dynamic) *lockedMem {
	return &lockedMem{dyn: newDynamic(), tombs: newDynamic()}
}

func (m *lockedMem) Get(key []byte) (uint64, bool, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if v, ok := m.dyn.Get(key); ok {
		return v, true, false
	}
	if m.tombs.Len() > 0 {
		if _, dead := m.tombs.Get(key); dead {
			return 0, false, true
		}
	}
	return 0, false, false
}

func (m *lockedMem) Put(key []byte, value uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dyn.Insert(key, value) {
		m.dyn.Update(key, value)
		return false
	}
	if m.tombs.Len() > 0 {
		m.tombs.Delete(key)
	}
	return true
}

func (m *lockedMem) Tomb(key []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tombs.Insert(key, 0)
	return m.dyn.Delete(key)
}

// ScanStates interleaves the live entries with the tombstone set. Keys are
// cloned (into one slab per call) before fn sees them — the structures reuse
// or mutate theirs — and the tombstones are pulled through a chunked cursor
// so a short scan over a delete-heavy memtable does not walk the whole set.
func (m *lockedMem) ScanStates(start []byte, fn func(key []byte, value uint64, tomb bool) bool) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var slab keys.Slab
	tombs := newCursor(func(start []byte, fn func([]byte, uint64, bool) bool) int {
		return m.tombs.Scan(start, func(k []byte, _ uint64) bool {
			return fn(slab.Clone(k), 0, true)
		})
	}, start, memChunk)
	n, more := 0, true
	emit := func(k []byte, v uint64, tomb bool) bool {
		n++
		more = fn(k, v, tomb)
		return more
	}
	m.dyn.Scan(start, func(k []byte, v uint64) bool {
		for e := tombs.peek(); e != nil && keys.Compare(e.Key, k) < 0; e = tombs.peek() {
			tombs.advance()
			if !emit(e.Key, 0, true) {
				return false
			}
		}
		return emit(slab.Clone(k), v, false)
	})
	for e := tombs.peek(); more && e != nil; e = tombs.peek() {
		tombs.advance()
		emit(e.Key, 0, true)
	}
	return n
}

func (m *lockedMem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dyn.Len()
}

func (m *lockedMem) Nodes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dyn.Len() + m.tombs.Len()
}

func (m *lockedMem) MemoryUsage() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dyn.MemoryUsage() + m.tombs.MemoryUsage()
}

func (m *lockedMem) SnapshotStates() []skiplist.StateEntry {
	out := make([]skiplist.StateEntry, 0, m.Nodes())
	m.ScanStates(nil, func(k []byte, v uint64, tomb bool) bool {
		out = append(out, skiplist.StateEntry{Key: k, Value: v, Tomb: tomb})
		return true
	})
	return out
}

// sliceMem is the memtable of a Snapshot's private generation: the drained
// states of the live memtable as a sorted slice. Only the two methods
// gen.get and gen.scan call are implemented; the embedded nil interface
// makes any other call panic, which only a bug can reach — a snapshot is
// never written, sized or drained.
type sliceMem struct {
	memtable
	states []skiplist.StateEntry
}

func (m sliceMem) seek(key []byte) int {
	return sort.Search(len(m.states), func(i int) bool { return keys.Compare(m.states[i].Key, key) >= 0 })
}

func (m sliceMem) Get(key []byte) (uint64, bool, bool) {
	if i := m.seek(key); i < len(m.states) && keys.Compare(m.states[i].Key, key) == 0 {
		return m.states[i].Value, !m.states[i].Tomb, m.states[i].Tomb
	}
	return 0, false, false
}

func (m sliceMem) ScanStates(start []byte, fn func(key []byte, value uint64, tomb bool) bool) int {
	n := 0
	for _, s := range m.states[m.seek(start):] {
		n++
		if !fn(s.Key, s.Value, s.Tomb) {
			break
		}
	}
	return n
}
