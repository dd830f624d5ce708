package hybrid

import (
	"sync"

	"mets/internal/bloom"
	"mets/internal/btree"
	"mets/internal/index"
	"mets/internal/keys"
)

// Secondary is the non-unique (secondary index) hybrid of §5.3.5: the
// dynamic stage is a multimap B+tree; the static stage stores each distinct
// key once with a packed value list.
//
// Secondary is the thesis-faithful design end to end: concurrent readers plus
// a single writer behind one readers-writer lock, merges in the foreground
// under the write lock (the secondary experiments of §5.3.5 are
// merge-time-insensitive). It shares Config with Index but not the
// generation machinery: EpochReads, BackgroundMerge, Obs and Dir are
// ignored. Scan holds the read lock for its whole duration, so the
// callback must not call back into s.
type Secondary struct {
	cfg Config

	mu      sync.RWMutex
	dynamic *btree.Tree
	static  *btree.CompactMulti
	filter  *bloom.Filter
}

// NewSecondary returns an empty secondary hybrid B+tree index.
func NewSecondary(cfg Config) *Secondary {
	if cfg.MergeRatio <= 0 {
		cfg.MergeRatio = 10
	}
	if cfg.BloomBitsPerKey == 0 {
		cfg.BloomBitsPerKey = 10
	}
	s := &Secondary{cfg: cfg, dynamic: btree.NewMulti()}
	s.resetFilter(0)
	return s
}

func (s *Secondary) resetFilter(expected int) {
	if s.cfg.DisableBloom {
		return
	}
	if expected < 4096 {
		expected = 4096
	}
	s.filter = bloom.New(expected, s.cfg.BloomBitsPerKey)
}

// Len returns the number of stored (key, value) pairs.
func (s *Secondary) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.dynamic.Len()
	if s.static != nil {
		n += s.static.Len()
	}
	return n
}

// Insert adds one (key, value) pair; duplicates are expected.
func (s *Secondary) Insert(key []byte, value uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dynamic.Insert(key, value)
	if s.filter != nil {
		s.filter.Add(key)
	}
	s.maybeMergeLocked()
	return true
}

// GetAll returns every value stored under key across both stages.
func (s *Secondary) GetAll(key []byte) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []uint64
	if s.filter == nil || s.filter.Contains(key) {
		out = append(out, s.dynamic.GetAll(key)...)
	}
	if s.static != nil {
		out = append(out, s.static.GetAll(key)...)
	}
	return out
}

// Get returns one value stored under key.
func (s *Secondary) Get(key []byte) (uint64, bool) {
	vs := s.GetAll(key)
	if len(vs) == 0 {
		return 0, false
	}
	return vs[0], true
}

// Scan visits (key, value) pairs in key order from the smallest key >= start.
// A key is valid only during its callback (static-stage keys are lent, see
// index.Static); copy it to retain it.
func (s *Secondary) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dyn := index.Snapshot2(s.dynamic, start)
	di := 0
	count := 0
	cont := true
	emit := func(k []byte, v uint64) bool {
		count++
		return fn(k, v)
	}
	if s.static != nil {
		s.static.Scan(start, func(k []byte, v uint64) bool {
			for di < len(dyn) && keys.Compare(dyn[di].Key, k) <= 0 {
				if cont = emit(dyn[di].Key, dyn[di].Value); !cont {
					return false
				}
				di++
			}
			cont = emit(k, v)
			return cont
		})
	}
	for cont && di < len(dyn) {
		cont = emit(dyn[di].Key, dyn[di].Value)
		di++
	}
	return count
}

func (s *Secondary) maybeMergeLocked() {
	d := s.dynamic.Len()
	if d < s.cfg.MinDynamic {
		return
	}
	if s.static != nil && d*s.cfg.MergeRatio < s.static.Len() {
		return
	}
	s.mergeLocked()
}

// mergeLocked migrates all dynamic pairs into a rebuilt static stage.
func (s *Secondary) mergeLocked() {
	dyn := index.Snapshot(s.dynamic)
	var merged []index.Entry
	if s.static == nil {
		merged = dyn
	} else {
		merged = make([]index.Entry, 0, len(dyn)+s.static.Len())
		di := 0
		var slab keys.Slab
		s.static.Scan(nil, func(k []byte, v uint64) bool {
			for di < len(dyn) && keys.Compare(dyn[di].Key, k) <= 0 {
				merged = append(merged, dyn[di])
				di++
			}
			merged = append(merged, index.Entry{Key: slab.Clone(k), Value: v})
			return true
		})
		merged = append(merged, dyn[di:]...)
	}
	st, err := btree.NewCompactMulti(merged)
	if err != nil {
		panic("hybrid: secondary static build failed: " + err.Error())
	}
	s.static = st
	s.dynamic = btree.NewMulti()
	s.resetFilter(len(merged) / s.cfg.MergeRatio)
}

// MemoryUsage sums both stages and the Bloom filter.
func (s *Secondary) MemoryUsage() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.dynamic.MemoryUsage()
	if s.static != nil {
		m += s.static.MemoryUsage()
	}
	if s.filter != nil {
		m += s.filter.MemoryUsage()
	}
	return m
}
