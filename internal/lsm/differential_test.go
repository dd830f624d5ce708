package lsm

import (
	"encoding/binary"
	"testing"

	"mets/internal/dstest"
	"mets/internal/keys"
	"mets/internal/surf"
)

// dbAdapter gives lsm.DB the uint64-valued primary-index surface the shared
// differential harness drives. Inserts/updates/deletes first consult Get for
// the presence semantics the harness expects; scans iterate by repeated
// Seek from the immediate successor of the previous key.
type dbAdapter struct{ db *DB }

func encVal(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func (a dbAdapter) Get(key []byte) (uint64, bool) {
	v, ok := a.db.Get(key)
	if !ok {
		return 0, false
	}
	return binary.BigEndian.Uint64(v), true
}

func (a dbAdapter) Insert(key []byte, value uint64) bool {
	if _, ok := a.db.Get(key); ok {
		return false
	}
	a.db.Put(key, encVal(value))
	return true
}

func (a dbAdapter) Update(key []byte, value uint64) bool {
	if _, ok := a.db.Get(key); !ok {
		return false
	}
	a.db.Put(key, encVal(value))
	return true
}

func (a dbAdapter) Delete(key []byte) bool {
	if _, ok := a.db.Get(key); !ok {
		return false
	}
	a.db.Delete(key)
	return true
}

func (a dbAdapter) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	lo := start
	if lo == nil {
		lo = []byte{}
	}
	n := 0
	for {
		e, ok := a.db.Seek(lo, nil)
		if !ok {
			return n
		}
		n++
		if !fn(e.Key, binary.BigEndian.Uint64(e.Value)) {
			return n
		}
		lo = keys.Next(e.Key)
	}
}

// TestDifferential runs the shared oracle harness against the LSM engine
// with tiny tables (constant flushes and compactions mid-stream), with and
// without SuRF filters. The Seek-based scan path
// exercises tombstone restarts across levels.
func TestDifferential(t *testing.T) {
	cases := map[string]Config{
		"plain": {MemTableBytes: 4 << 10, TargetTableBytes: 4 << 10, BlockCacheBytes: 64 << 10},
		"surf": {MemTableBytes: 4 << 10, TargetTableBytes: 4 << 10, BlockCacheBytes: 64 << 10,
			Filter: SuRFFilterBuilder(surf.MixedConfig(4, 4))},
	}
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			db := Open(cfg)
			ops := 4000
			if raceEnabled {
				ops = 1500
			}
			dstest.Run(t, dbAdapter{db}, dstest.Config{Ops: ops, KeySpace: 400, Seed: 2, ScanEvery: 32})
		})
	}
}
