package sharded

import (
	"testing"

	"mets/internal/fst"
	"mets/internal/index"
	"mets/internal/skiplist"
)

// TestShardedIdleMemory: a bulk-loaded index whose shards have taken no
// write holds its static stages and empty memtables and nothing else — no
// shard allocates its Bloom filter before its first write — so a bit per
// key for a filter over nothing cannot come back silently. One write brings
// back exactly one shard's filter.
func TestShardedIdleMemory(t *testing.T) {
	for _, withHOPE := range []bool{false, true} {
		s, ks := newLibReadIndex(t, 50_000, nil, withHOPE)
		entries := make([]index.Entry, len(ks)) // as newLibReadIndex loads them
		for i, k := range ks {
			entries[i] = index.Entry{Key: k, Value: uint64(i)}
		}
		enc, err := encodeEntries(entries, s.codec)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, part := range s.partition(enc) {
			st, err := fst.NewStatic(part)
			if err != nil {
				t.Fatal(err)
			}
			want += st.MemoryUsage() + skiplist.NewConcurrent().MemoryUsage()
		}
		if got := s.MemoryUsage(); got != want {
			t.Fatalf("hope=%v: MemoryUsage %d, want the static stages and empty memtables, %d", withHOPE, got, want)
		}
		if !s.Insert([]byte("zz-not-an-email"), 1) {
			t.Fatal("Insert refused")
		}
		if got := s.MemoryUsage(); got <= want {
			t.Fatalf("hope=%v: MemoryUsage %d after a write, want above %d", withHOPE, got, want)
		}
	}
}

// TestShardedGetAllocs pins the point read, live and on a snapshot, at no
// allocation on lib-read's shape (newLibReadIndex): the key is encoded into a
// pooled buffer the read hands back. The race detector's pool drops buffers
// at random, so the count is only meaningful without it.
func TestShardedGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, withHOPE := range []bool{false, true} {
		s, ks := newLibReadIndex(t, 50_000, nil, withHOPE)
		snap := s.Snapshot()
		for _, r := range []struct {
			name string
			get  func([]byte) (uint64, bool)
		}{{"live", s.Get}, {"snapshot", snap.Get}} {
			state := uint64(7)
			allocs := testing.AllocsPerRun(2000, func() {
				state = state*2862933555777941757 + 3037000493
				if _, ok := r.get(ks[state%uint64(len(ks))]); !ok {
					t.Fatal("missing key")
				}
			})
			if allocs != 0 {
				t.Errorf("hope=%v %s: %.2f allocs per Get, want 0", withHOPE, r.name, allocs)
			}
		}
	}
}

// TestShardedWriteAllocs pins point writes of keys the memtable already
// holds at no allocation on lib-read's shape (newLibReadIndex): Update
// overwrites the node's value, and Delete then Insert tombstone and revive
// it, and each write's key is encoded into a pooled buffer that goes back
// when the shard returns, since the shard copies what it keeps. The writes
// stay below the merge trigger, so no merge allocates beside them; the race
// detector's pool drops buffers at random, so the count is only meaningful
// without it.
func TestShardedWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, withHOPE := range []bool{false, true} {
		s, ks := newLibReadIndex(t, 50_000, nil, withHOPE)
		written := ks[:800] // well below one shard's 4,096-node merge trigger
		for i, k := range written {
			if !s.Update(k, uint64(i)+1) {
				t.Fatalf("Update(%q) refused", k)
			}
		}
		i := 0
		next := func() []byte {
			i++
			return written[i%len(written)]
		}
		for _, w := range []struct {
			name  string
			write func()
		}{
			{"Update", func() {
				if !s.Update(next(), 7) {
					t.Fatal("Update refused")
				}
			}},
			{"Delete+Insert", func() {
				k := next()
				if !s.Delete(k) || !s.Insert(k, 9) {
					t.Fatal("Delete or Insert refused")
				}
			}},
		} {
			if allocs := testing.AllocsPerRun(2000, w.write); allocs != 0 {
				t.Errorf("hope=%v %s: %.2f allocs per write, want 0", withHOPE, w.name, allocs)
			}
		}
	}
}
