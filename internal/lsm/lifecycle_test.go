package lsm

import (
	"fmt"
	"strings"
	"testing"

	"mets/internal/keys"
	"mets/internal/obs"
)

// mustPut writes and requires success.
func mustPut(t *testing.T, db *DB, k, v string) {
	t.Helper()
	if err := db.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

// TestFlushCompactionCausality follows a flush through the one record
// stream, on the inline and the background path: the flush span's record has
// the seal/build/install durations, its seal and commit events carry its ID,
// and a compaction the flush triggered names it as parent, has the
// merge/install durations, and a commit event of its own under its ID.
func TestFlushCompactionCausality(t *testing.T) {
	for _, background := range []bool{false, true} {
		reg := obs.NewRegistry()
		// 1 KB MemTables: 400 puts make dozens of flushes and compactions.
		db := Open(Config{MemTableBytes: 1 << 10, BlockSize: 256, TargetTableBytes: 1 << 10,
			Obs: reg, BackgroundCompaction: background})
		for i := 0; i < 400; i++ {
			mustPut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
		}
		if err := db.Close(); err != nil { // waits for the background workers, whose last act is ending their span
			t.Fatal(err)
		}
		evs := reg.Snapshot().Events
		under := map[uint64]map[string]int{} // span ID -> types of the records carrying it
		types := map[string]int{}
		for _, ev := range evs {
			if under[ev.Span] == nil {
				under[ev.Span] = map[string]int{}
			}
			under[ev.Span][ev.Type]++
			types[ev.Type]++
		}
		followed := 0
		for _, ev := range evs {
			if ev.Type != "lsm.compaction" {
				continue
			}
			for _, k := range []string{"dur_ns", "merge_ns", "install_ns"} {
				if _, ok := ev.Attr(k); !ok {
					t.Fatalf("background=%v: compaction record without %s: %+v", background, k, ev)
				}
			}
			if under[ev.Span]["compaction.commit"] != 1 {
				t.Fatalf("background=%v: compaction span %d has records %v, want one commit event", background, ev.Span, under[ev.Span])
			}
			p, ok := ev.Attr("parent")
			if !ok {
				t.Fatalf("background=%v: compaction record names no parent: %+v", background, ev)
			}
			flush := under[uint64(p.Val)]
			if flush["lsm.flush"] == 0 {
				continue // the flush's own record has left the ring
			}
			if flush["lsm.flush"] != 1 || flush["flush.seal"] != 1 || flush["flush.commit"] != 1 {
				t.Fatalf("background=%v: records under flush span %d = %v, want one seal, one commit, one span record", background, p.Val, flush)
			}
			followed++
		}
		for _, ev := range evs {
			if ev.Type == "lsm.flush" {
				for _, k := range []string{"dur_ns", "seal_ns", "build_ns", "install_ns"} {
					if _, ok := ev.Attr(k); !ok {
						t.Fatalf("background=%v: flush record without %s: %+v", background, k, ev)
					}
				}
			}
		}
		if followed == 0 {
			t.Fatalf("background=%v: no compaction could be followed back to its flush; have %v", background, types)
		}
	}
}

// TestTombstonesDoNotResurrect is the tombstone pin: a delete-heavy
// workload, flushed and compacted across three levels, must never bring a
// deleted key back to Get or Seek — tombstones may only be dropped once the
// merge output is the bottom level. Level 1 holds 10 MB before it spills, so
// 14 MB of 1 KB values puts the oldest keys' only versions in level 2, below
// the level their tombstones are compacted into.
func TestTombstonesDoNotResurrect(t *testing.T) {
	db := Open(Config{MemTableBytes: 256 << 10, TargetTableBytes: 256 << 10})
	const n = 14000
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	old := strings.Repeat("o", 1000)
	for i := 0; i < n; i++ {
		mustPut(t, db, key(i), old)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.TablesAt(2) == 0 {
		t.Fatalf("%d levels, %d tables at level 2: no version reached level 2", db.NumLevels(), db.TablesAt(2))
	}
	// Delete every even key and rewrite every odd one, flushing often enough
	// that level 0 is compacted into level 1 while level 2 still holds the
	// old versions.
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if err := db.Delete([]byte(key(i))); err != nil {
				t.Fatal(err)
			}
		} else {
			mustPut(t, db, key(i), "new")
		}
		if i%(n/8) == n/8-1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := db.Get([]byte(key(i)))
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted key %s resurrected (value %.8q...)", key(i), v)
			}
		} else if !ok || string(v) != "new" {
			t.Fatalf("live key %s = (%.8q,%v)", key(i), v, ok)
		}
	}
	// Range reads skip deleted keys too: a Seek walk yields exactly the
	// odd keys, and a closed Seek over a deleted key alone finds nothing.
	lo, i := []byte{}, 1
	for e, ok := db.Seek(lo, nil); ok; e, ok = db.Seek(lo, nil) {
		if string(e.Key) != key(i) {
			t.Fatalf("Seek walk found %q, want %s", e.Key, key(i))
		}
		lo, i = keys.Next(e.Key), i+2
	}
	if i != n+1 {
		t.Fatalf("Seek walk stopped before %s", key(i))
	}
	if e, ok := db.Seek([]byte(key(0)), []byte(key(1))); ok {
		t.Fatalf("Seek found deleted key %q", e.Key)
	}
}
