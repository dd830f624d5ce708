package hybrid

import (
	"fmt"
	"path"
	"testing"
	"time"

	"mets/internal/dstest"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/vfs"
	"mets/internal/wal"
)

// journalIndex is what the journal workload drives: an index, or an index
// behind an encodedIndex.
type journalIndex interface {
	dstest.Index
	Len() int
}

// driveJournalWorkload applies a deterministic mix of inserts, updates, and
// deletes and returns the expected surviving state.
func driveJournalWorkload(h journalIndex, n int) map[string]uint64 {
	want := map[string]uint64{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i%((n/2)+1))
		switch {
		case i%7 == 3:
			if h.Delete([]byte(k)) {
				delete(want, k)
			}
		case i%3 == 1:
			if h.Update([]byte(k), uint64(i)*10) {
				want[k] = uint64(i) * 10
			}
		default:
			if h.Insert([]byte(k), uint64(i)) {
				want[k] = uint64(i)
			}
		}
	}
	return want
}

func checkJournalState(t *testing.T, h journalIndex, want map[string]uint64) {
	t.Helper()
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(want))
	}
	for k, v := range want {
		got, ok := h.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%q) = (%d,%v), want %d", k, got, ok, v)
		}
	}
	seen := 0
	var prev []byte
	h.Scan(nil, func(k []byte, v uint64) bool {
		if w, ok := want[string(k)]; !ok || w != v {
			t.Fatalf("scan saw (%q,%d), oracle (%d,%v)", k, v, want[string(k)], ok)
		}
		if seen > 0 && keys.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("scan visited %d entries, want %d", seen, len(want))
	}
}

// TestJournalReplayRoundTrip pins the durability contract of the op journal:
// close after a workload, reopen the same directory, and the full state is
// back — in lock mode, epoch mode, and with background merges.
func TestJournalReplayRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"lock", Config{MergeRatio: 2, MinDynamic: 16}},
		{"epoch", Config{MergeRatio: 2, MinDynamic: 16, EpochReads: true}},
		{"background", Config{MergeRatio: 2, MinDynamic: 16, BackgroundMerge: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := tc.cfg
			cfg.Dir = "idx"
			cfg.FS = fs
			h := NewBTree(cfg)
			want := driveJournalWorkload(h, 400)
			if err := h.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			h2 := NewBTree(cfg)
			defer h2.Close()
			if got := h2.JournalRecovery.Records; got == 0 {
				t.Fatal("reopen replayed no journal records")
			}
			checkJournalState(t, h2, want)
		})
	}
}

// TestJournalWithCodec reopens a journaled index that stores HOPE-encoded
// keys, as a sharded index's shards do: records hold the keys as the index
// was given them, and replay hands them back unchanged.
func TestJournalWithCodec(t *testing.T) {
	codec := testCodec(t)
	fs := vfs.NewMemFS()
	cfg := Config{MergeRatio: 2, MinDynamic: 16, Dir: "idx", FS: fs}
	h := NewBTree(cfg)
	want := driveJournalWorkload(encodedIndex{h, codec}, 300)
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	h2 := NewBTree(cfg)
	defer h2.Close()
	checkJournalState(t, encodedIndex{h2, codec}, want)
}

// TestJournalBulkLoadReset pins that BulkLoad restarts the journal: the
// reopened index holds exactly the loaded entries plus post-load writes,
// with none of the pre-load history resurrected.
func TestJournalBulkLoadReset(t *testing.T) {
	for _, epochs := range []bool{false, true} {
		t.Run(fmt.Sprintf("epoch=%v", epochs), func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Config{MergeRatio: 2, MinDynamic: 16, EpochReads: epochs, Dir: "idx", FS: fs}
			h := NewBTree(cfg)
			driveJournalWorkload(h, 200) // pre-load history, must vanish
			var entries []index.Entry
			want := map[string]uint64{}
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("load-%04d", i)
				entries = append(entries, index.Entry{Key: []byte(k), Value: uint64(i)})
				want[k] = uint64(i)
			}
			if err := h.BulkLoad(entries); err != nil {
				t.Fatal(err)
			}
			h.Insert([]byte("post-load"), 999)
			want["post-load"] = 999
			if err := h.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			h2 := NewBTree(cfg)
			defer h2.Close()
			checkJournalState(t, h2, want)
		})
	}
}

// kv is one journaled insert.
type kv struct {
	k string
	v uint64
}

func kvRange(prefix string, n int) (m map[string]uint64, list []kv, entries []index.Entry) {
	m = map[string]uint64{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s-%04d", prefix, i)
		m[k] = uint64(i)
		list = append(list, kv{k, uint64(i)})
		entries = append(entries, index.Entry{Key: []byte(k), Value: uint64(i)})
	}
	return m, list, entries
}

func contents(h *Index) map[string]uint64 {
	got := map[string]uint64{}
	h.Scan(nil, func(k []byte, v uint64) bool { got[string(k)] = v; return true })
	return got
}

// isBasePlusPrefix reports whether got is exactly base plus the first n of
// suffix, for some n: a durable state and what a crash kept of the unsynced
// inserts that followed it — the only shape the prefix contract allows.
func isBasePlusPrefix(got, base map[string]uint64, suffix []kv) bool {
	n := len(got) - len(base)
	if n < 0 || n > len(suffix) {
		return false
	}
	for k, v := range base {
		if gv, ok := got[k]; !ok || gv != v {
			return false
		}
	}
	for _, e := range suffix[:n] {
		if gv, ok := got[e.k]; !ok || gv != e.v {
			return false
		}
	}
	return true
}

// crashedBulkLoad is one crash round on a fresh handle over cfg: unsynced
// tail inserts, a BulkLoad with a crash armed at the k-th filesystem op from
// here, unsynced post inserts and a barrier; then the power goes — at the
// latest now, over one more unsynced write — and the filesystem recovers.
// fired reports whether the armed crash went off before the round had done
// all its I/O.
func crashedBulkLoad(fs *vfs.MemFS, cfg Config, k int64, mode vfs.CrashMode, tail []kv, load []index.Entry, post []kv) (fired bool) {
	h := NewBTree(cfg)
	for _, e := range tail {
		h.Insert([]byte(e.k), e.v)
	}
	fs.CrashAt(k, mode, k)
	h.BulkLoad(load) // its error, if any, is the crash
	for _, e := range post {
		h.Insert([]byte(e.k), e.v)
	}
	h.StartJournalSync().Wait()
	if fired = fs.Crashed(); !fired {
		h.Update(load[0].Key, load[0].Value)
		fs.CrashAt(1, mode, k)
		fs.Create("trip")
	}
	h.Close() // stops the committer; on the crashed filesystem it writes nothing
	fs.Recover()
	return fired
}

// TestJournalBulkLoadCrashAtomic is the crash sweep over the journal reset: a
// crash at every k-th filesystem op of a BulkLoad, in drop, torn and corrupt
// modes, over a journal of three pre-existing segments. The reopened index
// must hold exactly the pre-load state (minus at most an unsynced suffix of
// it) or exactly the loaded entries (plus a prefix of later writes) — never a
// mix, a head-less history or nothing. Each first-round crash is followed by a
// second round over the recovered directory, crashed at an op that moves with
// k, which must land on the same dichotomy one state later.
func TestJournalBulkLoadCrashAtomic(t *testing.T) {
	pre := map[string]uint64{}
	for s := 0; s < 3; s++ {
		for i := 0; i < 50; i++ {
			pre[fmt.Sprintf("pre%d-%04d", s, i)] = uint64(i)
		}
	}
	_, tail, _ := kvRange("tail", 10)
	loaded, _, load := kvRange("load", 120)
	_, post, _ := kvRange("post", 5)
	reloaded, _, reload := kvRange("reload", 40)

	for _, mode := range []vfs.CrashMode{vfs.DropUnsynced, vfs.TornTail, vfs.CorruptTail} {
		for k, fired := int64(1), true; fired; k++ {
			fs := vfs.NewMemFS()
			cfg := Config{MergeRatio: 2, MinDynamic: 16, Dir: "idx", FS: fs, EpochReads: true}
			// Three open/insert/close sessions: segments 1-3 hold the history.
			for s := 0; s < 3; s++ {
				h := NewBTree(cfg)
				for i := 0; i < 50; i++ {
					h.Insert([]byte(fmt.Sprintf("pre%d-%04d", s, i)), uint64(i))
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			}

			fired = crashedBulkLoad(fs, cfg, k, mode, tail, load, post)
			h := NewBTree(cfg)
			state := contents(h)
			isLoaded := isBasePlusPrefix(state, loaded, post)
			if len(state) != h.Len() || !isLoaded && !isBasePlusPrefix(state, pre, tail) {
				t.Fatalf("%v, crash at op %d: reopened with %d entries (Len %d) — neither the pre-load state nor the loaded one",
					mode, k, len(state), h.Len())
			}
			if !fired && !isLoaded {
				t.Fatalf("%v: BulkLoad finished before op %d, yet the reopened index is not the loaded one", mode, k)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}

			k2 := 1 + k*7%60
			crashedBulkLoad(fs, cfg, k2, mode, nil, reload, nil)
			h = NewBTree(cfg)
			again := contents(h)
			if len(again) != h.Len() || !isBasePlusPrefix(again, reloaded, nil) && !isBasePlusPrefix(again, state, nil) {
				t.Fatalf("%v, crashes at ops %d then %d: reopened with %d entries — neither the first recovery's state nor the second load",
					mode, k, k2, len(again))
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestJournalErrSurfacesWriteFailure pins that a fire-and-forget journal
// append failure is not silent: the log's sticky error must become visible
// through JournalErr before the next explicit barrier, and the barrier must
// return it.
func TestJournalErrSurfacesWriteFailure(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Config{MergeRatio: 2, MinDynamic: 16, Dir: "idx", FS: fs}
	h := NewBTree(cfg)
	defer h.Close()
	h.Insert([]byte("before"), 1)
	if err := h.StartJournalSync().Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h.JournalErr(); err != nil {
		t.Fatalf("healthy journal reports %v", err)
	}
	// Every journal write from here on fails; the op still mutates the
	// in-memory index (the API has no error channel), but the divergence
	// must be observable without waiting for Close.
	fs.CrashAt(1, vfs.DropUnsynced, 7)
	h.Insert([]byte("unjournaled"), 2)
	deadline := time.Now().Add(5 * time.Second)
	for h.JournalErr() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // committer fails asynchronously
	}
	if h.JournalErr() == nil {
		t.Fatal("JournalErr still nil after failed append")
	}
	if err := h.StartJournalSync().Wait(); err == nil {
		t.Fatal("the barrier succeeded on a failed journal")
	}
	if _, ok := h.Get([]byte("unjournaled")); !ok {
		t.Fatal("in-memory op lost (only its journaling should fail)")
	}
}

// TestJournalSurvivesSecondCrash is the double-crash case: a torn-tail
// crash, recovery (which must repair the torn segment), more ops synced
// through the explicit barrier, and a second crash. The ops synced after the first recovery must replay — an
// unrepaired torn frame in the older segment would strand them.
func TestJournalSurvivesSecondCrash(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		fs := vfs.NewMemFS()
		cfg := Config{MergeRatio: 2, MinDynamic: 16, Dir: "idx", FS: fs}
		h := NewBTree(cfg)
		for i := 0; i < 50; i++ {
			h.Insert([]byte(fmt.Sprintf("old-%04d", i)), uint64(i))
		}
		if err := h.StartJournalSync().Wait(); err != nil {
			t.Fatal(err)
		}
		seg := path.Join("idx", wal.SegmentName(1))
		syncedSize, err := fileSize(fs, seg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 50; i < 80; i++ {
			h.Insert([]byte(fmt.Sprintf("old-%04d", i)), uint64(i)) // unsynced
		}
		// Wait until the async committer has written (not synced) the tail,
		// so Recover below has bytes to tear.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if sz, err := fileSize(fs, seg); err == nil && sz > syncedSize {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("journal tail never reached the filesystem")
			}
			time.Sleep(time.Millisecond)
		}
		fs.CrashAt(1, vfs.TornTail, seed)
		fs.Create("trip") // trip the armed crash deterministically
		fs.Recover()      // tears the unsynced journal tail

		h2 := NewBTree(cfg)
		for i := 0; i < 20; i++ {
			h2.Insert([]byte(fmt.Sprintf("new-%04d", i)), uint64(1000+i))
		}
		if err := h2.StartJournalSync().Wait(); err != nil { // durability barrier: acked
			t.Fatal(err)
		}
		fs.CrashAt(1, vfs.DropUnsynced, seed)
		fs.Create("trip2")
		fs.Recover()

		h3 := NewBTree(cfg)
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("old-%04d", i)
			if v, ok := h3.Get([]byte(k)); !ok || v != uint64(i) {
				t.Fatalf("seed %d: synced pre-crash op %q = (%d,%v)", seed, k, v, ok)
			}
		}
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("new-%04d", i)
			if v, ok := h3.Get([]byte(k)); !ok || v != uint64(1000+i) {
				t.Fatalf("seed %d: op %q synced after first recovery lost: (%d,%v)", seed, k, v, ok)
			}
		}
		h3.Close()
	}
}

// TestJournalTornTailLosesOnlySuffix crashes the filesystem without a final
// sync: an op is durable only once a barrier covers it, so recovery may lose recent ops
// but must come back to a clean prefix of the applied stream.
func TestJournalTornTailLosesOnlySuffix(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Config{MergeRatio: 2, MinDynamic: 16, Dir: "idx", FS: fs}
	h := NewBTree(cfg)
	type op struct {
		key string
		val uint64
	}
	var applied []op
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		h.Insert([]byte(k), uint64(i))
		applied = append(applied, op{k, uint64(i)})
		if i == 100 {
			if err := h.StartJournalSync().Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Simulate a crash: drop every unsynced byte, then recover and reopen.
	fs.CrashAt(1, vfs.DropUnsynced, 42)
	fs.Create("trip") // trip the armed crash on the next mutating op
	fs.Recover()
	h2 := NewBTree(cfg)
	defer h2.Close()
	n := h2.Len()
	if n < 101 {
		t.Fatalf("recovered %d entries, synced prefix had 101", n)
	}
	for i := 0; i < n; i++ {
		got, ok := h2.Get([]byte(applied[i].key))
		if !ok || got != applied[i].val {
			t.Fatalf("recovered state is not a prefix: Get(%q) = (%d,%v), want %d (len=%d)",
				applied[i].key, got, ok, applied[i].val, n)
		}
	}
}

// fileSize is the size of name as a reader of fs sees it.
func fileSize(fs vfs.FS, name string) (int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Size(), nil
}
