package sharded

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mets/internal/hybrid"
	"mets/internal/obs"
	"mets/internal/vfs"
)

// durableConfig is an 8-shard journaled index on fs (UniformRouter: a key's
// first byte picks its shard, 32 byte values to a shard).
func durableConfig(fs vfs.FS) Config {
	hc := hybrid.DefaultConfig()
	hc.FS = fs
	return Config{Shards: 8, Hybrid: hc, Dir: "data"}
}

// keyIn returns the n-th test key of shard sh under an 8-way UniformRouter.
func keyIn(sh, n int) []byte {
	return append([]byte{byte(sh*32 + 1)}, fmt.Sprintf("key-%04d", n)...)
}

// TestSyncJournalsSyncsOnlyDirtyShards pins the precise barrier by counts:
// a barrier after writes that landed in k shards makes exactly k file syncs,
// and a barrier with nothing new makes none.
func TestSyncJournalsSyncsOnlyDirtyShards(t *testing.T) {
	fs := &vfs.SyncCounter{FS: vfs.NewMemFS()}
	s := New(durableConfig(fs))
	defer s.Close()
	n := 0
	for _, dirty := range [][]int{{5}, {1, 4, 6}, {0, 1, 2, 3, 4, 5, 6, 7}, {}} {
		for _, sh := range dirty {
			for j := 0; j < 3; j++ { // several ops, still one sync per shard
				n++
				k := keyIn(sh, n)
				if got := shardOf(s, k); got != sh {
					t.Fatalf("key %q routed to shard %d, want %d", k, got, sh)
				}
				s.Insert(k, uint64(n))
			}
		}
		before := fs.Syncs()
		if err := s.SyncJournals(); err != nil {
			t.Fatal(err)
		}
		if got := fs.Syncs() - before; got != int64(len(dirty)) {
			t.Fatalf("barrier after writes to shards %v made %d file syncs, want %d", dirty, got, len(dirty))
		}
	}
}

// TestSyncJournalsAwaitsEveryShardOnFailure: with two shard journals failing,
// the barrier still waits for all eight (every file sync has been attempted
// when it returns, and the healthy shards' ops survive a crash), reports the
// failure of the lower shard, and the failure is sticky in JournalErr.
func TestSyncJournalsAwaitsEveryShardOnFailure(t *testing.T) {
	mem := vfs.NewMemFS()
	cfg := durableConfig(mem)
	s := New(cfg)
	for sh := 0; sh < 8; sh++ {
		s.Insert(keyIn(sh, 0), uint64(sh))
	}
	errLow, errHigh := errors.New("shard 2 device gone"), errors.New("shard 5 device gone")
	// journalSyncs counts the segment syncs attempted (MemFS calls failing
	// under its lock); the failed shards' flight-recorder dumps sync too.
	journalSyncs := 0
	failing := func(name string) error {
		if strings.HasSuffix(name, ".wal") {
			journalSyncs++
		}
		switch name {
		case "data/shard002/000001.wal":
			return errLow
		case "data/shard005/000001.wal":
			return errHigh
		}
		return nil
	}
	mem.FailSyncs(failing)
	err := s.SyncJournals()
	if !errors.Is(err, errLow) {
		t.Fatalf("SyncJournals = %v, want the lower failing shard's %v", err, errLow)
	}
	if journalSyncs != 8 {
		t.Fatalf("SyncJournals returned after %d journal syncs, want all 8 attempted", journalSyncs)
	}
	if err := s.JournalErr(); !errors.Is(err, errLow) || err.Error() != errLow.Error() {
		t.Fatalf("JournalErr = %v, want %v", err, errLow)
	}
	// Later barriers keep failing, without touching the healthy journals.
	if err := s.SyncJournals(); !errors.Is(err, errLow) {
		t.Fatalf("second SyncJournals = %v, want %v", err, errLow)
	}
	if journalSyncs != 8 {
		t.Fatalf("second SyncJournals made %d journal syncs, want 0", journalSyncs-8)
	}

	// Power cut: what the six healthy barriers covered is there afterwards.
	mem.CrashAt(1, vfs.DropUnsynced, 1)
	mem.Create("trip")
	s.Close()
	mem.FailSyncs(nil)
	mem.Recover()
	s2 := New(cfg)
	defer s2.Close()
	for sh := 0; sh < 8; sh++ {
		v, ok := s2.Get(keyIn(sh, 0))
		if sh == 2 || sh == 5 {
			if ok {
				t.Fatalf("shard %d's op survived although its fsync failed", sh)
			}
			continue
		}
		if !ok || v != uint64(sh) {
			t.Fatalf("shard %d's op lost although its barrier was awaited: (%d,%v)", sh, v, ok)
		}
	}
}

// TestParallelShardRecovery reopens a journaled index whose shards replay
// side by side, with a metrics registry attached (the shards register their
// counters concurrently). Run with -race.
func TestParallelShardRecovery(t *testing.T) {
	mem := vfs.NewMemFS()
	cfg := durableConfig(mem)
	cfg.Obs = obs.NewRegistry()
	s := New(cfg)
	const perShard = 300
	for sh := 0; sh < 8; sh++ {
		for j := 0; j < perShard; j++ {
			s.Insert(keyIn(sh, j), uint64(sh*perShard+j))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	s2 := New(cfg)
	defer s2.Close()
	if got := s2.Len(); got != 8*perShard {
		t.Fatalf("reopened Len = %d, want %d", got, 8*perShard)
	}
	for sh := 0; sh < 8; sh++ {
		for j := 0; j < perShard; j += 37 {
			if v, ok := s2.Get(keyIn(sh, j)); !ok || v != uint64(sh*perShard+j) {
				t.Fatalf("Get(shard %d, key %d) = (%d,%v) after reopen", sh, j, v, ok)
			}
		}
	}
	if _, ok := cfg.Obs.Snapshot().Counters["shard7.wal.fsyncs"]; !ok {
		t.Fatal("shard 7's journal counters are missing from the registry")
	}
}

// TestShardOpenFailurePanicsOnCaller: a shard that cannot open its journal
// panics in hybrid.New; with the shards opening on goroutines of their own
// that panic must still reach the goroutine that called New.
func TestShardOpenFailurePanicsOnCaller(t *testing.T) {
	mem := vfs.NewMemFS()
	mem.CrashAt(1, vfs.DropUnsynced, 1) // the first segment Create fails
	defer func() {
		if recover() == nil {
			t.Fatal("New on a filesystem that refuses every write did not panic")
		}
	}()
	New(durableConfig(mem))
}
