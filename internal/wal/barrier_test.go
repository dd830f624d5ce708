package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mets/internal/obs"
	"mets/internal/vfs"
)

// openCounted opens a log on a MemFS behind a vfs.SyncCounter, so a test can
// state how many File.Sync calls a step made.
func openCounted(t *testing.T, reg *obs.Registry) (*Log, *vfs.SyncCounter) {
	t.Helper()
	fs := &vfs.SyncCounter{FS: vfs.NewMemFS()}
	l, err := Open(Options{FS: fs, Dir: "wal", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return l, fs
}

// syncsDuring returns the number of File.Sync calls step made.
func syncsDuring(fs *vfs.SyncCounter, step func()) int64 {
	before := fs.Syncs()
	step()
	return fs.Syncs() - before
}

// TestBarrierSyncCounts pins the precise barrier by counts: a barrier fsyncs
// exactly when a record was enqueued since the last fsync, never otherwise.
func TestBarrierSyncCounts(t *testing.T) {
	reg := obs.NewRegistry()
	l, fs := openCounted(t, reg)
	mustSync := func() {
		t.Helper()
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n := syncsDuring(fs, mustSync); n != 0 {
		t.Fatalf("barrier on a fresh log made %d syncs, want 0", n)
	}
	if err := l.Enqueue([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if n := syncsDuring(fs, mustSync); n != 1 {
		t.Fatalf("barrier after one enqueue made %d syncs, want 1", n)
	}
	if n := syncsDuring(fs, mustSync); n != 0 {
		t.Fatalf("second barrier straight after made %d syncs, want 0", n)
	}
	// Rotate seals the records before it with its own fsync; a barrier after
	// it has nothing left to cover.
	l.Enqueue([]byte("two"))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if n := syncsDuring(fs, mustSync); n != 0 {
		t.Fatalf("barrier after Rotate made %d syncs, want 0", n)
	}
	// Start two barriers over the same dirty record: one fsync answers both.
	l.Enqueue([]byte("three"))
	if n := syncsDuring(fs, func() {
		a, b := l.StartSync(), l.StartSync()
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("two barriers over one dirty record made %d syncs, want 1", n)
	}
	if n := syncsDuring(fs, func() {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Close on a clean log made %d syncs, want 0", n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wal.fsyncs"]; got != fs.Syncs() {
		t.Fatalf("wal.fsyncs = %d, the files saw %d syncs", got, fs.Syncs())
	}
	// Three barriers found the log clean; of the two started together the
	// second counts as well if the first's fsync had finished by then.
	if got := snap.Counters["wal.syncs_elided"]; got != 3 && got != 4 {
		t.Fatalf("wal.syncs_elided = %d, want 3 or 4", got)
	}
}

// TestCloseSyncsUncoveredRecords is the other half of the clean-Close rule:
// Close is the last barrier, so a record no earlier one covered is fsynced.
func TestCloseSyncsUncoveredRecords(t *testing.T) {
	l, fs := openCounted(t, nil)
	l.Enqueue([]byte("buffered"))
	if n := syncsDuring(fs, func() {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Close with an uncovered record made %d syncs, want 1", n)
	}
}

// TestBarrierErrors: a failed or closed log answers the barrier with its
// error, in the one-step and the two-step form alike.
func TestBarrierErrors(t *testing.T) {
	mem := vfs.NewMemFS()
	l, err := Open(Options{FS: mem, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Enqueue([]byte("written")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("device gone")
	mem.FailSyncs(func(string) error { return boom })
	if err := l.StartSync().Wait(); !errors.Is(err, boom) {
		t.Fatalf("barrier over a failing fsync = %v, want %v", err, boom)
	}
	// The failure is sticky: the record is still uncovered, and a later
	// barrier must say so even though nothing new was enqueued.
	mem.FailSyncs(nil)
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("barrier after the sticky failure = %v, want %v", err, boom)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after the sticky failure = %v, want %v", err, boom)
	}
	if err := l.StartSync().Wait(); !errors.Is(err, boom) {
		t.Fatalf("barrier on a failed, closed log = %v, want %v", err, boom)
	}

	l2, _ := openCounted(t, nil)
	l2.Close()
	if err := l2.StartSync().Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("barrier on a closed log = %v, want ErrClosed", err)
	}
}

// TestBarrierCoversEarlierEnqueues races barriers against a writer: whatever
// the interleaving, every record whose Enqueue returned before StartSync was
// called must survive a crash that drops all unsynced bytes right after Wait
// returns. Run with -race -count=10.
func TestBarrierCoversEarlierEnqueues(t *testing.T) {
	const records = 400
	for round := 0; round < 20; round++ {
		mem := vfs.NewMemFS()
		// One segment throughout: a size rotation would fsync on its own and
		// cover records the barrier under test missed.
		l, err := Open(Options{FS: mem, Dir: "wal"})
		if err != nil {
			t.Fatal(err)
		}
		var enqueued atomic.Int64
		writer := make(chan struct{})
		go func() {
			defer close(writer)
			for i := 0; i < records; i++ {
				l.Enqueue([]byte(fmt.Sprintf("record-%04d", i)))
				enqueued.Add(1)
			}
		}()
		// A few barriers mid-stream (some find the log clean, some queue
		// behind a batch the committer already holds), then the one checked.
		var covered int64
		for i := 0; i <= round%4; i++ {
			for enqueued.Load() < int64(10*(i+1)) {
				runtime.Gosched()
			}
			covered = enqueued.Load()
			if err := l.StartSync().Wait(); err != nil {
				t.Fatalf("round %d: barrier: %v", round, err)
			}
		}
		mem.CrashAt(1, vfs.DropUnsynced, 1)
		mem.Create("trip") // fires the crash even if the writer has finished
		<-writer
		l.Close()
		mem.Recover()
		got, _ := collect(t, mem, "wal", 0)
		if int64(len(got)) < covered {
			t.Fatalf("round %d: %d records survived the crash, the barrier covered %d", round, len(got), covered)
		}
		for i, rec := range got {
			if want := fmt.Sprintf("record-%04d", i); string(rec) != want {
				t.Fatalf("round %d: survivor %d = %q, want %q", round, i, rec, want)
			}
		}
	}
}
