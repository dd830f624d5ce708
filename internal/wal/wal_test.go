package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mets/internal/obs"
	"mets/internal/vfs"
)

func collect(t *testing.T, fs vfs.FS, dir string, minSeg uint64) ([][]byte, ReplayStats) {
	t.Helper()
	var recs [][]byte
	st, err := Replay(fs, dir, minSeg, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, fs, "wal", 0)
	if st.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, fs, "wal", 0)
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
}

// TestSlowestBatchIsTheRingsOnlyCommitRecord pins what a commit leaves
// behind: every ack lands in the group_commit histogram, and the ring gets a
// wal.batch record only for a batch that set that histogram's maximum — so
// the exemplar's span always resolves to the newest such record, and two
// hundred ordinary commits do not push the lifecycle out of the ring.
func TestSlowestBatchIsTheRingsOnlyCommitRecord(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(Options{FS: vfs.NewMemFS(), Dir: "wal", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := l.EnqueueTagged([]byte("rec"), fmt.Sprintf("k%d", i)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	h := snap.Histograms["wal.group_commit"]
	if h.Count != n || snap.Counters["wal.appends"] != n || h.Exemplar == nil {
		t.Fatalf("group_commit saw %d of %d acks (exemplar %v)", h.Count, n, h.Exemplar)
	}
	var batches []obs.Event
	for _, ev := range snap.Events {
		if ev.Type != "wal.batch" {
			t.Fatalf("unexpected record %+v", ev)
		}
		for _, k := range []string{"dur_ns", "write_ns", "fsync_ns", "records", "bytes"} {
			if _, ok := ev.Attr(k); !ok {
				t.Fatalf("wal.batch record without %s: %+v", k, ev)
			}
		}
		batches = append(batches, ev)
	}
	if len(batches) == 0 || len(batches) > n/4 {
		t.Fatalf("%d wal.batch records for %d commits, want the few that set a new maximum", len(batches), n)
	}
	if last := batches[len(batches)-1]; last.Span != h.Exemplar.SpanID {
		t.Fatalf("exemplar points at span %d, the newest wal.batch record is span %d", h.Exemplar.SpanID, last.Span)
	}
}

func TestSizeRotation(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected size rotation, got segments %v", segs)
	}
	got, _ := collect(t, fs, "wal", 0)
	if len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestExplicitRotateAndDeleteBelow(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("old-1"))
	l.Append([]byte("old-2"))
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("new-1"))
	// Replay from past the sealed segment sees only the new record.
	got, _ := collect(t, fs, "wal", sealed+1)
	if len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("post-rotate replay = %q", got)
	}
	if err := l.DeleteBelow(sealed + 1); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(fs, "wal")
	for _, s := range segs {
		if s <= sealed {
			t.Fatalf("segment %d survived DeleteBelow(%d)", s, sealed+1)
		}
	}
	got, _ = collect(t, fs, "wal", 0)
	if len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("full replay after truncation = %q", got)
	}
	l.Close()
}

func TestReopenContinuesNumbering(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := Open(Options{FS: fs, Dir: "wal"})
	l.Append([]byte("first"))
	first := l.Seq()
	l.Close()
	l2, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Seq() <= first {
		t.Fatalf("reopen segment %d not past %d", l2.Seq(), first)
	}
	l2.Append([]byte("second"))
	l2.Close()
	got, _ := collect(t, fs, "wal", 0)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay across restarts = %q", got)
	}
}

func TestTornTailStopsAtAckedPrefix(t *testing.T) {
	// Crash with unsynced bytes in TornTail mode: replay must recover every
	// acked record and stop cleanly at the torn frame.
	for seed := int64(1); seed <= 20; seed++ {
		fs := vfs.NewMemFS()
		l, err := Open(Options{FS: fs, Dir: "wal", Mode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			l.Append([]byte(fmt.Sprintf("acked-%d", i)))
		}
		if err := l.Sync(); err != nil { // acked-durable barrier
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			l.Append([]byte(fmt.Sprintf("risky-%d", i))) // written, not synced
		}
		fs.CrashAt(1, vfs.TornTail, seed)
		// Log dies on its next write; ignore the error.
		l.Append([]byte("boom"))
		fs.Recover()
		got, _ := collect(t, fs, "wal", 0)
		if len(got) < 5 {
			t.Fatalf("seed %d: lost acked records: got %d", seed, len(got))
		}
		for i := 0; i < 5; i++ {
			if string(got[i]) != fmt.Sprintf("acked-%d", i) {
				t.Fatalf("seed %d: record %d = %q", seed, i, got[i])
			}
		}
		// Any extra records must be the issued prefix, in order.
		for i := 5; i < len(got); i++ {
			if string(got[i]) != fmt.Sprintf("risky-%d", i-5) {
				t.Fatalf("seed %d: phantom record %q at %d", seed, got[i], i)
			}
		}
		l.Close()
	}
}

func TestCorruptTailDetected(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		fs := vfs.NewMemFS()
		l, _ := Open(Options{FS: fs, Dir: "wal", Mode: SyncNone})
		l.Append([]byte("acked"))
		l.Sync()
		l.Append([]byte("risky-record-with-some-length"))
		fs.CrashAt(1, vfs.CorruptTail, seed)
		l.Append([]byte("boom"))
		fs.Recover()
		got, st := collect(t, fs, "wal", 0)
		if len(got) < 1 || string(got[0]) != "acked" {
			t.Fatalf("seed %d: acked record lost: %q", seed, got)
		}
		// The corrupted risky record must either be dropped (CRC caught it:
		// torn) or — if the flipped bit landed in a frame not yet written —
		// absent entirely; it must never be replayed with altered contents.
		if len(got) > 1 {
			if string(got[1]) != "risky-record-with-some-length" {
				t.Fatalf("seed %d: corrupt record replayed: %q (stats %+v)", seed, got[1], st)
			}
		}
		l.Close()
	}
}

// TestRepairTornSegmentThenContinue pins the double-crash recovery path: a
// torn frame mid-segment must be truncated away by Repair so that records
// appended (and synced) into later segments after the recovery are still
// reached by the next replay. Without Repair, the second replay stops at
// the old torn frame and the new acked records are lost.
func TestRepairTornSegmentThenContinue(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte { return []byte(fmt.Sprintf("record-%03d", i)) }
	for i := 0; i < 5; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Tear the segment mid-frame: keep 2 whole frames plus 3 bytes.
	frame := int64(frameHeaderLen + len(rec(0)))
	seg := "wal/" + SegmentName(1)
	if err := fs.Truncate(seg, 2*frame+3); err != nil {
		t.Fatal(err)
	}

	// First recovery: replay stops at the torn frame; Repair commits the
	// truncation.
	got, st := collect(t, fs, "wal", 0)
	if !st.Torn || st.TornSegment != 1 || st.TornOffset != 2*frame {
		t.Fatalf("stats after tear = %+v, want torn seg 1 at %d", st, 2*frame)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	if err := Repair(fs, "wal", st); err != nil {
		t.Fatal(err)
	}
	if sz, err := fs.Size(seg); err != nil || sz != 2*frame {
		t.Fatalf("repaired segment size = %d,%v, want %d", sz, err, 2*frame)
	}

	// Post-recovery writes land in a new segment and are acked (fsynced).
	l2, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("after-crash-1")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("after-crash-2")); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	// Second recovery: the repaired segment reads cleanly to EOF, so replay
	// continues into the new segment — no acked write lost.
	got, st = collect(t, fs, "wal", 0)
	if st.Torn {
		t.Fatalf("replay after repair still torn: %+v", st)
	}
	want := []string{"record-000", "record-001", "after-crash-1", "after-crash-2"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %q, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, got[i], w)
		}
	}
}

// TestRepairQuarantinesUntrustedSuffix covers the out-of-band case: a torn
// frame in a non-final segment. Repair must move the later segments aside
// (they cannot be proven gap-free) before truncating, so a replay after
// repair sees exactly the valid prefix.
func TestRepairQuarantinesUntrustedSuffix(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("seg1-rec"))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("seg2-rec"))
	l.Close()
	// Corrupt the first segment's frame CRC (synced, mid-log damage).
	if err := fs.Corrupt("wal/"+SegmentName(1), 5, 0x01); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, fs, "wal", 0)
	if !st.Torn || st.TornSegment != 1 || len(got) != 0 {
		t.Fatalf("stats = %+v, records %q", st, got)
	}
	if err := Repair(fs, "wal", st); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("segments after repair = %v, want [1]", segs)
	}
	names, _ := fs.List("wal")
	foundQuarantine := false
	for _, n := range names {
		if n == SegmentName(2)+corruptSuffix {
			foundQuarantine = true
		}
	}
	if !foundQuarantine {
		t.Fatalf("segment 2 not quarantined: %v", names)
	}
	if got, st := collect(t, fs, "wal", 0); st.Torn || len(got) != 0 {
		t.Fatalf("replay after repair: torn=%v records=%q", st.Torn, got)
	}
}

func TestSyncBarrierAfterClose(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := Open(Options{FS: fs, Dir: "wal"})
	l.Close()
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on closed log = %v", err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log = %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate on closed log = %v", err)
	}
}

func TestStickyErrorAfterCrash(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := Open(Options{FS: fs, Dir: "wal"})
	l.Append([]byte("ok"))
	fs.CrashAt(1, vfs.DropUnsynced, 1)
	if err := l.Append([]byte("boom")); err == nil {
		t.Fatal("append on crashed fs succeeded")
	}
	if l.Err() == nil {
		t.Fatal("no sticky error")
	}
	if err := l.Append([]byte("later")); err == nil {
		t.Fatal("append after sticky error succeeded")
	}
}
