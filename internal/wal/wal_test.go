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

// write enqueues recs and makes them durable with one barrier.
func write(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Enqueue([]byte(r)); err != nil {
			t.Fatalf("enqueue %q: %v", r, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestSegmentedNames(t *testing.T) {
	name := SegmentName(42)
	if name != "000042.wal" {
		t.Fatalf("name = %q", name)
	}
	seq, ok := parseSegmentName(name)
	if !ok || seq != 42 {
		t.Fatalf("parse = %d, %v", seq, ok)
	}
	if _, ok := parseSegmentName("x.wal"); ok {
		t.Fatal("parsed junk")
	}
	if _, ok := parseSegmentName(".wal"); ok {
		t.Fatal("parsed an empty sequence")
	}
	if _, ok := parseSegmentName("000042.sst"); ok {
		t.Fatal("parsed wrong extension")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 100; i++ {
		want = append(want, fmt.Sprintf("record-%03d", i))
	}
	write(t, l, want...)
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
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestGroupCommitConcurrentWriters: writers that each make every record
// durable before the next one share the committer; every record is replayed,
// each writer's in its own order.
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
				if err := l.Enqueue([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
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
	next := make([]int, writers)
	for _, rec := range got {
		var w, i int
		if _, err := fmt.Sscanf(string(rec), "w%d-%d", &w, &i); err != nil || w < 0 || w >= writers || i != next[w] {
			t.Fatalf("record %q out of order (writer %d expects %d)", rec, w, next[w])
		}
		next[w]++
	}
}

// TestOneBarrierIsOneCommit: what the group_commit histogram counts is
// barriers, not records — N records made durable by one Sync are N appends
// and one commit.
func TestOneBarrierIsOneCommit(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(Options{FS: vfs.NewMemFS(), Dir: "wal", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	recs := make([]string, n)
	for i := range recs {
		recs[i] = fmt.Sprintf("rec-%d", i)
	}
	write(t, l, recs...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if c, a := snap.Histograms["wal.group_commit"].Count, snap.Counters["wal.appends"]; c != 1 || a != n {
		t.Fatalf("group_commit count = %d, wal.appends = %d; want 1 and %d", c, a, n)
	}
}

// TestSlowestBatchIsTheRingsOnlyCommitRecord pins what a commit leaves
// behind: every barrier lands in the group_commit histogram, and the ring
// gets a wal.batch record only for a committer pass whose barrier set that
// histogram's maximum — so the exemplar's span always resolves to the newest
// such record, and two hundred ordinary commits do not push the lifecycle out
// of the ring.
func TestSlowestBatchIsTheRingsOnlyCommitRecord(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(Options{FS: vfs.NewMemFS(), Dir: "wal", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		write(t, l, "rec")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	h := snap.Histograms["wal.group_commit"]
	if h.Count != n || snap.Counters["wal.appends"] != n || h.Exemplar == nil {
		t.Fatalf("group_commit saw %d of %d barriers (exemplar %v)", h.Count, n, h.Exemplar)
	}
	var batches []obs.Event
	for _, ev := range snap.Events {
		if ev.Type != "wal.batch" {
			t.Fatalf("unexpected record %+v", ev)
		}
		for _, k := range []string{"dur_ns", "write_ns", "fsync_ns", "records", "bytes"} {
			if _, ok := attr(ev, k); !ok {
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
		if err := l.Enqueue(make([]byte, 32)); err != nil {
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
	l.Enqueue([]byte("old-1"))
	l.Enqueue([]byte("old-2"))
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	write(t, l, "new-1")
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
	l.Enqueue([]byte("first"))
	l.Close()
	l2, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	if segs, _ := ListSegments(fs, "wal"); len(segs) != 2 || segs[0] != 1 || segs[1] != 2 {
		t.Fatalf("segments after reopen = %v, want [1 2]", segs)
	}
	l2.Enqueue([]byte("second"))
	l2.Close()
	got, _ := collect(t, fs, "wal", 0)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay across restarts = %q", got)
	}
}

func TestTornTailStopsAtAckedPrefix(t *testing.T) {
	// Crash with unsynced bytes in TornTail mode: replay must recover every
	// record a barrier covered and stop cleanly at the torn frame.
	for seed := int64(1); seed <= 20; seed++ {
		fs := vfs.NewMemFS()
		l, err := Open(Options{FS: fs, Dir: "wal"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			write(t, l, fmt.Sprintf("acked-%d", i))
		}
		// Each record is one file write: the five risky records are written,
		// not synced, and the write of "boom" trips the crash.
		fs.CrashAt(6, vfs.TornTail, seed)
		for i := 0; i < 5; i++ {
			l.Enqueue([]byte(fmt.Sprintf("risky-%d", i)))
		}
		l.Enqueue([]byte("boom"))
		if err := l.Sync(); err == nil {
			t.Fatalf("seed %d: barrier over a crashed write succeeded", seed)
		}
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
		l, _ := Open(Options{FS: fs, Dir: "wal"})
		write(t, l, "acked")
		fs.CrashAt(2, vfs.CorruptTail, seed) // the risky write lands, "boom" trips
		l.Enqueue([]byte("risky-record-with-some-length"))
		l.Enqueue([]byte("boom"))
		l.Sync()
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
// the old torn frame and the new durable records are lost.
func TestRepairTornSegmentThenContinue(t *testing.T) {
	fs := vfs.NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) string { return fmt.Sprintf("record-%03d", i) }
	for i := 0; i < 5; i++ {
		write(t, l, rec(i))
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
	if sz, err := fileSize(fs, seg); err != nil || sz != 2*frame {
		t.Fatalf("repaired segment size = %d,%v, want %d", sz, err, 2*frame)
	}

	// Post-recovery writes land in a new segment and are fsynced.
	l2, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	write(t, l2, "after-crash-1", "after-crash-2")
	l2.Close()

	// Second recovery: the repaired segment reads cleanly to EOF, so replay
	// continues into the new segment — no durable write lost.
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
	l.Enqueue([]byte("seg1-rec"))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Enqueue([]byte("seg2-rec"))
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
	if err := l.Enqueue([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue on closed log = %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate on closed log = %v", err)
	}
}

func TestStickyErrorAfterCrash(t *testing.T) {
	fs := vfs.NewMemFS()
	l, _ := Open(Options{FS: fs, Dir: "wal"})
	write(t, l, "ok")
	fs.CrashAt(1, vfs.DropUnsynced, 1)
	l.Enqueue([]byte("boom"))
	if err := l.Sync(); err == nil {
		t.Fatal("barrier on crashed fs succeeded")
	}
	if l.Err() == nil {
		t.Fatal("no sticky error")
	}
	if err := l.Enqueue([]byte("later")); err == nil {
		t.Fatal("enqueue after sticky error succeeded")
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

// attr returns ev's first attribute named key and whether it has one.
func attr(ev obs.Event, key string) (obs.Attr, bool) {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return obs.Attr{}, false
}
