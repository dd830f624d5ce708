package lsm

import (
	"fmt"
	"path"
	"strings"
	"testing"

	"mets/internal/obs"
	"mets/internal/vfs"
)

// readDump reads and parses the engine's flightrec.json.
func readDump(t *testing.T, fs vfs.FS) *obs.FlightDump {
	t.Helper()
	data, err := vfs.ReadFileAll(fs, path.Join("data", FlightRecName))
	if err != nil {
		t.Fatalf("read flight dump: %v", err)
	}
	d, err := obs.ParseFlightDump(data)
	if err != nil {
		t.Fatalf("parse flight dump: %v", err)
	}
	return d
}

// eventTypes collects the distinct event types in a dump.
func eventTypes(d *obs.FlightDump) map[string]int {
	m := make(map[string]int)
	for _, ev := range d.Events {
		m[ev.Type]++
	}
	return m
}

// TestDurableFlightRecorder pins the flight-recorder lifecycle on the
// durable engine: Close dumps a postmortem whose events tell the engine's
// story (recovery, WAL batches, flush and manifest commits, close), and a
// reopen's recovery dump records the replay it performed.
func TestDurableFlightRecorder(t *testing.T) {
	fs := vfs.NewMemFS()
	// A WAL batch is recorded when it holds the slowest commit the
	// group_commit histogram has seen, so the log needs a registry to keep
	// that histogram in (the first commit is always the slowest so far).
	cfg := tinyDurableConfig(fs)
	cfg.Obs = obs.NewRegistry()
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		durablePut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	d := readDump(t, fs)
	if d.Reason != "close" {
		t.Fatalf("dump reason = %q, want close", d.Reason)
	}
	types := eventTypes(d)
	// The tiny config forces flushes and WAL activity inside 120 ops; their
	// commit events must be in the ring, and the final event is the close.
	for _, want := range []string{"recovery.fresh", "wal.batch", "flush.commit", "manifest.commit", "close"} {
		if types[want] == 0 {
			t.Fatalf("dump missing %q events; have %v", want, types)
		}
	}
	if last := d.Events[len(d.Events)-1]; last.Type != "close" {
		t.Fatalf("last event = %q, want close", last.Type)
	}

	// Reopen: the recovery dump must describe the manifest it loaded and the
	// WAL replay it performed.
	db2, err := OpenDurable(tinyDurableConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	d2 := readDump(t, fs)
	if d2.Reason != "recovery" {
		t.Fatalf("post-reopen dump reason = %q, want recovery", d2.Reason)
	}
	types = eventTypes(d2)
	if types["recovery.manifest"] == 0 || types["wal.replay"] == 0 {
		t.Fatalf("recovery dump missing manifest/replay events; have %v", types)
	}
	db2.Close()
}

// TestFlushCompactionCausality follows a flush through the one record
// stream, on the inline and the background path: the flush span's record has
// the seal/build/install durations, its seal and commit events carry its ID,
// and a compaction the flush triggered names it as parent, has the
// merge/install durations, and a commit event of its own under its ID.
func TestFlushCompactionCausality(t *testing.T) {
	for _, background := range []bool{false, true} {
		reg := obs.NewRegistry()
		cfg := tinyDurableConfig(vfs.NewMemFS())
		cfg.Obs, cfg.BackgroundCompaction = reg, background
		db, err := OpenDurable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			durablePut(t, db, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
		}
		if err := db.Close(); err != nil { // waits for the background workers, whose last act is ending their span
			t.Fatal(err)
		}
		evs := reg.Snapshot().Events
		under := map[uint64]map[string]int{} // span ID -> types of the records carrying it
		for _, ev := range evs {
			if under[ev.Span] == nil {
				under[ev.Span] = map[string]int{}
			}
			under[ev.Span][ev.Type]++
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
			t.Fatalf("background=%v: no compaction could be followed back to its flush; have %v",
				background, eventTypes(&obs.FlightDump{Events: evs}))
		}
	}
}

// TestDurableFlightRecorderQuarantine pins that a quarantined table file
// leaves its trace in the recovery dump.
func TestDurableFlightRecorderQuarantine(t *testing.T) {
	fs := vfs.NewMemFS()
	fillAndClose(t, fs, 200)
	names, _ := fs.List("data")
	var sst string
	for _, n := range names {
		if strings.HasSuffix(n, sstExt) {
			sst = n
			break
		}
	}
	if sst == "" {
		t.Fatalf("no table files in %v", names)
	}
	if err := fs.Corrupt(path.Join("data", sst), 13, 0x40); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDurable(tinyDurableConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := readDump(t, fs)
	found := false
	for _, ev := range d.Events {
		if ev.Type == "lsm.quarantine" {
			found = true
			for _, a := range ev.Attrs {
				if a.Key == "file" && a.Str != sst {
					t.Fatalf("quarantine event names %q, corrupted %q", a.Str, sst)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no lsm.quarantine event in recovery dump; have %v", eventTypes(d))
	}
	if q, err := db.Recovery.Quarantined, db.Err(); q != 1 || err != nil {
		t.Fatalf("Recovery.Quarantined = %d, Err = %v; want healthy with 1 quarantined", q, err)
	}
}

// TestDurableHealth pins the health surface: a fresh durable engine is
// healthy and not backlogged, WAL segments that no flush retires make it
// backlogged past maxBacklogSegments and a flush clears that, and a sticky
// durable error (here: Close) turns Err on with the error text attached.
func TestDurableHealth(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := tinyDurableConfig(fs)
	cfg.MemTableBytes = 1 << 20 // no automatic flush: every WAL segment stays live
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Err(); err != nil || db.Backlogged() {
		t.Fatalf("fresh: Err = %v, Backlogged = %v", err, db.Backlogged())
	}
	for i := 0; !db.Backlogged(); i++ {
		if i == 1000 {
			t.Fatal("1000 unflushed puts over 2 KiB WAL segments never backlogged the DB")
		}
		durablePut(t, db, fmt.Sprintf("k%04d", i), strings.Repeat("v", 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Backlogged() {
		t.Fatal("still backlogged after a flush retired the WAL segments")
	}
	db.Close()
	if err := db.Err(); err == nil || err.Error() == "" {
		t.Fatalf("closed: Err = %v, want a sticky error with text", err)
	}

	// In-memory engines are healthy with no WAL backlog.
	mem := Open(Config{})
	if err := mem.Err(); err != nil || mem.Backlogged() {
		t.Fatalf("in-memory: Err = %v, Backlogged = %v", err, mem.Backlogged())
	}
	mem.Close()
}
