package hybrid

import (
	"path"
	"testing"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/vfs"
)

// readHybridDump reads and parses the index's flightrec.json.
func readHybridDump(t *testing.T, fs vfs.FS, dir string) *obs.FlightDump {
	t.Helper()
	data, err := vfs.ReadFileAll(fs, path.Join(dir, "flightrec.json"))
	if err != nil {
		t.Fatalf("read flight dump: %v", err)
	}
	d, err := obs.ParseFlightDump(data)
	if err != nil {
		t.Fatalf("parse flight dump: %v", err)
	}
	return d
}

// TestJournalFlightRecorder pins the hybrid index's flight-recorder
// lifecycle: Close dumps a postmortem whose events cover the merges that
// ran, and a reopen's recovery dump records the journal replay.
func TestJournalFlightRecorder(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Config{MergeRatio: 2, MinDynamic: 16, Dir: "idx", FS: fs}
	h := NewBTree(cfg)
	driveJournalWorkload(h, 400)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	d := readHybridDump(t, fs, "idx")
	if d.Reason != "close" {
		t.Fatalf("dump reason = %q, want close", d.Reason)
	}
	types := map[string]int{}
	for _, ev := range d.Events {
		types[ev.Type]++
	}
	// MinDynamic 16 under a 400-op workload forces merges; their commits
	// must be in the ring, and the final event is the close.
	if types["merge.commit"] == 0 || types["close"] == 0 {
		t.Fatalf("dump missing merge.commit/close events; have %v", types)
	}
	if last := d.Events[len(d.Events)-1]; last.Type != "close" {
		t.Fatalf("last event = %q, want close", last.Type)
	}

	h2 := NewBTree(cfg)
	defer h2.Close()
	d2 := readHybridDump(t, fs, "idx")
	if d2.Reason != "recovery" {
		t.Fatalf("post-reopen dump reason = %q, want recovery", d2.Reason)
	}
	found := false
	for _, ev := range d2.Events {
		if ev.Type == "journal.replay" {
			found = true
			for _, a := range ev.Attrs {
				if a.Key == "records" && a.Val == 0 {
					t.Fatal("journal.replay records = 0 after a 400-op workload")
				}
			}
		}
	}
	if !found {
		t.Fatal("no journal.replay event in recovery dump")
	}
}

// TestJournalHealth pins the hybrid health surface: healthy journal, merge
// trigger visibility, and the aggregate merge-behind accounting.
func TestJournalHealth(t *testing.T) {
	// No merges configured below MinDynamic: healthy and not behind.
	h := NewBTree(Config{MergeRatio: 2, MinDynamic: 1 << 20})
	for i := 0; i < 100; i++ {
		h.Insert([]byte{byte(i >> 8), byte(i)}, uint64(i))
	}
	if err := h.JournalErr(); err != nil || h.MergeBehind() {
		t.Fatalf("below-trigger: JournalErr = %v, MergeBehind = %v", err, h.MergeBehind())
	}
	if n := h.DynamicLen(); n != 100 {
		t.Fatalf("DynamicLen = %d, want 100", n)
	}

	// The trigger fires inline on the write that crosses it, so a behind
	// state only shows between a background seal and its merge landing (or
	// after tombstone churn, TestMergeBehindMatchesTrigger). Construct it
	// white-box: load the dynamic stage under a huge
	// MinDynamic, then lower the trigger under the accumulated entries.
	h2 := NewBTree(Config{MergeRatio: 2, MinDynamic: 1 << 20})
	for i := 0; i < 100; i++ {
		h2.Insert([]byte{byte(i >> 8), byte(i)}, uint64(i))
	}
	h2.cfg.MinDynamic = 16
	if !h2.MergeBehind() {
		t.Fatal("past-trigger: MergeBehind = false")
	}
	h2.Merge()
	if h2.MergeBehind() {
		t.Fatal("post-merge: MergeBehind = true")
	}

	// An empty index is never behind.
	if NewBTree(Config{MergeRatio: 2}).MergeBehind() {
		t.Fatal("empty index: MergeBehind = true")
	}
}

// TestMergeBehindMatchesTrigger pins that MergeBehind, the merge_behind gauge and
// the write path's trigger are one predicate over raw memtable nodes. The
// churn is all tombstones — deletes of static-resident keys, which grow the
// memtable without evaluating the trigger — so a live-entry count would see
// an empty dynamic stage throughout. MergeBehind must flip exactly at
// MinDynamic nodes, and the next memtable-growing write must merge exactly
// when its own node reaches the trigger.
func TestMergeBehindMatchesTrigger(t *testing.T) {
	const minDyn, loaded = 64, 100
	for _, epoch := range []bool{false, true} {
		for _, tombs := range []int{minDyn - 2, minDyn - 1, minDyn, minDyn + 3} {
			reg := obs.NewRegistry()
			h := NewBTree(Config{MergeRatio: 2, MinDynamic: minDyn, EpochReads: epoch, Obs: reg})
			entries := make([]index.Entry, loaded)
			for i := range entries {
				entries[i] = index.Entry{Key: keys.Uint64(uint64(i)), Value: uint64(i)}
			}
			if err := h.BulkLoad(entries); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tombs; i++ {
				if !h.Delete(entries[i].Key) {
					t.Fatalf("delete %d failed", i)
				}
			}
			if n := h.DynamicLen(); n != 0 {
				t.Fatalf("epoch=%v tombs=%d: DynamicLen = %d, want 0 live entries", epoch, tombs, n)
			}
			behind := h.MergeBehind()
			if want := tombs >= minDyn; behind != want {
				t.Fatalf("epoch=%v tombs=%d: MergeBehind = %v, want %v", epoch, tombs, behind, want)
			}
			if g := reg.Snapshot().Gauges["merge_behind"]; (g == 1) != behind {
				t.Fatalf("epoch=%v tombs=%d: merge_behind gauge = %v, MergeBehind says %v", epoch, tombs, g, behind)
			}
			h.Insert(keys.Uint64(1<<40), 1)
			merges, _, _ := h.MergeStats()
			if merged, want := merges == 1, tombs+1 >= minDyn; merged != want {
				t.Fatalf("epoch=%v tombs=%d: next write merged = %v, want %v", epoch, tombs, merged, want)
			}
		}
	}
}
