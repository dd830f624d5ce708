package sharded

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mets/internal/btree"
	"mets/internal/dstest"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
)

// As in internal/hybrid, a superseded core is retired by the pointer store
// that replaces it and freed by the garbage collector, so these tests watch
// collection (dstest.GCWatch): of every core, router and codec, and of every
// static stage any shard of any core ever built. Shards themselves cannot
// carry a finalizer (a hybrid.Index reaches itself through its sync.Cond); a
// shard's static stages being collected is what shows it went with its core.

const leakShards = 4

// watched is a trainer-driven index (so every BulkLoad swaps the whole core:
// codec, router and shards) whose shards report every static stage they
// build. Auto-merges are
// off; the tests merge by hand.
type watched struct {
	*Index
	w  dstest.GCWatch
	mu sync.Mutex
	// newest[i] labels the latest static stage of the i-th shard ever created;
	// the current core's shards are the last of them.
	newest []string
}

func newWatched(reg *obs.Registry) *watched { return newWatchedShards(reg, leakShards) }

func newWatchedShards(reg *obs.Registry, shards int) *watched {
	ws := &watched{}
	ws.Index = New(Config{
		Shards:       shards,
		Hybrid:       hybrid.Config{MergeRatio: 4, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: true},
		CodecTrainer: keycodec.HOPETrainer(hope.DoubleChar, 1<<10),
		Obs:          reg,
	}, ws.newShard)
	ws.watchCore("new")
	return ws
}

func (ws *watched) newShard(hc hybrid.Config) *hybrid.Index {
	ws.mu.Lock()
	id := len(ws.newest)
	ws.newest = append(ws.newest, "")
	ws.mu.Unlock()
	built := 0 // a shard builds one stage at a time
	return hybrid.New(
		func() index.Dynamic { return btree.New() },
		func(entries []index.Entry) (index.Static, error) {
			st, err := btree.NewCompact(entries)
			if err == nil {
				built++
				label := fmt.Sprintf("static shard%d#%d", id, built)
				ws.w.Watch(label, st)
				ws.mu.Lock()
				ws.newest[id] = label
				ws.mu.Unlock()
			}
			return st, err
		}, hc)
}

// watchCore puts the current core, its router and its codec on the watch list.
func (ws *watched) watchCore(step string) {
	c := ws.load()
	ws.w.Watch("core@"+step, c)
	ws.w.Watch("router@"+step, c.router)
	if c.codec != nil {
		ws.w.Watch("codec@"+step, c.codec)
	}
}

// leaked reports what the collector still holds beyond what the index
// legitimately references: the current core triple and the newest static
// stage of each of its shards.
func (ws *watched) leaked(patience time.Duration) []string {
	c := ws.load()
	keep := []any{c, c.router}
	if c.codec != nil {
		keep = append(keep, c.codec)
	}
	ws.mu.Lock()
	for _, label := range ws.newest[len(ws.newest)-len(c.shards):] {
		keep = append(keep, label)
	}
	ws.mu.Unlock()
	return ws.w.Leaked(patience, keep...)
}

func emailEntries(n int, seed int64) []index.Entry {
	ks := keys.Dedup(keys.Emails(n, seed))
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	entries := make([]index.Entry, len(ks))
	for i, k := range ks {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	return entries
}

// TestSupersededCoresCollected: with no reader anywhere, every core, router,
// codec and shard static stage superseded by shard merges and three
// retraining BulkLoads is collected — with a registry attached, whose
// per-shard gauge closures are re-registered by each new core's shards and
// must not hold an old one.
func TestSupersededCoresCollected(t *testing.T) {
	reg := obs.NewRegistry()
	ws := newWatched(reg)
	entries := emailEntries(3000, 77)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("bulkload")
	if ws.load().codec == nil {
		t.Fatal("trained bulk load should have installed a codec")
	}
	for round := 0; round < 3; round++ {
		for i, e := range entries {
			if i%3 == round {
				ws.Update(e.Key, e.Value+1<<32)
			}
		}
		ws.Merge()
	}
	updated := make([]index.Entry, len(entries))
	for i, e := range entries {
		updated[i] = index.Entry{Key: e.Key, Value: e.Value + 1<<32}
	}
	for _, step := range []string{"reload1", "reload2"} {
		if err := ws.BulkLoad(updated); err != nil {
			t.Fatal(err)
		}
		ws.watchCore(step)
	}

	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("superseded objects never collected: %v", leaked)
	}
	if n := reg.Snapshot().Counters["reconfig.applied"]; n != 3 { // three bulkload.retrain
		t.Fatalf("reconfig.applied = %d, want 3", n)
	}
	for _, e := range entries {
		if v, ok := ws.Get(e.Key); !ok || v != e.Value+1<<32 {
			t.Fatalf("Get(%q) = %d,%v after the swaps, want %d", e.Key, v, ok, e.Value+1<<32)
		}
	}
}

// TestFewerShardsReleaseOldShards shrinks the core from 8 shards to 3 (a
// retraining BulkLoad of two entries has only two boundaries to offer). The
// new core's shards take over the "shard0." to "shard2." derived gauges;
// nothing re-registers "shard3." to "shard7.", whose closures hold the five
// retired shard indexes, so publishing the smaller core must drop them from
// the registry or those indexes and their static stages are never collected.
func TestFewerShardsReleaseOldShards(t *testing.T) {
	reg := obs.NewRegistry()
	ws := newWatchedShards(reg, 8)
	entries := emailEntries(3000, 21)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("bulkload")
	if n := ws.NumShards(); n != 8 {
		t.Fatalf("bulk load built %d shards, want 8", n)
	}
	if _, ok := reg.Snapshot().Gauges["shard7.static_len"]; !ok {
		t.Fatal("shard7.static_len not registered while shard 7 exists")
	}
	if err := ws.BulkLoad(entries[:2]); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("reload")
	if n := ws.NumShards(); n != 3 {
		t.Fatalf("bulk load of two keys built %d shards, want 3", n)
	}
	gauges := reg.Snapshot().Gauges
	for i := 0; i < 8; i++ {
		if _, ok := gauges[fmt.Sprintf("shard%d.static_len", i)]; ok != (i < 3) {
			t.Errorf("shard%d.static_len registered = %v with 3 shards", i, ok)
		}
	}
	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("retired shards never collected: %v", leaked)
	}
	for _, e := range entries[:2] {
		if v, ok := ws.Get(e.Key); !ok || v != e.Value {
			t.Fatalf("Get(%q) = %d,%v after the shrink, want %d", e.Key, v, ok, e.Value)
		}
	}
}

// TestLeakTestCatchesRetainedCore shows the test above bites: a gauge closure
// over a core (instead of over the index) keeps that core, its router, its
// codec and its shards' stages alive past a retraining BulkLoad; dropping it
// lets them go.
func TestLeakTestCatchesRetainedCore(t *testing.T) {
	reg := obs.NewRegistry()
	ws := newWatched(reg)
	entries := emailEntries(2000, 5)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("bulkload")
	func() {
		c := ws.load()
		reg.GaugeFunc("leaky_shards", func() float64 { return float64(len(c.shards)) })
	}()
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("reload")

	held := map[string]bool{}
	for _, l := range ws.leaked(50 * time.Millisecond) {
		held[l] = true
	}
	// The bulk-loaded core's shards are the second set of four ever created.
	if !held["core@bulkload"] || !held["router@bulkload"] || !held["codec@bulkload"] || !held["static shard4#1"] {
		t.Fatalf("held = %v, want the retained bulkload core, its router, codec and shard stages", held)
	}
	reg.GaugeFunc("leaky_shards", func() float64 { return 0 })
	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("still uncollected after the closure was dropped: %v", leaked)
	}
}

// TestParkedScanKeepsItsCore parks a reader inside a Scan callback while every
// shard merges and a retraining BulkLoad then swaps the core under it. The
// shards of the core it loaded must survive any number of collections, the
// scan must finish with exactly the ordered, decoded contents that core held
// — not the writes that landed in the new one — and afterwards the old core
// and all its stages are collected.
func TestParkedScanKeepsItsCore(t *testing.T) {
	ws := newWatched(nil)
	entries := emailEntries(3000, 9)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("parked")
	for i, e := range entries { // a dynamic stage above the loaded one
		if i%5 == 0 {
			ws.Update(e.Key, e.Value+1<<32)
			entries[i].Value += 1 << 32
		}
	}

	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan []index.Entry)
	go func() {
		var got []index.Entry
		ws.Scan(nil, func(k []byte, v uint64) bool {
			got = append(got, index.Entry{Key: append([]byte(nil), k...), Value: v})
			if len(got) == 10 {
				close(parked)
				<-release
			}
			return true
		})
		done <- got
	}()
	<-parked

	ws.Merge()
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	ws.watchCore("reload")
	for _, e := range entries[:500] { // lands in the new core only
		ws.Update(e.Key, 7)
	}
	ws.Insert([]byte("zzzz@after-reload"), 7)

	held := map[string]bool{}
	for _, l := range ws.leaked(20 * time.Millisecond) {
		held[l] = true
	}
	// The walk holds what it has yet to read, nothing else of its core: the
	// generation of the first shard it is parked in, which the Merge
	// superseded (#1), and the old core's shards with the stages the Merge
	// gave them (#2). Routing and the decoder were set up before the first
	// callback, so the core struct, its router and its codec wrapper are free
	// to go.
	for _, want := range []string{"static shard4#1", "static shard5#2", "static shard6#2", "static shard7#2"} {
		if !held[want] {
			t.Fatalf("while parked the collector holds %v; want %s among them", held, want)
		}
	}
	if held["static shard5#1"] {
		t.Fatalf("while parked the collector holds %v; shard 5's superseded stage is not on the walk's path", held)
	}

	close(release)
	got := <-done
	if len(got) != len(entries) {
		t.Fatalf("parked scan returned %d entries, its core held %d", len(got), len(entries))
	}
	for i, e := range got {
		if keys.Compare(e.Key, entries[i].Key) != 0 || e.Value != entries[i].Value {
			t.Fatalf("parked scan entry %d = %q=%d, its core held %q=%d", i, e.Key, e.Value, entries[i].Key, entries[i].Value)
		}
	}
	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("uncollected after the parked scan returned: %v", leaked)
	}
}
