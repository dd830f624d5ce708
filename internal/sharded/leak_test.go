package sharded

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mets/internal/btree"
	"mets/internal/dstest"
	"mets/internal/fst"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/obs"
)

// As in internal/hybrid, a superseded shard generation is retired by the
// pointer store that replaces it and freed by the garbage collector, so these
// tests watch collection (dstest.GCWatch) of every static stage any shard
// ever built. The codec, the router and the shards are fixed when the index
// is built; merges supersede one shard's generation, a BulkLoad every
// shard's. Shards themselves cannot carry a finalizer (a hybrid.Index reaches
// itself through its sync.Cond); a stage being collected is what shows the
// generation that held it went.

const leakShards = 4

// watched is an index with a fixed HOPE codec whose shards report every FST
// static stage they build. Auto-merges are off; the tests merge by hand.
type watched struct {
	*Index
	w  dstest.GCWatch
	mu sync.Mutex
	// newest[i] labels the latest static stage shard i built.
	newest []string
}

func newWatched(t testing.TB, reg *obs.Registry) *watched {
	t.Helper()
	var sample [][]byte
	for _, e := range emailEntries(3000, 1) {
		sample = append(sample, e.Key)
	}
	codec, err := keycodec.TrainHOPE(sample, hope.DoubleChar, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	ws := &watched{}
	ws.Index = newIndex(Config{
		Router: RouterFromSample(sample, leakShards),
		Hybrid: hybrid.Config{MergeRatio: 4, MinDynamic: 1 << 30, BloomBitsPerKey: 10},
		Codec:  codec,
		Obs:    reg,
	}, ws.newShard)
	return ws
}

// newShard is hybrid.NewFST with its stage builder watched; hc is the
// configuration New gives every shard.
func (ws *watched) newShard(hc hybrid.Config) *hybrid.Index {
	ws.mu.Lock()
	id := len(ws.newest)
	ws.newest = append(ws.newest, "")
	ws.mu.Unlock()
	built := 0 // a shard builds one stage at a time
	return hybrid.New(
		func() index.Dynamic { return btree.New() },
		func(entries []index.Entry) (index.Static, error) {
			st, err := fst.NewStatic(entries)
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

// leaked reports what the collector still holds beyond what the index
// legitimately references: the newest static stage of each shard.
func (ws *watched) leaked(patience time.Duration) []string {
	ws.mu.Lock()
	keep := make([]any, len(ws.newest))
	for i, label := range ws.newest {
		keep[i] = label
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

// TestSupersededCoresCollected: with no reader anywhere, every shard static
// stage superseded by shard merges and three BulkLoads is collected — with a
// registry attached, whose per-shard gauge closures hold a shard, never a
// generation of it.
func TestSupersededCoresCollected(t *testing.T) {
	reg := obs.NewRegistry()
	ws := newWatched(t, reg)
	entries := emailEntries(3000, 77)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
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
	for range 2 {
		if err := ws.BulkLoad(updated); err != nil {
			t.Fatal(err)
		}
	}

	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("superseded objects never collected: %v", leaked)
	}
	if n := reg.Snapshot().Counters["reconfig.applied"]; n != 3 { // three bulkloads
		t.Fatalf("reconfig.applied = %d, want 3", n)
	}
	for _, e := range entries {
		if v, ok := ws.Get(e.Key); !ok || v != e.Value+1<<32 {
			t.Fatalf("Get(%q) = %d,%v after the swaps, want %d", e.Key, v, ok, e.Value+1<<32)
		}
	}
}

// TestLeakTestCatchesRetainedCore shows the test above bites: a gauge closure
// over a snapshot (instead of over the index) keeps the generation of every
// shard it captured, and so their static stages, alive past a BulkLoad;
// dropping it lets them go.
func TestLeakTestCatchesRetainedCore(t *testing.T) {
	reg := obs.NewRegistry()
	ws := newWatched(t, reg)
	entries := emailEntries(2000, 5)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	func() {
		sn := ws.Snapshot()
		reg.GaugeFunc("leaky_shards", func() float64 { return float64(len(sn.shards)) })
	}()
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}

	held := map[string]bool{}
	for _, l := range ws.leaked(50 * time.Millisecond) {
		held[l] = true
	}
	for i := 0; i < leakShards; i++ {
		if want := fmt.Sprintf("static shard%d#1", i); !held[want] {
			t.Fatalf("held = %v, want the snapshot's stages, %s among them", held, want)
		}
	}
	reg.GaugeFunc("leaky_shards", func() float64 { return 0 })
	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("still uncollected after the closure was dropped: %v", leaked)
	}
}

// TestParkedScanKeepsItsCore parks a reader inside a Scan callback in shard 0
// while every shard merges and a BulkLoad then replaces every shard's
// generation under it. The scan reads each shard at the generation it loads
// when the walk reaches it: shard 0's parked generation must survive any
// number of collections and keep the scan from seeing the writes that land in
// shard 0 after the reload, while a write to the last shard, which the walk
// has yet to reach, is seen. Afterwards every superseded stage is collected.
func TestParkedScanKeepsItsCore(t *testing.T) {
	ws := newWatched(t, nil)
	entries := emailEntries(3000, 9)
	if err := ws.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
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
	for _, e := range entries[:500] { // shard 0's keys land past the parked walk
		if shardOf(ws.Index, e.Key) == 0 {
			ws.Update(e.Key, 7)
		}
	}
	last := &entries[len(entries)-1]
	if shardOf(ws.Index, last.Key) != leakShards-1 {
		t.Fatalf("the last entry is not in the last shard")
	}
	ws.Update(last.Key, 9)
	last.Value = 9

	held := map[string]bool{}
	for _, l := range ws.leaked(20 * time.Millisecond) {
		held[l] = true
	}
	// The walk holds the generation of the shard it is parked in, which the
	// Merge superseded (#1), and nothing of the shards it has yet to reach.
	if !held["static shard0#1"] {
		t.Fatalf("while parked the collector holds %v; want static shard0#1 among them", held)
	}
	for _, gone := range []string{"static shard0#2", "static shard1#1", "static shard1#2"} {
		if held[gone] {
			t.Fatalf("while parked the collector holds %v; %s is not on the walk's path", held, gone)
		}
	}

	close(release)
	got := <-done
	if len(got) != len(entries) {
		t.Fatalf("parked scan returned %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if keys.Compare(e.Key, entries[i].Key) != 0 || e.Value != entries[i].Value {
			t.Fatalf("parked scan entry %d = %q=%d, want %q=%d", i, e.Key, e.Value, entries[i].Key, entries[i].Value)
		}
	}
	if leaked := ws.leaked(5 * time.Second); len(leaked) != 0 {
		t.Fatalf("uncollected after the parked scan returned: %v", leaked)
	}
}
