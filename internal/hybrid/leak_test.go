package hybrid

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mets/internal/btree"
	"mets/internal/dstest"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
)

// Nothing retires a superseded generation: the publishing store drops the
// index's reference and the garbage collector does the rest. So these tests
// watch the collector (dstest.GCWatch hangs finalizers off generations,
// memtables, filters and static stages) instead of counting retire calls —
// a counter would pass with a real leak, such as a gauge closure holding an
// old static stage (TestLeakTestCatchesRetainedStage plants exactly that).

// newWatched builds a hybrid B+tree whose every static stage is on w's watch
// list from the moment it is built. Auto-merges are off: the tests publish
// generations themselves and call watchGen after each.
func newWatched(w *dstest.GCWatch, epoch bool, reg *obs.Registry) *Index {
	var built atomic.Int32
	return New(
		func() index.Dynamic { return btree.New() },
		func(entries []index.Entry) (index.Static, error) {
			st, err := btree.NewCompact(entries)
			if err == nil {
				w.Watch(fmt.Sprintf("static#%d", built.Add(1)), st)
			}
			return st, err
		},
		Config{MergeRatio: 2, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: epoch, Obs: reg})
}

// watchGen puts the current generation, its memtable and its filter on the
// watch list (re-watching a survivor of the last step is a no-op). A
// generation that has taken no write has no filter to watch.
func watchGen(w *dstest.GCWatch, h *Index, step string) {
	g := h.gen.Load()
	w.Watch("gen@"+step, g)
	w.Watch("mem@"+step, g.mem)
	if f := g.filter.Load(); f != nil {
		w.Watch("filter@"+step, f)
	}
}

// current lists what the index legitimately still references.
func current(h *Index) []any {
	g := h.gen.Load()
	keep := []any{g}
	for _, p := range []any{g.mem, g.filter.Load(), g.frozen, g.frozenFilter, g.static} {
		if p != nil && !reflect.ValueOf(p).IsNil() {
			keep = append(keep, p)
		}
	}
	return keep
}

func insertRange(h *Index, lo, hi int) {
	for i := lo; i < hi; i++ {
		h.Insert(keys.Uint64(uint64(i)), uint64(i))
	}
}

// TestSupersededGenerationsCollected: with no reader anywhere, every
// generation, memtable, filter and static stage superseded by a synchronous
// merge, a background seal/commit pair or a BulkLoad is collected — with a
// registry attached, whose gauge closures must reference the index, never a
// generation.
func TestSupersededGenerationsCollected(t *testing.T) {
	for _, epoch := range []bool{false, true} {
		t.Run(fmt.Sprintf("epoch=%v", epoch), func(t *testing.T) {
			var w dstest.GCWatch
			reg := obs.NewRegistry()
			h := newWatched(&w, epoch, reg)
			watchGen(&w, h, "new")
			n := 0
			for i := 0; i < 4; i++ {
				insertRange(h, n, n+500)
				n += 500
				watchGen(&w, h, fmt.Sprintf("insert%d", i)) // the filter the first insert published
				h.Merge()
				watchGen(&w, h, fmt.Sprintf("merge%d", i))
			}
			for i := 0; i < 4; i++ {
				insertRange(h, n, n+500)
				n += 500
				watchGen(&w, h, fmt.Sprintf("insert%d", 4+i))
				if !startMerge(h) {
					t.Fatal("no merge started")
				}
				watchGen(&w, h, fmt.Sprintf("seal%d", i)) // or already the commit; either is fine
				h.WaitMerges()
				watchGen(&w, h, fmt.Sprintf("commit%d", i))
			}
			entries := make([]index.Entry, 1000)
			for i := range entries {
				entries[i] = index.Entry{Key: keys.Uint64(uint64(i) * 7), Value: uint64(i)}
			}
			if err := h.BulkLoad(entries); err != nil {
				t.Fatal(err)
			}
			watchGen(&w, h, "bulkload")

			if leaked := w.Leaked(5*time.Second, current(h)...); len(leaked) != 0 {
				t.Fatalf("superseded objects never collected: %v", leaked)
			}
			// 4 merges + 4 seal/commit pairs + 1 bulk load, all through the seam.
			if got := reg.Snapshot().Gauges["epoch_gens"]; got != 13 || h.seam.Generation() != 13 {
				t.Fatalf("epoch_gens = %v, seam generation %d; want 13", got, h.seam.Generation())
			}
			if h.Len() != len(entries) {
				t.Fatalf("Len = %d after the bulk load, want %d", h.Len(), len(entries))
			}
		})
	}
}

// TestLeakTestCatchesRetainedStage shows the leak tests bite: a gauge closure
// over a static stage (instead of over the index) keeps exactly that stage
// alive past its generation, the watch reports it, and dropping the closure
// lets it go.
func TestLeakTestCatchesRetainedStage(t *testing.T) {
	var w dstest.GCWatch
	reg := obs.NewRegistry()
	h := newWatched(&w, true, reg)
	insertRange(h, 0, 500)
	h.Merge()
	watchGen(&w, h, "merge0")
	func() {
		st := h.gen.Load().static
		reg.GaugeFunc("leaky_static_len", func() float64 { return float64(st.Len()) })
	}()
	insertRange(h, 500, 1000)
	h.Merge()
	watchGen(&w, h, "merge1")

	leaked := w.Leaked(50*time.Millisecond, current(h)...)
	if len(leaked) != 1 || leaked[0] != "static#1" {
		t.Fatalf("leaked = %v, want exactly the retained static#1", leaked)
	}
	reg.GaugeFunc("leaky_static_len", func() float64 { return 0 })
	if leaked := w.Leaked(5*time.Second, current(h)...); len(leaked) != 0 {
		t.Fatalf("still uncollected after the closure was dropped: %v", leaked)
	}
}

// TestParkedScanKeepsItsGeneration parks a reader inside a Scan callback while
// a merge and then a BulkLoad supersede the generation it is on. The stages it
// still has to read must survive any number of collections, the scan must
// finish with exactly the ordered contents of its own generation, and once it
// returns those stages must be collected.
func TestParkedScanKeepsItsGeneration(t *testing.T) {
	for _, epoch := range []bool{false, true} {
		t.Run(fmt.Sprintf("epoch=%v", epoch), func(t *testing.T) {
			var w dstest.GCWatch
			h := newWatched(&w, epoch, nil)
			// 300 keys in the static stage; above it 100 new keys, 20
			// shadowing updates and 20 tombstones in the memtable.
			insertRange(h, 0, 300)
			h.Merge()
			insertRange(h, 300, 400)
			want := map[uint64]uint64{}
			for i := 0; i < 400; i++ {
				want[uint64(i)] = uint64(i)
			}
			for i := 0; i < 20; i++ {
				h.Update(keys.Uint64(uint64(i*10)), uint64(i)+1<<40)
				want[uint64(i*10)] = uint64(i) + 1<<40
				h.Delete(keys.Uint64(uint64(i*10 + 5)))
				delete(want, uint64(i*10+5))
			}
			watchGen(&w, h, "parked")

			parked, release := make(chan struct{}), make(chan struct{})
			done := make(chan []index.Entry)
			go func() {
				var got []index.Entry
				h.Scan(nil, func(k []byte, v uint64) bool {
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

			h.Merge()
			watchGen(&w, h, "merge")
			insertRange(h, 1000, 1100) // invisible to the parked generation
			entries := make([]index.Entry, 200)
			for i := range entries {
				entries[i] = index.Entry{Key: keys.Uint64(uint64(5000 + i)), Value: 9}
			}
			if err := h.BulkLoad(entries); err != nil {
				t.Fatal(err)
			}
			watchGen(&w, h, "bulkload")

			// The merge in between (static#2, mem@merge) has no reader and must
			// go — given as long as a loaded host needs to run the cycles a
			// finalizer chain takes; static#1 and the parked memtable are still
			// to be read and must survive them.
			reading := []any{"gen@parked", "mem@parked", "filter@parked", "static#1"}
			if leaked := w.Leaked(5*time.Second, append(current(h), reading...)...); len(leaked) != 0 {
				t.Fatalf("superseded with no reader, yet uncollected while the scan is parked: %v", leaked)
			}
			held := map[string]bool{}
			for _, l := range w.Leaked(20*time.Millisecond, current(h)...) {
				held[l] = true
			}
			if !held["static#1"] || !held["mem@parked"] {
				t.Fatalf("while parked the collector holds %v; want static#1 and mem@parked among them", held)
			}

			close(release)
			got := <-done
			if len(got) != len(want) {
				t.Fatalf("parked scan returned %d entries, its generation held %d", len(got), len(want))
			}
			for i, e := range got {
				if i > 0 && keys.Compare(got[i-1].Key, e.Key) >= 0 {
					t.Fatalf("parked scan out of order at %d", i)
				}
				if v, ok := want[keys.ToUint64(e.Key)]; !ok || v != e.Value {
					t.Fatalf("parked scan saw %x=%d; its generation had (%d,%v)", e.Key, e.Value, v, ok)
				}
			}
			if leaked := w.Leaked(5*time.Second, current(h)...); len(leaked) != 0 {
				t.Fatalf("uncollected after the parked scan returned: %v", leaked)
			}
		})
	}
}
