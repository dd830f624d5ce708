package hybrid

import (
	"fmt"
	"math/rand"
	"testing"

	"mets/internal/keys"
	"mets/internal/vfs"
)

// journalWorkload drives a mixed insert/update/delete stream against h and
// returns the map oracle of what it holds afterwards.
func journalWorkload(h *Index, nops int, seed int64) map[string]uint64 {
	want := map[string]uint64{}
	rng := rand.New(rand.NewSource(seed))
	space := nops / 2
	for i := 0; i < nops; i++ {
		k := keys.Uint64(uint64(rng.Intn(space)))
		switch rng.Intn(10) {
		case 0:
			if h.Delete(k) {
				delete(want, string(k))
			}
		case 1, 2:
			if h.Update(k, uint64(i)) {
				want[string(k)] = uint64(i)
			}
		default:
			if h.Insert(k, uint64(i)) || h.Update(k, uint64(i)) {
				want[string(k)] = uint64(i)
			}
		}
	}
	return want
}

// TestJournalReplayMatchesOracle is the differential check of the one replay
// path (fold the journal to its final per-key state, sort, build the static
// stage): whatever a journaled index held when it was closed, the reopened
// one holds — for every hybrid.New* variant over both memtables, on a long
// mixed journal and on the 0-, 1- and 2-record journals around the fold's
// edges (the 2-record one folds to an empty index).
func TestJournalReplayMatchesOracle(t *testing.T) {
	workloads := map[string]func(h *Index) (want map[string]uint64, records int){
		"mixed":     func(h *Index) (map[string]uint64, int) { return journalWorkload(h, 5000, 42), -1 },
		"0-records": func(h *Index) (map[string]uint64, int) { return map[string]uint64{}, 0 },
		"1-record": func(h *Index) (map[string]uint64, int) {
			h.Insert([]byte("a"), 1)
			return map[string]uint64{"a": 1}, 1
		},
		"2-records": func(h *Index) (map[string]uint64, int) {
			h.Insert([]byte("a"), 1)
			h.Delete([]byte("a"))
			return map[string]uint64{}, 2
		},
	}
	for variant, ctor := range variantCtors {
		for _, epoch := range []bool{false, true} {
			for wname, drive := range workloads {
				t.Run(fmt.Sprintf("%s/epoch=%v/%s", variant, epoch, wname), func(t *testing.T) {
					fs := vfs.NewMemFS()
					cfg := Config{MergeRatio: 4, MinDynamic: 64, Dir: "idx", FS: fs, EpochReads: epoch}
					h := ctor(cfg)
					want, records := drive(h)
					if err := h.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					h2 := ctor(cfg)
					defer h2.Close()
					if got := h2.JournalRecovery.Records; records >= 0 && got != records {
						t.Fatalf("replayed %d records, journal holds %d", got, records)
					}
					checkJournalState(t, h2, want)
					// The reopened index must remain fully writable.
					k := []byte("zz-after-replay")
					if !h2.Insert(k, 7) {
						t.Fatal("insert after replay failed")
					}
					if v, ok := h2.Get(k); !ok || v != 7 {
						t.Fatalf("get after replay = %d,%v", v, ok)
					}
				})
			}
		}
	}
}

// BenchmarkJournalReopen measures reopening a journaled index — the recovery
// path: fold the journal, sort once, build the static stage.
func BenchmarkJournalReopen(b *testing.B) {
	const nops = 50000
	for _, epochs := range []bool{false, true} {
		b.Run(fmt.Sprintf("epoch=%v", epochs), func(b *testing.B) {
			fs := vfs.NewMemFS()
			cfg := Config{MergeRatio: 4, MinDynamic: 4096, Dir: "idx", FS: fs, EpochReads: epochs}
			h := NewBTree(cfg)
			journalWorkload(h, nops, 7)
			if err := h.Close(); err != nil {
				b.Fatalf("close: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := NewBTree(cfg)
				if h.Len() == 0 {
					b.Fatal("replay produced empty index")
				}
				if err := h.Close(); err != nil {
					b.Fatalf("close: %v", err)
				}
			}
		})
	}
}
