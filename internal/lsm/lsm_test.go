package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/keys"
	"mets/internal/surf"
)

func smallConfig(fb FilterBuilder) Config {
	return Config{
		MemTableBytes:       64 << 10,
		BlockSize:           1024,
		L0CompactionTrigger: 4,
		LevelSizeMultiplier: 10,
		TargetTableBytes:    64 << 10,
		BlockCacheBytes:     256 << 10,
		Filter:              fb,
	}
}

func filterConfigs() map[string]FilterBuilder {
	return map[string]FilterBuilder{
		"none":      nil,
		"bloom":     BloomFilterBuilder(14),
		"surf-hash": SuRFFilterBuilder(surf.HashConfig(4)),
		"surf-real": SuRFFilterBuilder(surf.RealConfig(4)),
	}
}

func loadDB(t testing.TB, fb FilterBuilder, n int, seed int64) (*DB, [][]byte) {
	t.Helper()
	db := Open(smallConfig(fb))
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, seed)))
	val := bytes.Repeat([]byte{0xAB}, 64)
	perm := rand.New(rand.NewSource(seed + 1)).Perm(len(ks))
	for _, i := range perm {
		v := append(append([]byte(nil), val...), byte(i), byte(i>>8), byte(i>>16))
		db.Put(ks[i], v)
	}
	db.Flush()
	return db, ks
}

func TestGetAcrossLevels(t *testing.T) {
	for name, fb := range filterConfigs() {
		db, ks := loadDB(t, fb, 20000, 1)
		if db.NumLevels() < 2 {
			t.Fatalf("%s: expected multiple levels, got %d", name, db.NumLevels())
		}
		for i, k := range ks {
			v, ok := db.Get(k)
			if !ok {
				t.Fatalf("%s: Get(%x) missing", name, k)
			}
			if v[64] != byte(i) || v[65] != byte(i>>8) {
				t.Fatalf("%s: Get(%x) wrong value", name, k)
			}
		}
		// Absent keys.
		for i := 0; i < 5000; i++ {
			if _, ok := db.Get(keys.Uint64(uint64(i)*2 + 1)); ok {
				// Key may actually exist; verify against the set.
				found := false
				probe := keys.Uint64(uint64(i)*2 + 1)
				for _, k := range ks {
					if bytes.Equal(k, probe) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: phantom key", name)
				}
			}
		}
	}
}

func TestOverwrite(t *testing.T) {
	db := Open(smallConfig(nil))
	k := keys.Uint64(42)
	db.Put(k, []byte("v1"))
	db.Put(k, []byte("v2"))
	if v, ok := db.Get(k); !ok || string(v) != "v2" {
		t.Fatalf("overwrite in memtable failed: %q", v)
	}
	db.Flush()
	db.Put(k, []byte("v3"))
	db.Flush()
	// Force compaction by exceeding L0 trigger.
	for i := 0; i < 6; i++ {
		db.Put(keys.Uint64(uint64(100+i)), []byte("x"))
		db.Flush()
	}
	if v, ok := db.Get(k); !ok || string(v) != "v3" {
		t.Fatalf("newest version lost after compaction: %q", v)
	}
}

func TestSeekOrdered(t *testing.T) {
	for name, fb := range filterConfigs() {
		db, ks := loadDB(t, fb, 10000, 3)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 500; trial++ {
			i := rng.Intn(len(ks))
			// Open seek at an existing key.
			e, ok := db.Seek(ks[i], nil)
			if !ok || !bytes.Equal(e.Key, ks[i]) {
				t.Fatalf("%s: Seek(%x) = %x, %v", name, ks[i], e.Key, ok)
			}
			// Seek just above key i must land on key i+1.
			probe := keys.Uint64(keys.ToUint64(ks[i]) + 1)
			e, ok = db.Seek(probe, nil)
			if i == len(ks)-1 {
				if ok {
					t.Fatalf("%s: seek past end returned %x", name, e.Key)
				}
			} else if !ok || !bytes.Equal(e.Key, ks[i+1]) {
				t.Fatalf("%s: Seek(%x) = %x want %x", name, probe, e.Key, ks[i+1])
			}
		}
	}
}

func TestClosedSeekNoFalseNegatives(t *testing.T) {
	for name, fb := range filterConfigs() {
		db, ks := loadDB(t, fb, 10000, 7)
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 500; trial++ {
			i := rng.Intn(len(ks) - 1)
			lo := ks[i]
			hi := keys.Uint64(keys.ToUint64(ks[i]) + 1)
			e, ok := db.Seek(lo, hi)
			if !ok || !bytes.Equal(e.Key, ks[i]) {
				t.Fatalf("%s: closed seek containing %x failed (%x, %v)", name, ks[i], e.Key, ok)
			}
			// Empty range between two adjacent keys.
			gapLo := keys.Uint64(keys.ToUint64(ks[i]) + 1)
			gapHi := ks[i+1]
			if _, ok := db.Seek(gapLo, gapHi); ok && keys.ToUint64(gapHi)-keys.ToUint64(gapLo) > 0 {
				t.Fatalf("%s: empty closed seek returned a key", name)
			}
		}
	}
}

func TestSuRFSavesSeekIO(t *testing.T) {
	// Fig 4.9's mechanism: empty closed seeks cost (almost) no I/O with
	// SuRF and at least one block per candidate table without it.
	run := func(fb FilterBuilder) (int64, int64) {
		db, ks := loadDB(t, fb, 30000, 11)
		rng := rand.New(rand.NewSource(13))
		db.ResetStats()
		empty := 0
		for trial := 0; trial < 2000; trial++ {
			i := rng.Intn(len(ks) - 1)
			// A range around the midpoint of the gap between adjacent
			// stored keys: random 64-bit keys are ~2^49 apart, so a 2^32
			// window fits and shares no boundary with stored keys (ranges
			// hugging a stored key hit SuRF's inherent boundary false
			// positive instead, see §4.3.1).
			a, b := keys.ToUint64(ks[i]), keys.ToUint64(ks[i+1])
			lo := a + (b-a)/2
			hi := lo + (1 << 32)
			if hi >= b {
				continue
			}
			if _, ok := db.Seek(keys.Uint64(lo), keys.Uint64(hi)); ok {
				t.Fatal("seek in empty gap returned a key")
			}
			empty++
		}
		return db.Stats.BlockReads, int64(empty)
	}
	noneIO, n1 := run(nil)
	surfIO, n2 := run(SuRFFilterBuilder(surf.RealConfig(4)))
	perNone := float64(noneIO) / float64(n1)
	perSurf := float64(surfIO) / float64(n2)
	if perSurf > perNone/2 {
		t.Fatalf("SuRF should cut empty-seek I/O sharply: none=%.2f surf=%.2f I/O per op", perNone, perSurf)
	}
	fmt.Printf("empty closed-seek I/O per op: none=%.2f surf=%.2f\n", perNone, perSurf)
}

func TestBloomSavesGetIO(t *testing.T) {
	run := func(fb FilterBuilder) float64 {
		db, ks := loadDB(t, fb, 30000, 15)
		rng := rand.New(rand.NewSource(17))
		db.ResetStats()
		probes := 3000
		for trial := 0; trial < probes; trial++ {
			// Keys drawn uniformly from the 64-bit space: essentially all absent.
			db.Get(keys.Uint64(rng.Uint64()))
		}
		_ = ks
		return float64(db.Stats.BlockReads) / float64(probes)
	}
	ioNone := run(nil)
	ioBloom := run(BloomFilterBuilder(14))
	if ioBloom > ioNone/3 {
		t.Fatalf("bloom should nearly eliminate absent-Get I/O: none=%.2f bloom=%.2f", ioNone, ioBloom)
	}
}

func TestCountApproximate(t *testing.T) {
	db, ks := loadDB(t, SuRFFilterBuilder(surf.RealConfig(4)), 10000, 19)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(len(ks)), rng.Intn(len(ks))
		if a > b {
			a, b = b, a
		}
		got := db.Count(ks[a], ks[b])
		want := b - a + 1
		// Each level's filter may over-count by <= 2.
		slack := 2 * (db.NumLevels() + 2)
		if got < want-slack || got > want+slack {
			t.Fatalf("Count = %d, want %d (±%d)", got, want, slack)
		}
	}
}

// TestCountAgainstOracle checks Count against a sorted slice, with a closed
// and an open (nil) hi, on a DB whose keys sit in the MemTable, level 0 and
// level 1 at once. Without a filter Count is exact; SuRF may over- or
// under-count by at most one key at each end of each table's range.
func TestCountAgainstOracle(t *testing.T) {
	for _, name := range []string{"none", "surf-real"} {
		t.Run(name, func(t *testing.T) {
			db := Open(Config{MemTableBytes: 2 << 10, BlockSize: 256, Filter: filterConfigs()[name]})
			const n = 2000
			ks := make([][]byte, n)
			for i := range ks {
				ks[i] = []byte(fmt.Sprintf("k%05d", i))
			}
			for _, i := range rand.New(rand.NewSource(5)).Perm(n) {
				db.Put(ks[i], []byte("v"))
			}
			if db.mem.idx.Len() == 0 || db.NumLevels() < 2 || len(db.levels[0]) == 0 || len(db.levels[1]) == 0 {
				t.Fatalf("want keys in the MemTable, L0 and L1; have %d levels", db.NumLevels())
			}
			tables := 0
			for _, level := range db.levels {
				tables += len(level)
			}
			slack := 0
			if name != "none" {
				slack = 2 * tables
			}
			oracle := func(lo, hi []byte) int {
				i := sort.Search(n, func(i int) bool { return keys.Compare(ks[i], lo) >= 0 })
				j := n
				if hi != nil {
					j = sort.Search(n, func(j int) bool { return keys.Compare(ks[j], hi) > 0 })
				}
				return max(j-i, 0)
			}
			check := func(lo, hi []byte) {
				got, want := db.Count(lo, hi), oracle(lo, hi)
				if got < want-slack || got > want+slack {
					t.Fatalf("Count(%q, %q) = %d, want %d (±%d)", lo, hi, got, want, slack)
				}
			}
			check([]byte("k01000"), nil)
			check(nil, nil)
			check([]byte("k"), nil)
			check([]byte("k99999"), nil)
			rng := rand.New(rand.NewSource(6))
			for trial := 0; trial < 200; trial++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a > b {
					a, b = b, a
				}
				check(ks[a], nil)
				check(ks[a], ks[b])
				check(append(ks[a], '5'), ks[b]) // between two stored keys
			}
		})
	}
}

func TestCacheReducesRepeatIO(t *testing.T) {
	db, ks := loadDB(t, nil, 20000, 23)
	db.ResetStats()
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 100; i++ {
			db.Get(ks[i])
		}
	}
	if db.Stats.CacheHits == 0 {
		t.Fatal("expected cache hits on repeated gets")
	}
	if db.Stats.BlockReads > 400 {
		t.Fatalf("repeated hot gets should be mostly cached: %d reads", db.Stats.BlockReads)
	}
}

func TestLevelShape(t *testing.T) {
	db, _ := loadDB(t, nil, 50000, 25)
	if len(db.levels[0]) >= db.cfg.L0CompactionTrigger {
		t.Fatalf("L0 not compacted: %d tables", len(db.levels[0]))
	}
	// Levels >= 1 must be disjoint and sorted.
	for l := 1; l < db.NumLevels(); l++ {
		tables := db.levels[l]
		for i := 1; i < len(tables); i++ {
			if keys.Compare(tables[i-1].maxKey, tables[i].minKey) >= 0 {
				t.Fatalf("level %d tables overlap", l)
			}
		}
	}
}

func TestTimeSeriesWorkload(t *testing.T) {
	// §4.4 shape at miniature scale: sensor events, closed seeks over
	// mostly-empty windows.
	events := keys.SensorEvents(50, 100000, 10000000, 27)
	db := Open(smallConfig(SuRFFilterBuilder(surf.RealConfig(4))))
	val := bytes.Repeat([]byte{1}, 100)
	for _, e := range events {
		db.Put(e.Key(), val)
	}
	db.Flush()
	for i := 0; i < len(events); i += 97 {
		if _, ok := db.Get(events[i].Key()); !ok {
			t.Fatal("event lost")
		}
	}
}
