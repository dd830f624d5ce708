package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/surf"
)

// oracleEntries returns sorted records whose keys are short strings over
// {a, b, 0x00}, so many keys are prefixes of others; every third value is
// empty, every third a tombstone, and one live value in eight is 128 bytes
// or longer, so its length takes two bytes.
func oracleEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	var ks [][]byte
	for i := 0; i < n; i++ {
		k := make([]byte, 1+rng.Intn(8))
		for j := range k {
			k[j] = "ab\x00"[rng.Intn(3)]
		}
		ks = append(ks, k)
	}
	ks = keys.Dedup(ks)
	entries := make([]Entry, len(ks))
	for i, k := range ks {
		entries[i].Key = k
		switch i % 3 {
		case 1:
			entries[i].Value = tombstoneMarker
		case 2:
			v := append([]byte{1}, k...)
			if rng.Intn(8) == 0 {
				v = append(v, make([]byte, 128+rng.Intn(200))...)
			}
			entries[i].Value = v
		}
	}
	return entries
}

// TestBlockReaderMatchesOracle checks every path that reads blocks in place
// — point lookup, seek to the first key >= a probe, and Count — against a
// sorted slice, on tables whose blocks hold a few records (no restart point
// past the first), a few restart runs, and many.
func TestBlockReaderMatchesOracle(t *testing.T) {
	entries := oracleEntries(3000, 2)
	var probes [][]byte
	for _, e := range entries {
		k := e.Key
		probes = append(probes, k, k[:len(k)-1], append(append([]byte(nil), k...), 0), append(append([]byte(nil), k...), 'c'))
	}
	lowerBound := func(p []byte) int {
		return sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].Key, p) >= 0 })
	}
	for _, bs := range []struct{ size, minBlocks, minRestarts int }{{48, 200, 0}, {512, 20, 2}, {4096, 4, 10}} {
		tab, err := buildSSTable(1, entries, bs.size, nil)
		if err != nil {
			t.Fatal(err)
		}
		db := Open(Config{})
		db.levels = [][]*SSTable{{tab}}
		if tab.numBlocks() < bs.minBlocks || len(tab.restarts) < bs.minRestarts*tab.numBlocks()/2 {
			t.Fatalf("block size %d: %d blocks, %d restarts", bs.size, tab.numBlocks(), len(tab.restarts))
		}
		for _, p := range probes {
			i := lowerBound(p)
			want := i < len(entries) && bytes.Equal(entries[i].Key, p)
			var v []byte
			ok := false
			if b := tab.blockFor(p, keys.Prefix8(p)); b >= 0 {
				v, ok = tab.blockGet(b, tab.blocks[b], p)
			}
			if ok != want || ok && !bytes.Equal(v, entries[i].Value) {
				t.Fatalf("block size %d: get %q = %q, %v; oracle found=%v", bs.size, p, v, ok, want)
			}
			e, ok := db.tableSeek(tab, p)
			if ok != (i < len(entries)) || ok && (!bytes.Equal(e.Key, entries[i].Key) || !bytes.Equal(e.Value, entries[i].Value)) {
				t.Fatalf("block size %d: seek %q = %q, %v; oracle index %d of %d", bs.size, p, e.Key, ok, i, len(entries))
			}
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 300; trial++ {
			lo, hi := probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]
			if bytes.Compare(lo, hi) > 0 {
				lo, hi = hi, lo
			}
			want := 0
			for i := lowerBound(lo); i < len(entries) && bytes.Compare(entries[i].Key, hi) <= 0; i++ {
				if !isTombstone(entries[i].Value) {
					want++
				}
			}
			if got := db.Count(lo, hi); got != want {
				t.Fatalf("block size %d: Count(%q, %q) = %d, oracle %d", bs.size, lo, hi, got, want)
			}
		}
	}
}

// TestBlockBytesGolden pins the serialized blocks — their bytes and their cut
// points — of fixed tables: the index beside the blocks may change, what the
// cache charges and DiskUsage counts may not.
func TestBlockBytesGolden(t *testing.T) {
	golden := map[int]string{
		48:   "e4b6519ca301053723169bf94006b798dfb91b018f3393aed9551314e31313c9",
		512:  "77a57d1f9f6144eaefc603d6cb639b4678230fca1998a054a1855f813df385d3",
		4096: "c309cd82ccebe9681ad49b18c4cce4ca6e19a4941dca98e6b4b9c12662227b33",
	}
	entries := oracleEntries(3000, 2)
	for size, want := range golden {
		tab, err := buildSSTable(1, entries, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var n [8]byte
		for _, b := range tab.blocks {
			binary.BigEndian.PutUint64(n[:], uint64(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("block size %d: blocks hash to %s, want %s", size, got, want)
		}
	}
}

// FuzzBlockSeek checks the restart-point seek of every block against a plain
// sequential seek from the block's start, over random sorted records cut at
// random block sizes, some above 64 KiB.
func FuzzBlockSeek(f *testing.F) {
	f.Add(int64(1), uint16(100), uint32(48), uint8(0))
	f.Add(int64(2), uint16(2000), uint32(4096), uint8(3))
	f.Add(int64(3), uint16(500), uint32(100_000), uint8(255))
	f.Add(int64(4), uint16(17), uint32(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, blockSize uint32, valueScale uint8) {
		rng := rand.New(rand.NewSource(seed))
		ks := make([][]byte, 1+int(n)%3000)
		for i := range ks {
			ks[i] = make([]byte, rng.Intn(12))
			rng.Read(ks[i])
			for j := range ks[i] {
				ks[i][j] &= 0x83 // a small alphabet: shared prefixes and ties in keys.Prefix8
			}
		}
		ks = keys.Dedup(ks)
		entries := make([]Entry, len(ks))
		for i, k := range ks {
			entries[i] = Entry{Key: k, Value: make([]byte, rng.Intn(1+int(valueScale)*4))}
		}
		tab, err := buildSSTable(1, entries, 1+int(blockSize)%(1<<18), nil)
		if err != nil {
			t.Fatal(err)
		}
		var probes [][]byte
		for i := 0; i < 200; i++ {
			k := ks[rng.Intn(len(ks))]
			probes = append(probes, k, k[:len(k)/2], append(append([]byte(nil), k...), byte(rng.Intn(4))))
		}
		for _, p := range probes {
			for b, raw := range tab.blocks {
				got, ok := tab.seekBlock(b, raw, p)
				want := blockReader{raw: raw}
				if wok := want.seek(p); ok != wok || ok && (got.off != want.off || !bytes.Equal(got.key, want.key)) {
					t.Fatalf("block %d of %d, probe %x: restart seek (%x, %v), sequential (%x, %v)", b, tab.numBlocks(), p, got.key, ok, want.key, wok)
				}
			}
		}
	})
}

// TestGetAllocs is the allocation guard of the block path: with the cache
// holding about a quarter of the blocks, a point Get that hits the cache and
// one that misses it both average under one allocation (the block is read
// where it lies, never decoded into a fresh slice).
func TestGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, ks := loadDB(t, nil, 20000, 29)
	db.cache = newBlockCache(db.DiskUsage() / 4)
	// One key per block, table by table: cycling through them is a sweep
	// four times the cache, which CLOCK answers with a miss every time.
	var sweep [][]byte
	for _, level := range db.levels {
		for _, tab := range level {
			for b := range tab.numBlocks() {
				sweep = append(sweep, tab.fence(b))
			}
		}
	}
	next := 0
	miss := func() {
		if _, ok := db.Get(sweep[next%len(sweep)]); !ok {
			t.Fatal("fence key not found")
		}
		next++
	}
	for range 2 * len(sweep) {
		miss() // reach the steady state: slots and map at full size
	}
	const runs = 2000
	reads := db.Stats.BlockReads
	if a := testing.AllocsPerRun(runs, miss); a >= 1 {
		t.Fatalf("cache-miss Get: %.2f allocs/op", a)
	}
	if got := db.Stats.BlockReads - reads; got < runs {
		t.Fatalf("miss sweep read %d blocks in %d Gets", got, runs+1)
	}
	hits := db.Stats.CacheHits
	reads = db.Stats.BlockReads
	hit := func() { db.Get(ks[0]) }
	if a := testing.AllocsPerRun(runs, hit); a >= 1 {
		t.Fatalf("cache-hit Get: %.2f allocs/op", a)
	}
	if db.Stats.BlockReads-reads > 1 || db.Stats.CacheHits-hits < runs {
		t.Fatalf("hit loop: %d reads, %d hits", db.Stats.BlockReads-reads, db.Stats.CacheHits-hits)
	}
}

// TestSeekCandidateAllocs holds a SuRF table's seek candidate to one
// allocation, the key it returns: the seek runs on a pooled iterator.
func TestSeekCandidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(25_000, 35)))
	f, err := SuRFFilterBuilder(surf.RealConfig(8))(ks)
	if err != nil {
		t.Fatal(err)
	}
	probes := keys.EncodeUint64s(keys.RandomUint64(1000, 36))
	next := 0
	seek := func() {
		next++
		if _, approx, ok := f.SeekCandidate(probes[next%len(probes)]); ok != approx {
			t.Fatal("a SuRF candidate is always approximate")
		}
	}
	seek() // warm the iterator pool
	if a := testing.AllocsPerRun(2000, seek); a > 1 {
		t.Fatalf("SeekCandidate: %.2f allocs/op, want at most 1", a)
	}
}

// countingFilter counts the seek candidates its filter hands out.
type countingFilter struct {
	Filter
	cands *int
}

func (c countingFilter) SeekCandidate(lo []byte) ([]byte, bool, bool) {
	k, approx, ok := c.Filter.SeekCandidate(lo)
	if ok {
		*c.cands++
	}
	return k, approx, ok
}

// TestSeekAllocs holds a DB.Seek to the allocations of its SuRF candidate
// keys, one per table that yields a candidate: the candidate list lives on
// the stack and the block is read in place.
func TestSeekAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cands := 0
	build := SuRFFilterBuilder(surf.RealConfig(8))
	db, _ := loadDB(t, func(ks [][]byte) (Filter, error) {
		f, err := build(ks)
		return countingFilter{f, &cands}, err
	}, 20000, 31)
	for round := range 2 { // two level-0 tables above level 1
		for _, v := range keys.RandomUint64(2000, int64(34+round)) {
			db.Put(keys.Uint64(v), []byte{1})
		}
		db.Flush()
	}
	multi := 0
	for i, v := range keys.RandomUint64(100, 32) {
		lo := keys.Uint64(v)
		var hi []byte
		if i%2 == 0 {
			hi = keys.Uint64(v + 1<<48)
		}
		seek := func() { db.Seek(lo, hi) }
		seek() // cache the block it reads
		cands = 0
		seek()
		want := cands
		if want > 1 {
			multi++
		}
		if a := testing.AllocsPerRun(20, seek); a > float64(want) {
			t.Fatalf("Seek(%x, %x): %.2f allocs/op, want at most %d (its candidate keys)", lo, hi, a, want)
		}
	}
	if multi == 0 {
		t.Fatal("no seek met more than one candidate")
	}
}

// TestIndexBytesGauge checks each table's index against its blocks — a fence
// and its prefix per block, the key range, a restart point at every
// restartInterval-th record and nowhere else — and the lsm.index_bytes gauge
// against the arrays every table holds.
func TestIndexBytesGauge(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallConfig(nil)
	cfg.Obs = reg
	db := Open(cfg)
	for i, v := range keys.RandomUint64(30000, 33) {
		if err := db.Put(keys.Uint64(v), make([]byte, i%200)); err != nil {
			t.Fatal(err)
		}
	}
	var want int64
	for _, level := range db.levels {
		for _, tab := range level {
			if len(tab.fenceOff) != tab.numBlocks()+1 || len(tab.fencePfx) != tab.numBlocks() || len(tab.restartAt) != tab.numBlocks()+1 {
				t.Fatalf("table %d: %d blocks, %d fences, %d prefixes, %d restart runs", tab.id, tab.numBlocks(), len(tab.fenceOff)-1, len(tab.fencePfx), len(tab.restartAt)-1)
			}
			var last []byte
			for b, raw := range tab.blocks {
				var offs []uint32
				r := blockReader{raw: raw}
				for n := 0; ; n++ {
					off := r.off
					if !r.next() {
						break
					}
					if n == 0 && (!bytes.Equal(r.key, tab.fence(b)) || tab.fencePfx[b] != keys.Prefix8(r.key)) {
						t.Fatalf("table %d block %d: fence %x/%x, first key %x", tab.id, b, tab.fence(b), tab.fencePfx[b], r.key)
					}
					last = r.key
					if n > 0 && n%restartInterval == 0 {
						offs = append(offs, uint32(off))
					}
				}
				if got := tab.restarts[tab.restartAt[b]:tab.restartAt[b+1]]; !slices.Equal(got, offs) {
					t.Fatalf("table %d block %d: restarts %v, records at %v", tab.id, b, got, offs)
				}
			}
			if !bytes.Equal(tab.minKey, tab.fence(0)) || !bytes.Equal(tab.maxKey, last) || tab.maxPfx != keys.Prefix8(last) {
				t.Fatalf("table %d: range [%x, %x], blocks hold [%x, %x]", tab.id, tab.minKey, tab.maxKey, tab.fence(0), last)
			}
			want += int64(cap(tab.fenceKeys) + 4*cap(tab.fenceOff) + 8*cap(tab.fencePfx) + 4*cap(tab.restarts) + 4*cap(tab.restartAt))
		}
	}
	got := reg.Snapshot().Gauges["lsm.index_bytes"]
	if want == 0 || got != float64(want) {
		t.Fatalf("lsm.index_bytes = %v, the tables' arrays hold %d", got, want)
	}
	if disk := db.DiskUsage(); want*20 > disk {
		t.Fatalf("index %d B is over 5%% of the %d block bytes", want, disk)
	}
}

// TestMergeTablesRuns checks the compaction merge against a map oracle: runs
// of one or several tables, the later run winning a key, and tombstones kept
// above the bottom level and dropped at it.
func TestMergeTablesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var runs [][][]byte
	latest := map[string][]byte{}
	for run := 0; run < 4; run++ {
		var entries []Entry
		for range 3000 { // keys from a pool of 5000: runs share many
			v := []byte{1, byte(run)}
			if rng.Intn(4) == 0 {
				v = tombstoneMarker
			}
			entries = append(entries, Entry{Key: keys.Uint64(uint64(rng.Intn(5000))), Value: v})
		}
		slices.SortFunc(entries, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
		entries = slices.CompactFunc(entries, func(a, b Entry) bool { return bytes.Equal(a.Key, b.Key) })
		var blocks [][]byte
		for part := 0; part < 3; part++ { // a run of three disjoint tables
			tab, err := buildSSTable(1, entries[part*len(entries)/3:(part+1)*len(entries)/3], 512, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, tab.blocks...)
		}
		runs = append(runs, blocks)
		for _, e := range entries {
			latest[string(e.Key)] = e.Value
		}
	}
	for _, bottom := range []bool{false, true} {
		var want []Entry
		for k, v := range latest {
			if !bottom || !isTombstone(v) {
				want = append(want, Entry{Key: []byte(k), Value: v})
			}
		}
		slices.SortFunc(want, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
		got := mergeTables(runs, bottom)
		if !slices.EqualFunc(got, want, func(a, b Entry) bool { return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) }) {
			t.Fatalf("bottom=%v: merged %d records, oracle %d", bottom, len(got), len(want))
		}
	}
}
