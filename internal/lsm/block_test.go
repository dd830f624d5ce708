package lsm

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/keys"
	"mets/internal/surf"
)

// oracleEntries returns sorted records whose keys are short strings over
// {a, b, 0x00}, so many keys are prefixes of others; every third value is
// empty and every third a tombstone.
func oracleEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	var ks [][]byte
	for i := 0; i < n; i++ {
		k := make([]byte, 1+rng.Intn(6))
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
			entries[i].Value = append([]byte{1}, k...)
		}
	}
	return entries
}

// TestBlockReaderMatchesOracle checks every path that reads blocks in place
// — point lookup, seek to the first key >= a probe, and Count — against a
// sorted slice, on a table cut into many small blocks.
func TestBlockReaderMatchesOracle(t *testing.T) {
	entries := oracleEntries(600, 2)
	tab, err := buildSSTable(1, entries, 48, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Config{})
	db.levels = [][]*SSTable{{tab}}
	if tab.numBlocks() < 20 {
		t.Fatalf("only %d blocks", tab.numBlocks())
	}
	var probes [][]byte
	for _, e := range entries {
		k := e.Key
		probes = append(probes, k, k[:len(k)-1], append(append([]byte(nil), k...), 0), append(append([]byte(nil), k...), 'c'))
	}
	lowerBound := func(p []byte) int {
		return sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].Key, p) >= 0 })
	}
	for _, p := range probes {
		i := lowerBound(p)
		want := i < len(entries) && bytes.Equal(entries[i].Key, p)
		var v []byte
		ok := false
		if b := tab.blockFor(p); b >= 0 {
			v, ok = blockGet(tab.blocks[b], p)
		}
		if ok != want || ok && !bytes.Equal(v, entries[i].Value) {
			t.Fatalf("get %q = %q, %v; oracle found=%v", p, v, ok, want)
		}
		e, ok := db.tableSeek(tab, p)
		if ok != (i < len(entries)) || ok && (!bytes.Equal(e.Key, entries[i].Key) || !bytes.Equal(e.Value, entries[i].Value)) {
			t.Fatalf("seek %q = %q, %v; oracle index %d of %d", p, e.Key, ok, i, len(entries))
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
			t.Fatalf("Count(%q, %q) = %d, oracle %d", lo, hi, got, want)
		}
	}
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
			sweep = append(sweep, tab.fence...)
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
