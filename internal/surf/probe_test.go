package surf

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mets/internal/keys"
)

// probeTables builds the LSM benchmark's filter shape: n tables of 25k
// random 64-bit keys each, SuRF-Real8, and probe keys uniform over the key
// space, as a table in a level sees them.
func probeTables(tb testing.TB, n int) ([]*Filter, [][]byte) {
	tb.Helper()
	fs := make([]*Filter, n)
	for i := range fs {
		f, err := Build(keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(25_000, int64(100+i)))), RealConfig(8))
		if err != nil {
			tb.Fatal(err)
		}
		fs[i] = f
	}
	return fs, keys.EncodeUint64s(keys.RandomUint64(1<<14, 7))
}

// probeWidth is the benchmark's closed-seek width: a sixteenth of the
// average gap between 400k random keys.
const probeWidth = ^uint64(0) / 400_000 / 16

// probeHi is the upper bound of the closed seek from p, saturated at the top
// of the key space.
func probeHi(p []byte) []byte {
	hi := keys.ToUint64(p) + probeWidth
	if hi < probeWidth {
		hi = ^uint64(0)
	}
	return keys.Uint64(hi)
}

// BenchmarkSuRFProbe measures the three probes an LSM read puts in front of
// a table, on the table shape of the lsm-filter workload: a point Lookup,
// a seek candidate (AppendSeek into a fresh key, as the LSM's filter
// adapter returns it) and a closed-range LookupRange.
func BenchmarkSuRFProbe(b *testing.B) {
	fs, probes := probeTables(b, 16)
	his := make([][]byte, len(probes))
	for i, p := range probes {
		his[i] = probeHi(p)
	}
	b.Run("Lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs[i&15].Lookup(probes[i&(len(probes)-1)])
		}
	})
	b.Run("SeekCandidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs[i&15].AppendSeek(nil, probes[i&(len(probes)-1)])
		}
	})
	b.Run("LookupRange", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i & (len(probes) - 1)
			fs[i&15].LookupRange(probes[j], his[j], false)
		}
	})
}

// TestAppendSeekMatchesMoveToNext checks the pooled probe against the
// iterator it shares its seek with, on every variant and both key types.
func TestAppendSeekMatchesMoveToNext(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, ks := range [][][]byte{
		keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(3000, 1))),
		keys.Dedup(keys.Emails(3000, 2)),
	} {
		for name, cfg := range variants() {
			f := build(t, ks, cfg)
			buf := []byte("prefix")
			for i := 0; i < 2000; i++ {
				q := append([]byte(nil), ks[rng.Intn(len(ks))]...)
				switch i % 3 {
				case 1:
					q[len(q)-1]++
				case 2:
					q = q[:rng.Intn(len(q)+1)]
				}
				it := f.MoveToNext(q)
				got, ok := f.AppendSeek(buf[:6], q)
				if ok != it.Valid() || !bytes.Equal(got[:6], []byte("prefix")) ||
					ok && !bytes.Equal(got[6:], it.Key()) {
					t.Fatalf("%s: AppendSeek(%q) = %q, %v; MoveToNext: %q, %v", name, q, got, ok, it.Key(), it.Valid())
				}
				buf = got
			}
		}
	}
}

// TestSuRFWideLevelIsDense checks that the table shape of BenchmarkSuRFProbe,
// whose level-1 nodes hold about 80 labels each, stores level 1 as
// LOUDS-Dense: a lookup ranks into it instead of selecting a node and
// searching its labels.
func TestSuRFWideLevelIsDense(t *testing.T) {
	fs, _ := probeTables(t, 2)
	for i, f := range fs {
		if got := f.trie.DenseHeight(); got != 2 {
			t.Errorf("table %d: DenseHeight = %d, want 2", i, got)
		}
	}
}

// heapGrowth returns how much the live heap grows while build runs and its
// result stays reachable: the least of three builds, since the runtime's
// own allocations only ever add to a reading.
func heapGrowth(build func() any) int64 {
	growth := int64(math.MaxInt64)
	for range 3 {
		before := liveHeap()
		v := build()
		growth = min(growth, int64(liveHeap())-int64(before))
		runtime.KeepAlive(v)
	}
	return growth
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDenseWideLevelSavesHeap holds the size rule to the heap: a SuRF-Real8
// filter over random ints built at the picked cutoff (level 1 dense) must
// take less heap than at the ratio rule's cutoff of 1, and MemoryUsage must
// stay within the heap growth.
func TestDenseWideLevelSavesHeap(t *testing.T) {
	for _, n := range []int{25_000, 400_000} {
		ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(n, 100)))
		var reported [2]int64
		var heap [2]int64
		for i, cut := range []int{-1, 1} {
			cfg := RealConfig(8)
			cfg.DenseLevels = cut
			heap[i] = heapGrowth(func() any {
				f := build(t, ks, cfg)
				reported[i] = f.MemoryUsage()
				return f
			})
			if reported[i] > heap[i] {
				t.Errorf("%d keys, cutoff %d: MemoryUsage %d B above the heap's %d B", n, cut, reported[i], heap[i])
			}
			t.Logf("%d keys, cutoff %d: MemoryUsage %d B, heap %d B (ratio %.3f)",
				n, cut, reported[i], heap[i], float64(reported[i])/float64(heap[i]))
		}
		if heap[0] >= heap[1] {
			t.Errorf("%d keys: picked cutoff takes %d B of heap, cutoff 1 %d B", n, heap[0], heap[1])
		}
		runtime.KeepAlive(ks)
	}
}
