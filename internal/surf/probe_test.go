package surf

import (
	"bytes"
	"math/rand"
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

// BenchmarkSuRFProbe measures the three probes an LSM read puts in front of
// a table, on the table shape of the lsm-filter workload: a point Lookup,
// a seek candidate (AppendSeek into a fresh key, as the LSM's filter
// adapter returns it) and a closed-range LookupRange.
func BenchmarkSuRFProbe(b *testing.B) {
	fs, probes := probeTables(b, 16)
	his := make([][]byte, len(probes))
	for i, p := range probes {
		hi := keys.ToUint64(p) + probeWidth
		if hi < probeWidth {
			hi = ^uint64(0) // saturate at the top of the key space
		}
		his[i] = keys.Uint64(hi)
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
