//go:build !race

package surf

import "testing"

// TestProbeAllocs holds the probes to their allocation budgets: a point
// Lookup, a LookupRange and a seek whose key goes into a reused buffer
// allocate nothing (the range probes run on a pooled trie iterator).
func TestProbeAllocs(t *testing.T) {
	fs, probes := probeTables(t, 2)
	buf := make([]byte, 0, 32)
	fs[0].LookupRange(probes[0], probes[0], true) // warm the iterator pool
	next := 0
	for _, c := range []struct {
		name  string
		probe func(f *Filter, k []byte)
	}{
		{"Lookup", func(f *Filter, k []byte) { f.Lookup(k) }},
		{"LookupRange", func(f *Filter, k []byte) { f.LookupRange(k, k, true) }},
		{"AppendSeek", func(f *Filter, k []byte) { buf, _ = f.AppendSeek(buf[:0], k) }},
	} {
		if a := testing.AllocsPerRun(2000, func() {
			next++
			c.probe(fs[next&1], probes[next%len(probes)])
		}); a != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", c.name, a)
		}
	}
}
