package surf

import (
	"bytes"
	"testing"

	"mets/internal/keys"
)

func TestMarshalRoundTrip(t *testing.T) {
	ks := keys.Dedup(keys.Emails(5000, 1))
	for name, cfg := range variants() {
		f := build(t, ks, cfg)
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Behavioural equivalence on stored keys, absent keys, and ranges.
		for i, k := range ks {
			if !g.Lookup(k) {
				t.Fatalf("%s: loaded filter lost key %q", name, k)
			}
			if i%5 == 0 {
				probe := append(append([]byte(nil), k...), '!')
				if f.Lookup(probe) != g.Lookup(probe) {
					t.Fatalf("%s: point divergence on %q", name, probe)
				}
				hi := keys.Successor(k)
				if f.LookupRange(k, hi, false) != g.LookupRange(k, hi, false) {
					t.Fatalf("%s: range divergence on %q", name, k)
				}
			}
		}
		if f.numKeys != g.numKeys || f.Height() != g.Height() {
			t.Fatalf("%s: metadata mismatch", name)
		}
		if f.Count(ks[10], ks[4000]) != g.Count(ks[10], ks[4000]) {
			t.Fatalf("%s: count divergence", name)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a filter")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil accepted")
	}
	f := build(t, keys.Dedup(keys.Emails(100, 2)), RealConfig(8))
	data, _ := f.MarshalBinary()
	if _, err := Unmarshal(data[:len(data)/2]); err == nil {
		t.Fatal("truncated filter accepted")
	}
	// Flipping a length field must error, not panic.
	mut := append([]byte(nil), data...)
	mut[20] ^= 0xFF
	if _, err := Unmarshal(mut); err == nil {
		t.Log("mutated filter accepted (length fields happened to stay consistent)")
	}
}

func TestMarshalledSizeTracksMemory(t *testing.T) {
	ks := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(20000, 3)))
	f := build(t, ks, HashConfig(4))
	data, _ := f.MarshalBinary()
	// Serialized size should be within 2x of the in-memory accounting
	// (support structures are rebuilt on load, values are fixed-width).
	if int64(len(data)) > 2*f.MemoryUsage() {
		t.Fatalf("serialized %d bytes vs %d in memory", len(data), f.MemoryUsage())
	}
	if !bytes.HasPrefix(data, []byte("SuRF")) {
		t.Fatal("missing magic")
	}
}
