package fst

import (
	"bytes"
	"reflect"
	"testing"

	"mets/internal/keys"
)

// TestMarshalRoundTrip reloads tries whose values are their key indexes,
// which strictly rise along every level, and values of every width: the
// loaded trie must answer as the built one does and hold the same value runs
// in as much memory.
func TestMarshalRoundTrip(t *testing.T) {
	for dsName, ks := range datasets(t) {
		for _, vals := range [][]uint64{keyOrderValues(len(ks), 0, nil), staticValues(len(ks), []byte(dsName))} {
			trie, err := Build(ks, vals, Config{StoreValues: true, DenseLevels: -1})
			if err != nil {
				t.Fatal(err)
			}
			data, err := trie.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := UnmarshalTrie(data)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := loaded.MemoryUsage(), trie.MemoryUsage(); got != want || !reflect.DeepEqual(loaded.values, trie.values) {
				t.Fatalf("%s: loaded trie holds %d B and its value runs equal the built one's: %v; want %d B and true",
					dsName, got, reflect.DeepEqual(loaded.values, trie.values), want)
			}
			for i, k := range ks {
				if v, ok := loaded.Get(k); !ok || v != vals[i] {
					t.Fatalf("%s: loaded trie Get(%q) = %d,%v, want %d", dsName, k, v, ok, vals[i])
				}
			}
			// Iteration equivalence.
			it := loaded.NewIterator()
			it.First()
			for i := range ks {
				if !it.Valid() || !bytes.Equal(it.Key(), ks[i]) || it.Value() != vals[i] {
					t.Fatalf("%s: loaded trie iteration broke at %d", dsName, i)
				}
				it.Next()
			}
			// Counting equivalence.
			if loaded.CountLess(ks[len(ks)/2]) != trie.CountLess(ks[len(ks)/2]) {
				t.Fatalf("%s: CountLess diverged after round trip", dsName)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	ks := keys.Dedup(keys.Emails(500, 9))
	trie := buildExact(t, ks, Config{DenseLevels: -1})
	data, _ := trie.MarshalBinary()
	if _, err := UnmarshalTrie(data[:10]); err == nil {
		t.Fatal("truncated trie accepted")
	}
	if _, err := UnmarshalTrie([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := UnmarshalTrie(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
