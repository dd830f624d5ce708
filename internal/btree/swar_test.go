package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/index"
	"mets/internal/keys"
)

// adversarialKeys returns keys chosen to stress the prefix packing: empty
// and sub-8-byte keys, 0x00 and 0xff bytes (zero padding and the gapMax
// sentinel), and runs sharing exactly 7, 8, and 9 leading bytes so the
// branchless count must hand off to full comparisons.
func adversarialKeys() [][]byte {
	ks := [][]byte{
		{},
		{0x00},
		{0x00, 0x00},
		{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0x00, 0x01},
		{0xff},
		bytes.Repeat([]byte{0xff}, 7),
		bytes.Repeat([]byte{0xff}, 8),
		bytes.Repeat([]byte{0xff}, 9),
		bytes.Repeat([]byte{0xff}, 12),
		append(bytes.Repeat([]byte{0xff}, 8), 0x00),
		[]byte("a"),
		[]byte("ab"),
		[]byte("abcdefg"),
		[]byte("abcdefgh"),
		[]byte("abcdefgh\x00"),
		[]byte("abcdefgh\xff"),
		[]byte("abcdefghi"),
		[]byte("abcdefgi"),
		[]byte("abcdefhh"),
	}
	// A run sharing an 8-byte prefix with varied tails: every comparison
	// inside the run is decided past the packed word.
	for i := 0; i < 40; i++ {
		k := append([]byte("sameocto"), byte(i))
		ks = append(ks, append(k, bytes.Repeat([]byte{byte(i)}, i%5)...))
	}
	// And a run differing only inside the first 8 bytes.
	for i := 0; i < 40; i++ {
		ks = append(ks, []byte(fmt.Sprintf("k%06d", i*7)))
	}
	return ks
}

func TestPrefix8Monotone(t *testing.T) {
	ks := adversarialKeys()
	for _, a := range ks {
		for _, b := range ks {
			cmp := keys.Compare(a, b)
			pa, pb := keys.Prefix8(a), keys.Prefix8(b)
			if cmp <= 0 && pa > pb {
				t.Fatalf("keys.Prefix8 not monotone: %x <= %x but %016x > %016x", a, b, pa, pb)
			}
			if pa < pb && cmp >= 0 {
				t.Fatalf("keys.Prefix8 order lies: %016x < %016x but %x >= %x", pa, pb, a, b)
			}
		}
	}
}

func TestLt64Branchless(t *testing.T) {
	edge := []uint64{0, 1, 2, 0x7fffffffffffffff, 0x8000000000000000,
		0x8000000000000001, ^uint64(0), ^uint64(0) - 1}
	check := func(a, b uint64) {
		want := uint64(0)
		if a < b {
			want = 1
		}
		if got := lt64(a, b); got != want {
			t.Fatalf("lt64(%#x, %#x) = %d, want %d", a, b, got, want)
		}
	}
	for _, a := range edge {
		for _, b := range edge {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Uint64(), rng.Uint64())
	}
}

// TestSwarBoundsOracle compares swarLowerBound/swarUpperBound against
// sort.Search over every sorted window of the adversarial key set, probing
// with every key plus off-key perturbations.
func TestSwarBoundsOracle(t *testing.T) {
	all := keys.Dedup(adversarialKeys())
	sort.Slice(all, func(i, j int) bool { return keys.Compare(all[i], all[j]) < 0 })

	var queries [][]byte
	for _, k := range all {
		queries = append(queries, k)
		queries = append(queries, append(append([]byte(nil), k...), 0x00))
		queries = append(queries, append(append([]byte(nil), k...), 0xff))
		if len(k) > 0 {
			queries = append(queries, k[:len(k)-1])
		}
	}
	queries = append(queries, nil)

	for _, width := range []int{1, 3, fanout - 1, fanout, len(all)} {
		for lo := 0; lo+width <= len(all); lo += width {
			ks := all[lo : lo+width]
			pfx := make([]uint64, len(ks))
			for i, k := range ks {
				pfx[i] = keys.Prefix8(k)
			}
			for _, q := range queries {
				qp := keys.Prefix8(q)
				wantL := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], q) >= 0 })
				wantU := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], q) > 0 })
				if got := swarLowerBound(pfx, ks, q, qp); got != wantL {
					t.Fatalf("swarLowerBound(%x) over window[%d:%d] = %d, want %d", q, lo, lo+width, got, wantL)
				}
				if got := swarUpperBound(pfx, ks, q, qp); got != wantU {
					t.Fatalf("swarUpperBound(%x) over window[%d:%d] = %d, want %d", q, lo, lo+width, got, wantU)
				}
			}
		}
	}
}

// TestGappedLeafAdversarial drives the dynamic tree with the adversarial
// key set through inserts, point reads, ordered scans, and deletions.
func TestGappedLeafAdversarial(t *testing.T) {
	all := keys.Dedup(adversarialKeys())
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(all))
		tr := New()
		for _, i := range perm {
			if !tr.Insert(all[i], uint64(i)) {
				t.Fatalf("insert %x rejected", all[i])
			}
		}
		sorted := append([][]byte(nil), all...)
		sort.Slice(sorted, func(i, j int) bool { return keys.Compare(sorted[i], sorted[j]) < 0 })
		var got [][]byte
		tr.Scan(nil, func(k []byte, _ uint64) bool {
			got = append(got, append([]byte(nil), k...))
			return true
		})
		if len(got) != len(sorted) {
			t.Fatalf("scan returned %d keys, want %d", len(got), len(sorted))
		}
		for i := range got {
			if !bytes.Equal(got[i], sorted[i]) {
				t.Fatalf("scan[%d] = %x, want %x", i, got[i], sorted[i])
			}
		}
		for i, k := range all {
			if v, ok := tr.Get(k); !ok || v != uint64(i) {
				t.Fatalf("Get(%x) = %d,%v want %d", k, v, ok, i)
			}
		}
		// Delete every other key and re-verify both sides.
		for i, k := range all {
			if i%2 == 0 {
				if !tr.Delete(k) {
					t.Fatalf("Delete(%x) failed", k)
				}
			}
		}
		for i, k := range all {
			v, ok := tr.Get(k)
			if i%2 == 0 && ok {
				t.Fatalf("deleted key %x still visible", k)
			}
			if i%2 == 1 && (!ok || v != uint64(i)) {
				t.Fatalf("survivor %x lost: %d,%v", k, v, ok)
			}
		}
	}
}

// TestGappedLeafChurn runs a long random op mix against a map oracle so
// gap claiming, shifting, splits, and empty-leaf unlinking all get hit.
func TestGappedLeafChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	oracle := map[string]uint64{}
	for op := 0; op < 60000; op++ {
		k := keys.Uint64(uint64(rng.Intn(4000)) * 2654435761)
		switch rng.Intn(5) {
		case 0, 1:
			_, exists := oracle[string(k)]
			if tr.Insert(k, uint64(op)) == exists {
				t.Fatalf("op %d: insert(%x) disagrees with oracle (exists=%v)", op, k, exists)
			}
			if !exists {
				oracle[string(k)] = uint64(op)
			}
		case 2:
			_, exists := oracle[string(k)]
			if tr.Update(k, uint64(op)) != exists {
				t.Fatalf("op %d: update(%x) disagrees with oracle", op, k)
			}
			if exists {
				oracle[string(k)] = uint64(op)
			}
		case 3:
			_, exists := oracle[string(k)]
			if tr.Delete(k) != exists {
				t.Fatalf("op %d: delete(%x) disagrees with oracle", op, k)
			}
			delete(oracle, string(k))
		case 4:
			want, exists := oracle[string(k)]
			if v, ok := tr.Get(k); ok != exists || (ok && v != want) {
				t.Fatalf("op %d: get(%x) = %d,%v want %d,%v", op, k, v, ok, want, exists)
			}
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d, oracle %d", op, tr.Len(), len(oracle))
		}
	}
	// Final full-order check.
	var prev []byte
	n := tr.Scan(nil, func(k []byte, v uint64) bool {
		if prev != nil && keys.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %x then %x", prev, k)
		}
		prev = append(prev[:0], k...)
		if oracle[string(k)] != v {
			t.Fatalf("scan value mismatch at %x", k)
		}
		return true
	})
	if n != len(oracle) {
		t.Fatalf("final scan saw %d entries, oracle has %d", n, len(oracle))
	}
}

// TestGappedLeafMultimapChurn exercises duplicate runs spanning gapped
// splits.
func TestGappedLeafMultimapChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := NewMulti()
	oracle := map[string][]uint64{}
	for op := 0; op < 40000; op++ {
		k := keys.Uint64(uint64(rng.Intn(300)))
		s := string(k)
		switch rng.Intn(3) {
		case 0, 1:
			tr.Insert(k, uint64(op))
			oracle[s] = append(oracle[s], uint64(op))
		case 2:
			got := append([]uint64(nil), tr.GetAll(k)...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := append([]uint64(nil), oracle[s]...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("op %d: GetAll(%x) size %d, want %d", op, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: GetAll(%x)[%d] = %d, want %d", op, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCompactSWARAdversarial checks the static trees' SWAR descent against
// their dynamic counterpart on the adversarial keys.
func TestCompactSWARAdversarial(t *testing.T) {
	all := keys.Dedup(adversarialKeys())
	sort.Slice(all, func(i, j int) bool { return keys.Compare(all[i], all[j]) < 0 })
	entries := make([]index.Entry, len(all))
	for i, k := range all {
		entries[i] = index.Entry{Key: k, Value: uint64(i)}
	}
	c, err := NewCompact(entries)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCompactMulti(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range all {
		if v, ok := c.Get(k); !ok || v != uint64(i) {
			t.Fatalf("compact Get(%x) = %d,%v", k, v, ok)
		}
		if v, ok := cm.Get(k); !ok || v != uint64(i) {
			t.Fatalf("compact-multi Get(%x) = %d,%v", k, v, ok)
		}
		probe := append(append([]byte(nil), k...), 0x00)
		want := sort.Search(len(all), func(j int) bool { return keys.Compare(all[j], probe) >= 0 })
		var first []byte
		c.Scan(probe, func(kk []byte, _ uint64) bool { first = kk; return false })
		if want < len(all) {
			if !bytes.Equal(first, all[want]) {
				t.Fatalf("compact lower bound of %x = %x, want %x", probe, first, all[want])
			}
		} else if first != nil {
			t.Fatalf("compact Scan past end returned %x", first)
		}
	}
}

// FuzzNodeSearchSWAR fuzzes the branchless node search against the
// sort.Search oracle: the input is carved into a sorted node of up to
// fanout keys plus one query key.
func FuzzNodeSearchSWAR(f *testing.F) {
	f.Add([]byte("seed-corpus-entry"))
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// First byte sizes the query, the tail is carved into node keys.
		qn := int(data[0]) % 12
		data = data[1:]
		if qn > len(data) {
			qn = len(data)
		}
		q := data[:qn]
		rest := data[qn:]
		var ks [][]byte
		for len(rest) > 0 && len(ks) < fanout {
			n := int(rest[0]) % 12
			rest = rest[1:]
			if n > len(rest) {
				n = len(rest)
			}
			ks = append(ks, rest[:n])
			rest = rest[n:]
		}
		sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
		pfx := make([]uint64, len(ks))
		for i, k := range ks {
			pfx[i] = keys.Prefix8(k)
		}
		qp := keys.Prefix8(q)
		wantL := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], q) >= 0 })
		wantU := sort.Search(len(ks), func(i int) bool { return keys.Compare(ks[i], q) > 0 })
		if got := swarLowerBound(pfx, ks, q, qp); got != wantL {
			t.Fatalf("swarLowerBound(%x) = %d, want %d (node %x)", q, got, wantL, ks)
		}
		if got := swarUpperBound(pfx, ks, q, qp); got != wantU {
			t.Fatalf("swarUpperBound(%x) = %d, want %d (node %x)", q, got, wantU, ks)
		}
	})
}
