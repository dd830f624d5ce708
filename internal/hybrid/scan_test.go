package hybrid

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mets/internal/index"
	"mets/internal/keys"
)

// The scan-merge oracle table: every variant, under both memtables, with
// live, shadowing and tombstone states in the current memtable, in a frozen
// memtable whose background merge is held mid-build, and in the static stage,
// all at once — checked against a sorted map for Scan, ScanN and
// Snapshot.Scan from every start position, stopping at every position, and
// with a callback that calls back into the index.

// scanKeySpace mixes short strings over a small alphabet (so keys are
// prefixes of other keys and share heads) with the PR 2 bug class spelled
// out: a key, the same key followed by 0x00, and the same key followed by a
// letter, which the fixture below spreads over different stages.
func scanKeySpace(rng *rand.Rand) [][]byte {
	var ks [][]byte
	for len(ks) < 90 {
		k := make([]byte, 1+rng.Intn(4))
		for i := range k {
			k[i] = byte('a' + rng.Intn(3))
		}
		ks = append(ks, k)
	}
	for _, base := range []string{"ab", "ba", "ccc", "m"} {
		ks = append(ks, []byte(base), []byte(base+"\x00"), []byte(base+"\x00\x00"), []byte(base+"a"))
	}
	return keys.Dedup(ks)
}

// scanFixture is one index with its stages populated and the oracle of what
// it holds. release lets the held background merge finish (a no-op without a
// frozen stage).
type scanFixture struct {
	h       *Index
	space   [][]byte
	oracle  map[string]uint64
	release func()
}

// newScanFixture drives three rounds of operations through the public API,
// one per stage from the bottom up. After the static round the index is
// merged; after the frozen round the memtable is sealed by startMerge with
// the static builder blocked, so the generation keeps its frozen stage until
// release. Every key draws its own history: absent or live below, then
// untouched, updated (a shadowing state), deleted (a tombstone) or inserted
// in each round above — so a key deleted in the frozen stage can be revived
// in the memtable, a static key shadowed twice, and so on.
func newScanFixture(t *testing.T, ctor func(Config) *Index, epoch, withStatic, withFrozen bool) *scanFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	f := &scanFixture{
		h:       ctor(Config{MergeRatio: 2, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: epoch}),
		space:   scanKeySpace(rng),
		oracle:  map[string]uint64{},
		release: func() {},
	}
	next := uint64(1)
	round := func() {
		for _, k := range f.space {
			_, present := f.oracle[string(k)]
			switch p := rng.Intn(10); {
			case p < 4 && !present:
				if !f.h.Insert(k, next) {
					t.Fatalf("Insert(%q) refused", k)
				}
				f.oracle[string(k)] = next
			case p < 6 && present:
				if !f.h.Update(k, next) {
					t.Fatalf("Update(%q) refused", k)
				}
				f.oracle[string(k)] = next
			case p < 8 && present:
				if !f.h.Delete(k) {
					t.Fatalf("Delete(%q) refused", k)
				}
				delete(f.oracle, string(k))
			}
			next++
		}
	}
	if withStatic {
		round()
		round() // deletes of the first round's keys: the merge drops them
		f.h.Merge()
	}
	if withFrozen {
		round()
		gate := make(chan struct{})
		build := f.h.build
		f.h.build = func(es []index.Entry) (index.Static, error) {
			<-gate
			return build(es)
		}
		if !startMerge(f.h) {
			t.Fatal("the memtable was not sealed")
		}
		f.release = func() { close(gate); f.h.WaitMerges() }
	}
	round()
	g := f.h.gen.Load()
	if (g.static != nil) != withStatic || (g.frozen != nil) != withFrozen || g.mem.Nodes() == 0 {
		t.Fatalf("fixture stages: static=%v frozen=%v mem nodes=%d", g.static != nil, g.frozen != nil, g.mem.Nodes())
	}
	return f
}

// want returns the oracle's entries with key >= start, in order.
func (f *scanFixture) want(start []byte) []index.Entry {
	var out []index.Entry
	for k, v := range f.oracle {
		if start == nil || keys.Compare([]byte(k), start) >= 0 {
			out = append(out, index.Entry{Key: []byte(k), Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return keys.Compare(out[i].Key, out[j].Key) < 0 })
	return out
}

func sameEntries(got, want []index.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || got[i].Value != want[i].Value {
			return fmt.Errorf("entry %d = %q=%d, oracle %q=%d", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return nil
}

// scanner is what the live index and a snapshot of it share.
type scanner interface {
	Scan(start []byte, fn func(key []byte, value uint64) bool) int
	ScanN(start []byte, n int) []index.Entry
}

// liveIndex gives the live index the bounded scan a Snapshot has, read from the
// current generation.
type liveIndex struct{ *Index }

func (l liveIndex) ScanN(start []byte, n int) []index.Entry {
	return l.gen.Load().scanN(start, n)
}

// collect runs Scan from start, stopping on the limit-th callback (limit < 0:
// never), and returns clones of what it saw with Scan's own count.
func collect(s scanner, start []byte, limit int) ([]index.Entry, int) {
	var got []index.Entry
	n := s.Scan(start, func(k []byte, v uint64) bool {
		got = append(got, index.Entry{Key: append([]byte(nil), k...), Value: v})
		return len(got) != limit
	})
	return got, n
}

// checkScans holds one scanner to the oracle: from below, at, just past and
// above every key of the space (live, deleted and never inserted alike), and
// from the beginning stopping at every position.
func (f *scanFixture) checkScans(t *testing.T, what string, s scanner) {
	t.Helper()
	starts := [][]byte{nil, {}, []byte("\xff\xff")}
	for _, k := range f.space {
		starts = append(starts, k, keys.Next(k), k[:len(k)-1])
	}
	for _, start := range starts {
		want := f.want(start)
		got, n := collect(s, start, -1)
		if err := sameEntries(got, want); err != nil || n != len(want) {
			t.Fatalf("%s: Scan(%q) returned %d: %v", what, start, n, err)
		}
		for _, n := range []int{0, 1, 2, len(want), len(want) + 5} {
			if err := sameEntries(s.ScanN(start, n), want[:min(n, len(want))]); err != nil {
				t.Fatalf("%s: ScanN(%q, %d): %v", what, start, n, err)
			}
		}
	}
	all := f.want(nil)
	for stop := 1; stop <= len(all); stop++ {
		got, n := collect(s, nil, stop)
		if err := sameEntries(got, all[:stop]); err != nil || n != stop {
			t.Fatalf("%s: Scan stopped at %d returned %d: %v", what, stop, n, err)
		}
		if err := sameEntries(s.ScanN(nil, stop), all[:stop]); err != nil {
			t.Fatalf("%s: ScanN(nil, %d): %v", what, stop, err)
		}
	}
}

// checkReentrant scans with a callback that reads and writes the index it is
// being called from: a Get of the key it was handed, a nested Scan and ScanN
// from that key, and an Insert behind the scan position (which this scan must
// not see and the next one must). A callback run under a memtable lock would
// deadlock on the Insert; the watchdog turns that into a failure.
func (f *scanFixture) checkReentrant(t *testing.T) {
	t.Helper()
	all := f.want(nil)
	done := make(chan error, 2)
	go func() {
		i := 0
		n := f.h.Scan(nil, func(k []byte, v uint64) bool {
			if i >= len(all) || !bytes.Equal(k, all[i].Key) || v != all[i].Value {
				done <- fmt.Errorf("entry %d = %q=%d under a re-entrant callback", i, k, v)
				return false
			}
			k = append([]byte(nil), k...) // the nested scans reuse what k is lent from
			if got, ok := f.h.Get(k); !ok || got != v {
				done <- fmt.Errorf("nested Get(%q) = %d,%v, scan saw %d", k, got, ok, v)
				return false
			}
			nested, _ := collect(liveIndex{f.h}, k, 3)
			if err := sameEntries(nested, all[i:min(i+3, len(all))]); err != nil {
				done <- fmt.Errorf("nested Scan(%q): %v", k, err)
				return false
			}
			if err := sameEntries(liveIndex{f.h}.ScanN(k, 2), all[i:min(i+2, len(all))]); err != nil {
				done <- fmt.Errorf("nested ScanN(%q): %v", k, err)
				return false
			}
			behind := []byte(fmt.Sprintf("\x00behind%03d", i))
			if !f.h.Insert(behind, uint64(i)) {
				done <- fmt.Errorf("nested Insert(%q) refused", behind)
				return false
			}
			f.oracle[string(behind)] = uint64(i)
			i++
			return true
		})
		if n != len(all) {
			done <- fmt.Errorf("re-entrant scan returned %d, oracle %d", n, len(all))
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("scan with a re-entrant callback did not finish: callback run under a lock?")
	}
}

func TestScanMergeOracle(t *testing.T) {
	stages := []struct {
		name           string
		static, frozen bool
	}{
		{"static+frozen+mem", true, true},
		{"static+mem", true, false},
		{"frozen+mem", false, true},
		{"mem", false, false},
	}
	for variant, ctor := range variantCtors {
		for _, epoch := range []bool{false, true} {
			for _, st := range stages {
				t.Run(fmt.Sprintf("%s/epoch=%v/%s", variant, epoch, st.name), func(t *testing.T) {
					f := newScanFixture(t, ctor, epoch, st.static, st.frozen)
					defer func() { f.release() }()
					f.checkScans(t, "live", liveIndex{f.h})
					sn := Cut(f.h)[0]
					f.checkReentrant(t)
					f.checkScans(t, "live after the re-entrant inserts", liveIndex{f.h})

					// The snapshot predates the re-entrant inserts and must
					// still read as the index did then.
					live := f.oracle
					f.oracle = map[string]uint64{}
					for k, v := range live {
						if k[0] != 0 {
							f.oracle[k] = v
						}
					}
					f.checkScans(t, "snapshot", sn)
					sn.Release()
					f.oracle = live

					// The merge goes through the same walk: once it lands, and
					// again once the memtable is folded in, nothing may move.
					f.release()
					f.release = func() {}
					f.checkScans(t, "after the background merge", liveIndex{f.h})
					f.h.Merge()
					if g := f.h.gen.Load(); g.mem.Nodes() != 0 || g.frozen != nil || f.h.Len() != len(f.oracle) {
						t.Fatalf("after Merge: mem nodes=%d frozen=%v Len=%d oracle=%d", g.mem.Nodes(), g.frozen != nil, f.h.Len(), len(f.oracle))
					}
					f.checkScans(t, "fully merged", liveIndex{f.h})
				})
			}
		}
	}
}

// TestScanKeysAreLent documents the contract Scan shares with
// index.Static.Scan: the key is valid only until the callback returns. A
// callback that keeps the slice sees it overwritten — here by the compact
// B+tree rebuilding the next key of the leaf group in the same buffer; ScanN
// is the call that returns keys to keep.
func TestScanKeysAreLent(t *testing.T) {
	h := NewBTree(Config{MergeRatio: 2, MinDynamic: 1 << 30, BloomBitsPerKey: 10, EpochReads: true})
	for i := 0; i < 10; i++ {
		h.Insert([]byte(fmt.Sprintf("key%02d", i)), uint64(i))
	}
	h.Merge()
	var kept [][]byte
	h.Scan(nil, func(k []byte, _ uint64) bool {
		kept = append(kept, k)
		return len(kept) < 3
	})
	if string(kept[0]) == "key00" {
		t.Fatalf("a retained key still reads %q after two more callbacks: the static stage no longer lends its scan buffer, update the contract", kept[0])
	}
	for i, e := range (liveIndex{h}).ScanN(nil, 3) {
		if want := fmt.Sprintf("key%02d", i); string(e.Key) != want {
			t.Fatalf("ScanN[%d] = %q, want %q", i, e.Key, want)
		}
	}
}
