package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"

	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/ycsb"
)

// Every input is a pure function of (-seed, -scale): key sets, value
// assignment, op order. Each use of randomness takes its own stream derived
// from the seed and a fixed tag, so adding a draw in one place never shifts
// another.

func rngFor(seed int64, tag int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + tag))
}

// sortedEmails returns n distinct host-reversed email keys in key order.
func sortedEmails(n int, seed int64) [][]byte {
	ks := keys.Emails(n, seed)
	sort.Slice(ks, func(i, j int) bool { return bytes.Compare(ks[i], ks[j]) < 0 })
	return ks
}

// sortedInts returns n distinct random 64-bit keys, big-endian, in key order.
func sortedInts(n int, seed int64) [][]byte {
	vs := keys.RandomUint64(n, seed)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return keys.Dedup(keys.EncodeUint64s(vs))
}

// valueOf is the value loaded under key index i (never 0, so a zero answer
// is always wrong).
func valueOf(i int) uint64 { return uint64(i) + 1 }

func entriesOf(ks [][]byte, idx []int) []index.Entry {
	es := make([]index.Entry, len(idx))
	for j, i := range idx {
		es[j] = index.Entry{Key: ks[i], Value: valueOf(i)}
	}
	return es
}

func allEntries(ks [][]byte) []index.Entry {
	es := make([]index.Entry, len(ks))
	for i, k := range ks {
		es[i] = index.Entry{Key: k, Value: valueOf(i)}
	}
	return es
}

// zipfian draws count key indexes in [0,n) from the repo's YCSB generator
// (theta 0.99, ranks scattered over the key space).
func zipfian(n, count int, seed int64) []int {
	ops := ycsb.NewGenerator(n, false, seed).Ops(ycsb.WorkloadC, count)
	out := make([]int, count)
	for i, o := range ops {
		out[i] = o.KeyIndex
	}
	return out
}

// every returns each step-th element, the deterministic sample codecs and
// routers are trained on.
func every(ks [][]byte, step int) [][]byte {
	out := make([][]byte, 0, len(ks)/step+1)
	for i := 0; i < len(ks); i += step {
		out = append(out, ks[i])
	}
	return out
}

// lowerBound is the index of the first key >= k in the sorted key table.
func lowerBound(ks [][]byte, k []byte) int {
	return sort.Search(len(ks), func(i int) bool { return bytes.Compare(ks[i], k) >= 0 })
}

// present reports whether k is in the sorted key table.
func present(ks [][]byte, k []byte) bool {
	i := lowerBound(ks, k)
	return i < len(ks) && bytes.Equal(ks[i], k)
}

// checkRun verifies a range result against the sorted key table: it must be
// exactly the want entries starting at key index idx, in order, with the
// loaded values.
func checkRun(ks [][]byte, idx, want int, got []index.Entry) bool {
	if idx+want > len(ks) {
		want = len(ks) - idx
	}
	if len(got) != want {
		return false
	}
	for j, e := range got {
		if e.Value != valueOf(idx+j) || !bytes.Equal(e.Key, ks[idx+j]) {
			return false
		}
	}
	return true
}

// streamHash digests op streams so tests can assert that one seed always
// produces byte-identical inputs.
func streamHash(streams [][]op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range streams {
		for _, o := range s {
			h.Write([]byte{byte(o.kind)})
			binary.LittleEndian.PutUint64(b[:], o.val)
			h.Write(b[:])
			h.Write(o.key)
			h.Write(o.hi)
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
