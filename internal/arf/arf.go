// Package arf implements the Adaptive Range Filter of Alexiou et al.
// (Project Siberia / Hekaton), the baseline SuRF is compared against in
// Table 4.1: a binary tree over the 64-bit key space whose leaves mark their
// region as possibly-occupied or certainly-empty. The tree adapts to a
// training query workload under a space budget; queries have one-sided
// error (an occupied answer may be wrong, an empty answer never is).
//
// ARF supports fixed-length 64-bit integer keys only.
package arf

import "sort"

// Filter is a trained adaptive range filter.
type Filter struct {
	keys     []uint64 // sorted stored keys (training ground truth)
	root     *node
	numNodes int
	budget   int // max nodes (from the bits-per-key budget)
}

type node struct {
	left, right *node
	occupied    bool // leaf flag: region may contain keys
}

// New creates a filter over the given keys with a space budget in bits.
// Following the paper's encoding, a navigation bit is charged per node and
// an occupancy bit per leaf, so the node budget is spaceBits/2.
func New(ks []uint64, spaceBits int64) *Filter {
	sorted := append([]uint64(nil), ks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	f := &Filter{
		keys:   sorted,
		root:   &node{occupied: len(sorted) > 0},
		budget: int(spaceBits / 2),
	}
	f.numNodes = 1
	return f
}

// hasKeyIn reports whether any stored key lies in [lo, hi].
func (f *Filter) hasKeyIn(lo, hi uint64) bool {
	i := sort.Search(len(f.keys), func(i int) bool { return f.keys[i] >= lo })
	return i < len(f.keys) && f.keys[i] <= hi
}

// Train refines the tree for one training query [lo, hi]: regions of the
// query that contain no keys are carved out as empty leaves, subject to the
// node budget.
func (f *Filter) Train(lo, hi uint64) {
	f.train(f.root, 0, ^uint64(0), lo, hi)
}

func (f *Filter) train(n *node, rlo, rhi, qlo, qhi uint64) {
	if qhi < rlo || qlo > rhi {
		return
	}
	if n.left == nil {
		if !n.occupied {
			return // already known empty
		}
		if !f.hasKeyIn(rlo, rhi) {
			n.occupied = false
			return
		}
		// Region holds keys. If the query covers it fully there is nothing
		// to learn; otherwise split (budget permitting) so the key-free
		// part can be carved out.
		if (qlo <= rlo && qhi >= rhi) || rlo == rhi {
			return
		}
		if f.numNodes+2 > f.budget {
			return
		}
		mid := rlo + (rhi-rlo)/2
		n.left = &node{occupied: f.hasKeyIn(rlo, mid)}
		n.right = &node{occupied: f.hasKeyIn(mid+1, rhi)}
		f.numNodes += 2
	}
	mid := rlo + (rhi-rlo)/2
	f.train(n.left, rlo, mid, qlo, qhi)
	f.train(n.right, mid+1, rhi, qlo, qhi)
}

// Query reports whether keys may exist in [lo, hi]; false is exact.
func (f *Filter) Query(lo, hi uint64) bool {
	return query(f.root, 0, ^uint64(0), lo, hi)
}

func query(n *node, rlo, rhi, qlo, qhi uint64) bool {
	if qhi < rlo || qlo > rhi {
		return false
	}
	if n.left == nil {
		return n.occupied
	}
	mid := rlo + (rhi-rlo)/2
	return query(n.left, rlo, mid, qlo, qhi) || query(n.right, mid+1, rhi, qlo, qhi)
}

// TrainingMemory returns the bytes needed while building/training (the
// pointer tree plus the ground-truth key list) — the quantity Table 4.1
// calls "Build Mem".
func (f *Filter) TrainingMemory() int64 {
	return int64(f.numNodes)*32 + int64(len(f.keys))*8
}
