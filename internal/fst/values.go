package fst

import "mets/internal/bits"

// valueRun is a run of values in one bits.FOR: a trie level's values in slot
// order, or a key column's. A run that strictly rises — tuple IDs in key
// order — is coded as x_i − i (step 1), which never falls and spans n fewer
// values, so its Elias–Fano form is smaller; any other run as given.
type valueRun struct {
	f    bits.FOR
	step uint64
}

// coded returns what value i, v, is coded as.
func (r *valueRun) coded(i int, v uint64) uint64 { return v - uint64(i)*r.step }

func (r *valueRun) get(i int) uint64 { return r.f.Get(i) + uint64(i)*r.step }

// iter returns a decoder of the values from i on.
func (r *valueRun) iter(i int) runIter {
	return runIter{it: r.f.Iter(i), add: uint64(i) * r.step, step: r.step}
}

// runIter decodes a valueRun in order; add is what the next value gets back.
type runIter struct {
	it        bits.FORIter
	add, step uint64
}

func (it *runIter) next() uint64 {
	v := it.it.Next() + it.add
	it.add += it.step
	return v
}

// stepOf returns the step of a run that strictly rises, or does not.
func stepOf(strict bool) uint64 {
	if strict {
		return 1
	}
	return 0
}

// newValueRun codes vs, which it takes over as bits.NewFOR does.
func newValueRun(vs []uint64) valueRun {
	strict := true
	for i := 1; i < len(vs) && strict; i++ {
		strict = vs[i] > vs[i-1]
	}
	r := valueRun{step: stepOf(strict)}
	for i, v := range vs {
		vs[i] = r.coded(i, v)
	}
	r.f = bits.NewFOR(vs)
	return r
}

// shareRuns moves every run's array into one allocation (bits.Share) and
// returns its size.
func shareRuns(runs []valueRun) int64 {
	fs := make([]*bits.FOR, len(runs))
	for i := range runs {
		fs[i] = &runs[i].f
	}
	return bits.Share(fs...)
}
