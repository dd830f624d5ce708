package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"mets/internal/keys"
	"mets/internal/lsm"
	"mets/internal/surf"
)

// lsm-filter is the Chapter 4 application: an LSM tree whose per-table SuRF
// filters decide whether a block is read at all. The data (29 MB of records)
// is several times the 8 MB block cache, one goroutine issues every op and
// flushes and compactions run inline, so the simulated-I/O counters repeat
// exactly from run to run.

const (
	lsmValueLen  = 64
	lsmTableKeys = 25_000 // about one 2 MB SSTable of 72-byte records
	lsmIORounds  = 3      // io_per_op is counted over the first rounds, which always run
)

// lsmSuRF is the filter under test.
var lsmSuRF = surf.RealConfig(8)

type lsmFilter struct {
	keys  [][]byte
	db    *lsm.DB
	ops   [][]op
	width uint64 // seek range width

	loadKeysPerS float64
	last         lsm.Stats
	perRound     []lsm.Stats
	probeFilter  *surf.Filter // traced run: one table's worth of keys
}

func lsmValue(i int) []byte {
	v := make([]byte, lsmValueLen)
	binary.BigEndian.PutUint64(v, valueOf(i))
	for j := 8; j < lsmValueLen; j++ {
		v[j] = byte(i + j)
	}
	return v
}

// addUint is k+d, saturating at the top of the key space.
func addUint(k []byte, d uint64) []byte {
	v := keys.ToUint64(k)
	if v+d < v {
		return keys.Uint64(^uint64(0))
	}
	return keys.Uint64(v + d)
}

func setupLSMFilter(e *env) (instance, error) {
	w, err := setupLSM(e, lsm.SuRFFilterBuilder(lsmSuRF))
	if err != nil {
		return nil, err
	}
	return w, nil
}

// setupLSM takes the filter builder so a test can run the same workload with
// filters disabled and check that SuRF is what keeps the block reads down.
func setupLSM(e *env, filter lsm.FilterBuilder) (*lsmFilter, error) {
	ks := sortedInts(e.n(400_000, 5000), e.seed)
	cfg := lsm.DefaultConfig()
	cfg.Filter = filter
	w := &lsmFilter{keys: ks, db: lsm.Open(cfg)}
	// Average gap between keys is 2^64/n; a range a sixteenth of that wide
	// is empty about fifteen times in sixteen.
	w.width = ^uint64(0) / uint64(len(ks)) / 16

	t0 := time.Now()
	for _, i := range rngFor(e.seed, 300).Perm(len(ks)) {
		if err := w.db.Put(ks[i], lsmValue(i)); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	if err := w.db.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	w.loadKeysPerS = float64(len(ks)) / time.Since(t0).Seconds()
	w.last = w.db.Stats

	// 40% present Get, 40% absent Get, 20% closed-range Seek, uniform over
	// the key space (a filter is judged on cold keys, not a hot set).
	n := e.n(100_000, 12_000)
	rng := rngFor(e.seed, 310)
	ops := make([]op, n)
	for i := range ops {
		ki := rng.Intn(len(ks))
		o := op{kind: opGet, idx: ki, key: ks[ki], val: valueOf(ki)}
		// Absent keys and range starts are uniform over the key space, like
		// the loaded keys, so a filter sees no pattern it could exploit.
		if p := rng.Intn(100); p >= 40 {
			lo := keys.Uint64(rng.Uint64())
			at := lowerBound(ks, lo)
			switch {
			case at < len(ks) && bytes.Equal(ks[at], lo):
				// drew a loaded key: keep the present read
			case p < 80:
				o = op{kind: opGetAbsent, idx: at, key: lo}
			default:
				o = op{kind: opScan, idx: at, key: lo, hi: addUint(lo, w.width)}
			}
		}
		ops[i] = o
	}
	w.ops = [][]op{ops}
	return w, nil
}

func (w *lsmFilter) streams(int) ([][]op, error) { return w.ops, nil }

func (w *lsmFilter) do(_ int, o *op) bool {
	switch o.kind {
	case opGet:
		v, ok := w.db.Get(o.key)
		return ok && len(v) == lsmValueLen && binary.BigEndian.Uint64(v) == o.val
	case opGetAbsent:
		_, ok := w.db.Get(o.key)
		return !ok
	default:
		// The answer is the loaded key at idx when it lies below hi.
		got, ok := w.db.Seek(o.key, o.hi)
		if o.idx == len(w.keys) || bytes.Compare(w.keys[o.idx], o.hi) >= 0 {
			return !ok
		}
		return ok && bytes.Equal(got.Key, w.keys[o.idx]) && binary.BigEndian.Uint64(got.Value) == valueOf(o.idx)
	}
}

func (w *lsmFilter) endRound(int) error {
	s := w.db.Stats
	w.perRound = append(w.perRound, lsm.Stats{
		BlockReads:           s.BlockReads - w.last.BlockReads,
		CacheHits:            s.CacheHits - w.last.CacheHits,
		FilterNegatives:      s.FilterNegatives - w.last.FilterNegatives,
		FilterFalsePositives: s.FilterFalsePositives - w.last.FilterFalsePositives,
	})
	w.last = s
	return nil
}

func (w *lsmFilter) layers(_ int, o *op, t *opTrace) {
	t.child("surf.lookup_ns", func() {
		if w.probeFilter.Lookup(o.key) {
			t.keep(1)
		}
	})
}

// enableTrace builds the traced run's stand-in for one SSTable's filter over
// an even thinning of the key set, so any key walks a trie of a table's size.
func (w *lsmFilter) enableTrace() error {
	f, err := surf.Build(w.table(), lsmSuRF)
	w.probeFilter = f
	return err
}

func (w *lsmFilter) table() [][]byte {
	return every(w.keys, (len(w.keys)+lsmTableKeys-1)/lsmTableKeys)
}

func (w *lsmFilter) close() {}

func (w *lsmFilter) finish(out metrics, traced bool) (int, int, error) {
	// perRound[0] is the warm-up; the counted rounds follow it.
	var sum lsm.Stats
	for _, s := range w.perRound[1 : 1+lsmIORounds] {
		sum.BlockReads += s.BlockReads
		sum.CacheHits += s.CacheHits
		sum.FilterNegatives += s.FilterNegatives
		sum.FilterFalsePositives += s.FilterFalsePositives
	}
	if !traced {
		out.set("bits_per_key", float64(w.db.FilterMemory())*8/float64(len(w.keys)))
		return 0, 0, nil
	}
	out.set("io_per_op", float64(sum.BlockReads)/float64(lsmIORounds*len(w.ops[0])))
	fetches := float64(sum.BlockReads + sum.CacheHits)
	out.set("lsm.cache_hit_share", float64(sum.CacheHits)/fetches)
	out.set("lsm.filter_negative_share", float64(sum.FilterNegatives)/(float64(sum.FilterNegatives)+fetches))
	if d := sum.FilterNegatives + sum.FilterFalsePositives; d > 0 {
		out.set("lsm.filter_fpr", float64(sum.FilterFalsePositives)/float64(d))
	}
	out.set("lsm.flushes", float64(w.db.Stats.Flushes))
	out.set("lsm.compactions", float64(w.db.Stats.Compactions))
	out.set("lsm.filter_bytes", float64(w.db.FilterMemory()))
	out.set("lsm.load_keys_per_s", w.loadKeysPerS)

	var absent [][]byte
	for _, o := range w.ops[0] {
		if o.kind == opGetAbsent && len(absent) < 20_000 {
			absent = append(absent, o.key)
		}
	}
	return 0, 0, probeFilters(out, w.table(), lsmSuRF, absent, w.width)
}
