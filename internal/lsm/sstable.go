// Package lsm implements a log-structured merge-tree storage engine with
// the read paths of Fig 4.3: a MemTable over leveled, immutable SSTables cut
// into fixed-size blocks with fence indexes, a block cache, and pluggable
// per-table filters (none / Bloom / SuRF). "Disk" is simulated: block
// fetches that miss the cache are counted (and can be charged a configurable
// latency), which is the quantity that drives the Chapter 4 system results.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"mets/internal/keys"
)

// Entry is a key-value record.
type Entry struct {
	Key   []byte
	Value []byte
}

// Filter is the per-SSTable approximate-membership interface.
type Filter interface {
	Lookup(key []byte) bool
	// LookupRange reports whether a stored key may lie in [lo, hi); a nil
	// hi means +infinity (open seek).
	LookupRange(lo, hi []byte) bool
	// SeekCandidate returns the smallest stored (possibly truncated) key
	// >= lo, with approx=true when the key may be inexact; ok=false means
	// no stored key is >= lo. Filters without ordering (Bloom) return
	// ok=true, approx=true, candidate=lo.
	SeekCandidate(lo []byte) (candidate []byte, approx, ok bool)
	// Count approximates the number of stored keys in [lo, hi]; ok=false
	// means the filter cannot count (Bloom/none).
	Count(lo, hi []byte) (int, bool)
	MemoryUsage() int64
}

// FilterBuilder constructs a filter over an SSTable's sorted keys at
// compaction time; nil disables filtering.
type FilterBuilder func(ks [][]byte) (Filter, error)

// SSTable is one immutable sorted run.
type SSTable struct {
	id     uint64
	blocks [][]byte // serialized block payloads ("on disk")
	fence  [][]byte // first key of each block
	minKey []byte
	maxKey []byte
	filter Filter
	count  int
}

// NumEntries returns the number of records.
func (t *SSTable) NumEntries() int { return t.count }

// numBlocks returns the block count.
func (t *SSTable) numBlocks() int { return len(t.blocks) }

// buildSSTable serializes sorted entries into blocks of ~blockSize bytes.
func buildSSTable(id uint64, entries []Entry, blockSize int, fb FilterBuilder) (*SSTable, error) {
	t := &SSTable{id: id, count: len(entries)}
	if len(entries) == 0 {
		return t, nil
	}
	t.minKey = entries[0].Key
	t.maxKey = entries[len(entries)-1].Key
	var buf []byte
	blockStart := 0
	flush := func(end int) {
		if len(buf) == 0 {
			return
		}
		t.blocks = append(t.blocks, buf)
		t.fence = append(t.fence, entries[blockStart].Key)
		buf = nil
		blockStart = end
	}
	var tmp [binary.MaxVarintLen64]byte
	for i, e := range entries {
		n := binary.PutUvarint(tmp[:], uint64(len(e.Key)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, e.Key...)
		n = binary.PutUvarint(tmp[:], uint64(len(e.Value)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, e.Value...)
		if len(buf) >= blockSize {
			flush(i + 1)
		}
	}
	flush(len(entries))
	if fb != nil {
		ks := make([][]byte, len(entries))
		for i, e := range entries {
			ks[i] = e.Key
		}
		f, err := fb(ks)
		if err != nil {
			return nil, err
		}
		t.filter = f
	}
	return t, nil
}

// blockReader is the one cursor over a serialized block's records (uvarint
// key length, key, uvarint value length, value), read where the block lies:
// key and value alias the block, nothing is decoded or copied. Every block
// was built by buildSSTable in this process, so a malformed frame is a
// writer bug and panics.
type blockReader struct {
	raw        []byte
	off        int
	key, value []byte
}

// next advances to the following record; false at the end of the block.
func (r *blockReader) next() bool {
	if r.off >= len(r.raw) {
		return false
	}
	r.key, r.value = r.field(), r.field()
	return true
}

// field reads one length-prefixed frame. A frame that runs past the block, or
// whose length is not a minimal uvarint (the writer never makes one), is
// malformed.
func (r *blockReader) field() []byte {
	l, n := binary.Uvarint(r.raw[r.off:])
	if n <= 0 || l > uint64(len(r.raw)-r.off-n) || (n > 1 && r.raw[r.off+n-1] == 0) {
		panic(fmt.Sprintf("lsm: malformed block frame at %d (writer bug)", r.off))
	}
	start := r.off + n
	r.off = start + int(l)
	return r.raw[start:r.off]
}

// seek advances to the first record with key >= lo; false when the rest of
// the block holds none.
func (r *blockReader) seek(lo []byte) bool {
	for r.next() {
		if keys.Compare(r.key, lo) >= 0 {
			return true
		}
	}
	return false
}

// blockGet returns the value stored under key in one block: the scan stops
// at the first key >= key, which is the record or proves its absence.
func blockGet(raw, key []byte) ([]byte, bool) {
	r := blockReader{raw: raw}
	if r.seek(key) && bytes.Equal(r.key, key) {
		return r.value, true
	}
	return nil, false
}

// blockFor returns the index of the block that may contain key, or -1.
func (t *SSTable) blockFor(key []byte) int {
	if t.numBlocks() == 0 || keys.Compare(key, t.maxKey) > 0 {
		return -1
	}
	i := sort.Search(len(t.fence), func(i int) bool {
		return keys.Compare(t.fence[i], key) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// overlaps reports whether the table's key range intersects [lo, hi]; nil
// hi means +infinity.
func (t *SSTable) overlaps(lo, hi []byte) bool {
	if t.numBlocks() == 0 {
		return false
	}
	if hi != nil && keys.Compare(t.minKey, hi) > 0 {
		return false
	}
	return keys.Compare(t.maxKey, lo) >= 0
}

// MemoryUsage returns the in-memory footprint attributable to the table's
// resident metadata: fence keys and the filter ("disk" blocks excluded).
func (t *SSTable) MemoryUsage() int64 {
	var m int64
	for _, f := range t.fence {
		m += int64(len(f)) + 16
	}
	if t.filter != nil {
		m += t.filter.MemoryUsage()
	}
	return m
}

// DiskUsage returns the total serialized block bytes.
func (t *SSTable) DiskUsage() int64 {
	var m int64
	for _, b := range t.blocks {
		m += int64(len(b))
	}
	return m
}
