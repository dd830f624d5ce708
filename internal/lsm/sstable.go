// Package lsm implements a log-structured merge-tree storage engine with
// the read paths of Fig 4.3: a MemTable over leveled, immutable SSTables cut
// into fixed-size blocks with fence indexes, a block cache, and pluggable
// per-table filters (none / Bloom / SuRF). "Disk" is simulated: block
// fetches that miss the cache are counted, which is the quantity that drives
// the Chapter 4 system results.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"

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

// restartInterval is the number of records from one restart point to the
// next: a table keeps the offset of every restartInterval-th record of each
// block, so a lookup binary-searches those records and then walks fewer than
// restartInterval more. It is RocksDB's default.
const restartInterval = 16

// SSTable is one immutable sorted run. Beside its serialized blocks it keeps
// an in-memory index that leaves the block bytes as they are: the fence keys
// and their 8-byte prefixes, each in one array, and the blocks' restart
// points.
type SSTable struct {
	id     uint64
	blocks [][]byte // serialized block payloads ("on disk")
	// fenceKeys holds the first key of each block, then the table's max key;
	// fence b is fenceKeys[fenceOff[b]:fenceOff[b+1]].
	fenceKeys []byte
	fenceOff  []uint32
	// fencePfx[b] is keys.Prefix8(fence(b)): blockFor searches it and compares a
	// full fence key only where two prefixes tie.
	fencePfx []uint64
	// restarts holds the offsets of records restartInterval,
	// 2*restartInterval, ... of every block, block after block (record 0 is
	// at offset 0); block b's are restarts[restartAt[b]:restartAt[b+1]].
	restarts       []uint32
	restartAt      []uint32
	minKey, maxKey []byte // in fenceKeys
	minPfx, maxPfx uint64
	filter         Filter
}

// numBlocks returns the block count.
func (t *SSTable) numBlocks() int { return len(t.blocks) }

// buildSSTable serializes sorted entries into blocks of ~blockSize bytes.
func buildSSTable(id uint64, entries []Entry, blockSize int, fb FilterBuilder) (*SSTable, error) {
	t := &SSTable{id: id}
	if len(entries) == 0 {
		return t, nil
	}
	var buf []byte
	blockStart := 0
	t.restarts = make([]uint32, 0, len(entries)/restartInterval)
	t.restartAt = []uint32{0}
	flush := func(end int) {
		if len(buf) == 0 {
			return
		}
		t.blocks = append(t.blocks, buf)
		t.fenceOff = append(t.fenceOff, uint32(len(t.fenceKeys)))
		t.fenceKeys = append(t.fenceKeys, entries[blockStart].Key...)
		t.fencePfx = append(t.fencePfx, keys.Prefix8(entries[blockStart].Key))
		t.restartAt = append(t.restartAt, uint32(len(t.restarts)))
		buf = nil
		blockStart = end
	}
	var tmp [binary.MaxVarintLen64]byte
	for i, e := range entries {
		if r := i - blockStart; r > 0 && r%restartInterval == 0 {
			t.restarts = append(t.restarts, uint32(len(buf)))
		}
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
	t.fenceOff = append(t.fenceOff, uint32(len(t.fenceKeys)))
	t.fenceKeys = append(t.fenceKeys, entries[len(entries)-1].Key...)
	t.minKey, t.maxKey = t.fence(0), t.fenceKeys[t.fenceOff[len(t.blocks)]:]
	t.minPfx, t.maxPfx = t.fencePfx[0], keys.Prefix8(t.maxKey)
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

// fence returns the first key of block b.
func (t *SSTable) fence(b int) []byte { return t.fenceKeys[t.fenceOff[b]:t.fenceOff[b+1]] }

// comparePfx is keys.Compare(a, b) for keys whose prefixes are ap and bp.
func comparePfx(ap uint64, a []byte, bp uint64, b []byte) int {
	if ap != bp {
		if ap < bp {
			return -1
		}
		return 1
	}
	return keys.Compare(a, b)
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

// field reads one length-prefixed frame; a length below 128 is its one byte.
// A frame that runs past the block, or whose length is not a minimal uvarint
// (the writer never makes one), is malformed.
func (r *blockReader) field() []byte {
	var l uint64
	n := 1
	if r.off < len(r.raw) && r.raw[r.off] < 0x80 {
		l = uint64(r.raw[r.off])
	} else {
		l, n = binary.Uvarint(r.raw[r.off:])
	}
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

// seekBlock returns a reader over raw, the bytes of block b, at the block's
// first record with key >= lo: it binary-searches the block's restart points
// for the last one whose key is <= lo and walks on from there. ok is false
// when the block holds no such record.
func (t *SSTable) seekBlock(b int, raw, lo []byte) (r blockReader, ok bool) {
	rs := t.restarts[t.restartAt[b]:t.restartAt[b+1]]
	i, j := 0, len(rs)
	for i < j {
		h := int(uint(i+j) >> 1)
		r = blockReader{raw: raw, off: int(rs[h])}
		if keys.Compare(r.field(), lo) <= 0 {
			i = h + 1
		} else {
			j = h
		}
	}
	r = blockReader{raw: raw}
	if i > 0 {
		r.off = int(rs[i-1])
	}
	return r, r.seek(lo)
}

// blockGet returns the value stored under key in block b (raw): the seek
// stops at the first key >= key, which is the record or proves its absence.
func (t *SSTable) blockGet(b int, raw, key []byte) ([]byte, bool) {
	if r, ok := t.seekBlock(b, raw, key); ok && bytes.Equal(r.key, key) {
		return r.value, true
	}
	return nil, false
}

// blockFor returns the index of the block that may contain key, whose prefix
// is kp, or -1.
func (t *SSTable) blockFor(key []byte, kp uint64) int {
	if t.numBlocks() == 0 || comparePfx(kp, key, t.maxPfx, t.maxKey) > 0 {
		return -1
	}
	// The last block whose fence is <= key; block 0 when key is below all.
	i, j := 1, len(t.fencePfx)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p := t.fencePfx[h]; p < kp || p == kp && keys.Compare(t.fence(h), key) <= 0 {
			i = h + 1
		} else {
			j = h
		}
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

// DiskUsage returns the total serialized block bytes.
func (t *SSTable) DiskUsage() int64 {
	var m int64
	for _, b := range t.blocks {
		m += int64(len(b))
	}
	return m
}

// indexBytes is the memory the table's index holds beside its blocks: the
// fence keys and their offsets, the prefixes and the restart arrays.
func (t *SSTable) indexBytes() int64 {
	return int64(cap(t.fenceKeys) + 4*cap(t.fenceOff) + 8*cap(t.fencePfx) + 4*cap(t.restarts) + 4*cap(t.restartAt))
}
