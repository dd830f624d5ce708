// Package masstree implements a single-threaded Masstree (§2.1): a trie
// with 8-byte keyslices per level where each trie node is a B+tree. Keys
// whose remainder after a slice is unique are kept in keybag-style suffix
// records instead of deeper layers. The Compact variant flattens each trie
// layer into sorted arrays with concatenated suffixes (Fig 2.4).
//
// Within a layer, a key's remainder maps to a 9-byte layer key: the 8-byte
// zero-padded slice followed by a length byte (0-8 for terminal remainders,
// 9 for "continues in a deeper layer"). This encoding is order-preserving
// and disambiguates remainders that are prefixes of each other.
package masstree

import (
	"bytes"

	"mets/internal/btree"
)

const (
	sliceLen    = 8
	layerKeyLen = 9
	// contMarker is the length byte of non-terminal layer keys.
	contMarker = 9
)

type recKind uint8

const (
	recValue recKind = iota
	recSuffix
	recLayer
)

// record is the target of a layer entry.
type record struct {
	kind   recKind
	value  uint64
	suffix []byte // recSuffix: remaining key bytes after the slice
	layer  *layer // recLayer
}

// layer is one trie node: a B+tree from 9-byte layer keys to record indexes.
type layer struct {
	tree *btree.Tree
}

func newLayer() *layer { return &layer{tree: btree.New()} }

// Tree is a dynamic Masstree mapping byte keys to uint64 values.
type Tree struct {
	root    *layer
	records []record
	free    []uint64
	length  int
}

// New returns an empty Masstree.
func New() *Tree { return &Tree{root: newLayer()} }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.length }

// layerKey encodes the remainder rem into dst (9 bytes) and reports whether
// the remainder is terminal.
func layerKey(dst []byte, rem []byte) bool {
	for i := 0; i < sliceLen; i++ {
		dst[i] = 0
	}
	if len(rem) <= sliceLen {
		copy(dst, rem)
		dst[sliceLen] = byte(len(rem))
		return true
	}
	copy(dst, rem[:sliceLen])
	dst[sliceLen] = contMarker
	return false
}

func (t *Tree) newRecord(r record) uint64 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		t.records[idx] = r
		return idx
	}
	t.records = append(t.records, r)
	return uint64(len(t.records) - 1)
}

// Insert adds key/value, returning false when the key already exists.
func (t *Tree) Insert(key []byte, value uint64) bool {
	if t.insertInto(t.root, key, value) {
		t.length++
		return true
	}
	return false
}

func (t *Tree) insertInto(l *layer, rem []byte, value uint64) bool {
	var lk [layerKeyLen]byte
	for {
		terminal := layerKey(lk[:], rem)
		recIdx, ok := l.tree.Get(lk[:])
		if !ok {
			var r record
			if terminal {
				r = record{kind: recValue, value: value}
			} else {
				r = record{kind: recSuffix, value: value, suffix: append([]byte(nil), rem[sliceLen:]...)}
			}
			l.tree.Insert(lk[:], t.newRecord(r))
			return true
		}
		if terminal {
			return false // an equal terminal layer key means an equal key
		}
		rec := &t.records[recIdx]
		switch rec.kind {
		case recLayer:
			l = rec.layer
			rem = rem[sliceLen:]
		case recSuffix:
			if bytes.Equal(rec.suffix, rem[sliceLen:]) {
				return false
			}
			// Keybag conflict: push both remainders into a fresh layer.
			// Re-index the record afterwards — the recursive insert may
			// grow the record table and invalidate rec.
			oldSuffix, oldValue := rec.suffix, rec.value
			nl := newLayer()
			t.insertInto(nl, oldSuffix, oldValue)
			t.records[recIdx] = record{kind: recLayer, layer: nl}
			l = nl
			rem = rem[sliceLen:]
		default:
			return false // cannot happen: terminal handled above
		}
	}
}

// lookupRecord walks to the record holding key, if any.
func (t *Tree) lookupRecord(key []byte) *record {
	l := t.root
	rem := key
	var lk [layerKeyLen]byte
	for {
		terminal := layerKey(lk[:], rem)
		recIdx, ok := l.tree.Get(lk[:])
		if !ok {
			return nil
		}
		rec := &t.records[recIdx]
		if terminal {
			return rec
		}
		switch rec.kind {
		case recLayer:
			l = rec.layer
			rem = rem[sliceLen:]
		case recSuffix:
			if bytes.Equal(rec.suffix, rem[sliceLen:]) {
				return rec
			}
			return nil
		default:
			return nil
		}
	}
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	if rec := t.lookupRecord(key); rec != nil {
		return rec.value, true
	}
	return 0, false
}

// Update overwrites the value of an existing key.
func (t *Tree) Update(key []byte, value uint64) bool {
	if rec := t.lookupRecord(key); rec != nil {
		rec.value = value
		return true
	}
	return false
}

// Delete removes key. Layers are not collapsed back into suffix records
// (lazy deletion; reclaimed at the next merge into the compact stage).
func (t *Tree) Delete(key []byte) bool {
	l := t.root
	rem := key
	var lk [layerKeyLen]byte
	for {
		terminal := layerKey(lk[:], rem)
		recIdx, ok := l.tree.Get(lk[:])
		if !ok {
			return false
		}
		rec := &t.records[recIdx]
		if terminal {
			l.tree.Delete(lk[:])
			t.free = append(t.free, recIdx)
			t.length--
			return true
		}
		switch rec.kind {
		case recLayer:
			l = rec.layer
			rem = rem[sliceLen:]
		case recSuffix:
			if !bytes.Equal(rec.suffix, rem[sliceLen:]) {
				return false
			}
			l.tree.Delete(lk[:])
			t.free = append(t.free, recIdx)
			t.length--
			return true
		default:
			return false
		}
	}
}

// Scan visits entries in key order from the smallest key >= start.
func (t *Tree) Scan(start []byte, fn func(key []byte, value uint64) bool) int {
	count := 0
	prefix := make([]byte, 0, 64)
	t.scanLayer(t.root, start, prefix, fn, &count)
	return count
}

// scanLayer walks one layer in order. start is the remaining filter (nil
// when every entry qualifies); prefix holds the key bytes consumed so far.
func (t *Tree) scanLayer(l *layer, start []byte, prefix []byte, fn func([]byte, uint64) bool, count *int) bool {
	var startLK []byte
	if start != nil {
		var lk [layerKeyLen]byte
		layerKey(lk[:], start)
		startLK = lk[:]
	}
	cont := true
	l.tree.Scan(startLK, func(lk []byte, recIdx uint64) bool {
		rec := &t.records[recIdx]
		isBoundary := start != nil && bytes.Equal(lk, startLK)
		switch rec.kind {
		case recValue:
			key := append(append([]byte(nil), prefix...), lk[:lk[sliceLen]]...)
			*count++
			cont = fn(key, rec.value)
		case recSuffix:
			key := append(append([]byte(nil), prefix...), lk[:sliceLen]...)
			key = append(key, rec.suffix...)
			if isBoundary && bytes.Compare(rec.suffix, start[sliceLen:]) < 0 {
				return true // the single suffixed key sorts below start
			}
			*count++
			cont = fn(key, rec.value)
		case recLayer:
			sub := append(append([]byte(nil), prefix...), lk[:sliceLen]...)
			var filter []byte
			if isBoundary {
				filter = start[sliceLen:]
			}
			cont = t.scanLayer(rec.layer, filter, sub, fn, count)
		}
		return cont
	})
	return cont
}

// MemoryUsage sums the layer B+trees, the record table, and suffix bytes.
func (t *Tree) MemoryUsage() int64 {
	var m int64
	m += int64(len(t.records)) * 48
	var walk func(l *layer)
	walk = func(l *layer) {
		m += l.tree.MemoryUsage()
		l.tree.Scan(nil, func(_ []byte, recIdx uint64) bool {
			rec := &t.records[recIdx]
			if rec.kind == recSuffix {
				m += int64(len(rec.suffix))
			}
			if rec.kind == recLayer {
				walk(rec.layer)
			}
			return true
		})
	}
	walk(t.root)
	return m
}
