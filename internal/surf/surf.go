// Package surf implements the Succinct Range Filter of Chapter 4: a
// truncated Fast Succinct Trie extended with per-key suffix bits. SuRF
// answers approximate membership tests for single keys and for ranges with
// one-sided errors (no false negatives), plus approximate range counts.
//
// The four variants of §4.1 are configured by the suffix lengths:
// SuRF-Base (no suffix), SuRF-Hash (hashed suffix bits), SuRF-Real (real key
// suffix bits), and SuRF-Mixed (both).
package surf

import (
	"mets/internal/bits"
	"mets/internal/bloom"
	"mets/internal/fst"
	"mets/internal/keys"
)

// Config selects the SuRF variant and the underlying trie tuning.
type Config struct {
	// HashSuffixLen is the number of hashed suffix bits per key (§4.1.2).
	HashSuffixLen int
	// RealSuffixLen is the number of real key suffix bits per key (§4.1.3).
	RealSuffixLen int
	// Trie tuning (DenseLevels<0 means the ratio-based default).
	DenseLevels int
	DenseRatio  int
}

// BaseConfig returns SuRF-Base. HashConfig, RealConfig and MixedConfig
// return the other variants of Fig 4.1.
func BaseConfig() Config         { return Config{DenseLevels: -1} }
func HashConfig(bits int) Config { return Config{HashSuffixLen: bits, DenseLevels: -1} }
func RealConfig(bits int) Config { return Config{RealSuffixLen: bits, DenseLevels: -1} }
func MixedConfig(hash, real int) Config {
	return Config{HashSuffixLen: hash, RealSuffixLen: real, DenseLevels: -1}
}

// Filter is an immutable succinct range filter.
type Filter struct {
	cfg     Config
	trie    *fst.Trie
	numKeys int
	sufBits int
	// Per-key packed suffixes, indexed by build-time key index:
	// HashSuffixLen hash bits followed by RealSuffixLen real bits, MSB first.
	suffixes *bits.Vector

	// Key-codec annotation (SetKeyCodec): when the filter indexes
	// codec-encoded keys, the codec id and serialized dictionary travel with
	// the filter through Marshal/Unmarshal so a loaded filter is
	// self-describing. Empty for raw-key filters.
	codecID   string
	codecDict []byte
}

// Build constructs a filter over sorted unique keys.
func Build(ks [][]byte, cfg Config) (*Filter, error) {
	trie, err := fst.Build(ks, nil, fst.Config{
		Truncate:    true,
		DenseLevels: cfg.DenseLevels,
		DenseRatio:  cfg.DenseRatio,
	})
	if err != nil {
		return nil, err
	}
	f := &Filter{cfg: cfg, trie: trie, numKeys: len(ks),
		sufBits: cfg.HashSuffixLen + cfg.RealSuffixLen}
	if f.sufBits > 0 {
		f.suffixes = bits.NewVector(f.sufBits * len(ks))
		it := trie.NewIterator()
		for it.First(); it.Valid(); it.Next() {
			ref := it.LeafRef()
			key := ks[ref.KeyIndex]
			var v uint64
			if cfg.HashSuffixLen > 0 {
				v = bloom.Hash64(key) & (1<<uint(cfg.HashSuffixLen) - 1)
			}
			if cfg.RealSuffixLen > 0 {
				v = v<<uint(cfg.RealSuffixLen) | extractBits(key, int(ref.SuffixStart), cfg.RealSuffixLen)
			}
			f.putSuffix(it.Slot(), v)
		}
	}
	// The filter addresses suffixes by leaf slot; the build-time
	// back-references are no longer needed.
	trie.DropLeafRefs()
	return f, nil
}

// putSuffix writes the packed suffix word for key slot i.
func (f *Filter) putSuffix(i int, v uint64) {
	base := i * f.sufBits
	for b := f.sufBits - 1; b >= 0; b-- {
		if v&1 != 0 {
			f.suffixes.Set(base + b)
		}
		v >>= 1
	}
}

// suffix reads the packed suffix word for key slot i.
func (f *Filter) suffix(i int) uint64 {
	base := i * f.sufBits
	var v uint64
	for b := 0; b < f.sufBits; b++ {
		v <<= 1
		if f.suffixes.Get(base + b) {
			v |= 1
		}
	}
	return v
}

// hashPart and realPart split a packed suffix word.
func (f *Filter) hashPart(v uint64) uint64 { return v >> uint(f.cfg.RealSuffixLen) }
func (f *Filter) realPart(v uint64) uint64 {
	return v & (1<<uint(f.cfg.RealSuffixLen) - 1)
}

// extractBits returns the first n bits of key starting at byte offset start,
// MSB first, zero-padded past the end of the key.
func extractBits(key []byte, start, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v <<= 1
		byteIdx := start + i/8
		if byteIdx < len(key) {
			v |= uint64(key[byteIdx]>>(7-uint(i%8))) & 1
		}
	}
	return v
}

// Lookup performs an approximate point membership test: false guarantees
// the key was not inserted.
func (f *Filter) Lookup(key []byte) bool {
	slot, pathLen, _, ok := f.trie.GetSlot(key)
	if !ok {
		return false
	}
	if f.sufBits == 0 {
		return true
	}
	stored := f.suffix(slot)
	if f.cfg.HashSuffixLen > 0 {
		qh := bloom.Hash64(key) & (1<<uint(f.cfg.HashSuffixLen) - 1)
		if f.hashPart(stored) != qh {
			return false
		}
	}
	if f.cfg.RealSuffixLen > 0 {
		qr := extractBits(key, pathLen, f.cfg.RealSuffixLen)
		if f.realPart(stored) != qr {
			return false
		}
	}
	return true
}

// Iterator walks the filter's stored key prefixes in order.
type Iterator struct {
	f  *Filter
	it *fst.Iterator
	// FPFlag is set when the pointed leaf's stored prefix is a prefix of the
	// seek key, so the match may be a false positive (§4.1.5).
	FPFlag bool
}

// MoveToNext returns an iterator at the smallest stored key >= key, refined
// with real suffix bits when available.
func (f *Filter) MoveToNext(key []byte) *Iterator {
	it := f.trie.NewIterator()
	prefixMatch := it.SeekLowerBound(key)
	out := &Iterator{f: f, it: it}
	if prefixMatch && it.Valid() {
		if f.cfg.RealSuffixLen > 0 {
			// Compare the query's bits after the stored prefix with the
			// leaf's real suffix bits: strictly greater means the stored key
			// is certainly below the range, strictly smaller means it is
			// certainly inside, equal remains ambiguous.
			qr := extractBits(key, it.PathLen(), f.cfg.RealSuffixLen)
			stored := f.realPart(f.suffix(it.Slot()))
			switch {
			case qr > stored:
				it.Next()
			case qr == stored:
				out.FPFlag = true
			}
		} else {
			out.FPFlag = true
		}
	}
	return out
}

// Valid reports whether the iterator points at a stored key.
func (it *Iterator) Valid() bool { return it.it.Valid() }

// Next advances the iterator; FPFlag is cleared.
func (it *Iterator) Next() { it.it.Next(); it.FPFlag = false }

// Key returns the stored prefix at the iterator, extended with real suffix
// bits when the filter has them (rounded down to whole bytes).
func (it *Iterator) Key() []byte {
	k := it.it.Key()
	if it.f.cfg.RealSuffixLen >= 8 {
		real := it.f.realPart(it.f.suffix(it.it.Slot()))
		bytesAvail := it.f.cfg.RealSuffixLen / 8
		for i := 0; i < bytesAvail; i++ {
			b := byte(real >> uint(it.f.cfg.RealSuffixLen-8*(i+1)))
			if b == 0 {
				break // zero padding past the true end of the key
			}
			k = append(k, b)
		}
	}
	return k
}

// LookupRange performs an approximate range membership test on [lo, hi]
// when hiInclusive, or [lo, hi) otherwise: false guarantees that no key in
// the range was inserted.
func (f *Filter) LookupRange(lo []byte, hi []byte, hiInclusive bool) bool {
	it := f.MoveToNext(lo)
	if !it.Valid() {
		return false
	}
	k := it.Key()
	c := keys.Compare(k, hi)
	switch {
	case c < 0:
		// k could still be a truncated prefix of a stored key beyond hi, but
		// when k is not a prefix of hi the stored key shares k's first
		// differing byte and stays below hi; when k is a prefix of hi this
		// is the (allowed) false-positive case.
		return true
	case c == 0:
		return hiInclusive
	default:
		return false
	}
}

// Count returns the approximate number of stored keys in [lo, hi]; the
// result can over-count by at most two (§4.1.5).
func (f *Filter) Count(lo, hi []byte) int {
	return f.trie.Count(lo, hi)
}

// NumKeys returns the number of keys the filter was built over.
func (f *Filter) NumKeys() int { return f.numKeys }

// Height returns the underlying trie height (Fig 6.16).
func (f *Filter) Height() int { return f.trie.Height() }

// MemoryUsage returns the filter size in bytes: trie plus suffix bits.
func (f *Filter) MemoryUsage() int64 {
	m := f.trie.MemoryUsage()
	if f.suffixes != nil {
		m += f.suffixes.MemoryUsage()
	}
	return m
}

// BitsPerKey returns the filter's size in bits per stored key.
func (f *Filter) BitsPerKey() float64 {
	return float64(f.MemoryUsage()*8) / float64(f.numKeys)
}
