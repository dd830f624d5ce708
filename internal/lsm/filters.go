package lsm

import (
	"mets/internal/bloom"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/surf"
)

// BloomFilterBuilder adapts the Bloom filter: point queries only (ranges
// always pass through, as in RocksDB).
func BloomFilterBuilder(bitsPerKey float64) FilterBuilder {
	return func(ks [][]byte) (Filter, error) {
		return &bloomAdapter{f: bloom.Build(ks, bitsPerKey)}, nil
	}
}

type bloomAdapter struct {
	f *bloom.Filter
}

func (b *bloomAdapter) Lookup(key []byte) bool         { return b.f.Contains(key) }
func (b *bloomAdapter) LookupRange(lo, hi []byte) bool { return true }
func (b *bloomAdapter) SeekCandidate(lo []byte) ([]byte, bool, bool) {
	return lo, true, true
}
func (b *bloomAdapter) Count(lo, hi []byte) (int, bool) { return 0, false }
func (b *bloomAdapter) MemoryUsage() int64              { return b.f.MemoryUsage() }

// SuRFFilterBuilder adapts a SuRF variant.
func SuRFFilterBuilder(cfg surf.Config) FilterBuilder {
	return func(ks [][]byte) (Filter, error) {
		f, err := surf.Build(ks, cfg)
		if err != nil {
			return nil, err
		}
		return &surfAdapter{f: f}, nil
	}
}

// SuRFFilterBuilderWithCodec adapts a SuRF variant for a DB whose keys are
// stored in codec-encoded space (Config.Codec): the builder still receives
// the table's — already encoded — keys, and additionally stamps each built
// filter with the codec's ID and serialized dictionary, so a filter that is
// marshaled out of the SSTable remains self-describing (Unmarshal can
// reconstruct the codec from the embedded dictionary and probe with
// re-encoded keys). Identity/nil codecs degrade to SuRFFilterBuilder.
func SuRFFilterBuilderWithCodec(cfg surf.Config, codec keycodec.Codec) FilterBuilder {
	if keycodec.IsIdentity(codec) {
		return SuRFFilterBuilder(cfg)
	}
	id := codec.ID()
	dict, derr := codec.MarshalBinary()
	return func(ks [][]byte) (Filter, error) {
		if derr != nil {
			return nil, derr
		}
		f, err := surf.Build(ks, cfg)
		if err != nil {
			return nil, err
		}
		f.SetKeyCodec(id, dict)
		return &surfAdapter{f: f}, nil
	}
}

type surfAdapter struct {
	f *surf.Filter
}

func (s *surfAdapter) Lookup(key []byte) bool { return s.f.Lookup(key) }

func (s *surfAdapter) LookupRange(lo, hi []byte) bool {
	if hi == nil {
		it := s.f.MoveToNext(lo)
		return it.Valid()
	}
	return s.f.LookupRange(lo, hi, false)
}

func (s *surfAdapter) SeekCandidate(lo []byte) ([]byte, bool, bool) {
	it := s.f.MoveToNext(lo)
	if !it.Valid() {
		return nil, false, false
	}
	// SuRF keys are truncated prefixes: always approximate.
	return it.Key(), true, true
}

func (s *surfAdapter) Count(lo, hi []byte) (int, bool) {
	if hi == nil {
		hi = keys.Successor(lo) // degenerate; callers pass closed ranges
	}
	return s.f.Count(lo, hi), true
}

func (s *surfAdapter) MemoryUsage() int64 { return s.f.MemoryUsage() }
