package lsm

import (
	"mets/internal/bloom"
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

func (b *bloomAdapter) Lookup(key []byte) bool { return b.f.Contains(key) }
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

type surfAdapter struct {
	f *surf.Filter
}

func (s *surfAdapter) Lookup(key []byte) bool { return s.f.Lookup(key) }

func (s *surfAdapter) SeekCandidate(lo []byte) ([]byte, bool, bool) {
	// SuRF keys are truncated prefixes: always approximate.
	k, ok := s.f.AppendSeek(nil, lo)
	return k, ok, ok
}

func (s *surfAdapter) Count(lo, hi []byte) (int, bool) { return s.f.Count(lo, hi), true }

func (s *surfAdapter) MemoryUsage() int64 { return s.f.MemoryUsage() }
