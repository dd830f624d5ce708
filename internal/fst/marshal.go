package fst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mets/internal/bits"
)

// Serialization format (little-endian):
//
//	magic "FST1" | config | scalar counts | dense bitvectors | sparse
//	sections | values | per-level bookkeeping
//
// Version 2 ("FST2") prepends a key-codec annotation — codec id string and
// serialized codec dictionary — between the magic and the config word. It is
// written only when a codec is attached (SetKeyCodec), so raw-key tries keep
// producing byte-identical FST1 payloads; Unmarshal accepts both versions.
//
// Rank and select support structures are rebuilt on load (they are small
// and derive deterministically from the payload bits), so the on-disk form
// stays close to the succinct structure itself. The values are written one
// word each, as they were given, per region in slot order, and coded again
// on load, one run per level as the build does.

const (
	marshalMagic   = "FST1"
	marshalMagicV2 = "FST2"
)

// SetKeyCodec annotates the trie as indexing keys encoded by the identified
// codec; dict is the codec's serialized dictionary (keycodec MarshalBinary),
// embedded verbatim so the marshaled trie is self-describing. Both are
// stored as-is — the trie never interprets them.
func (t *Trie) SetKeyCodec(id string, dict []byte) {
	t.codecID = id
	t.codecDict = append([]byte(nil), dict...)
}

// KeyCodec returns the codec annotation ("" id for raw-key tries). The
// returned dictionary is not a copy; treat as read-only.
func (t *Trie) KeyCodec() (id string, dict []byte) { return t.codecID, t.codecDict }

type sectionWriter struct {
	w   io.Writer
	err error
}

func (s *sectionWriter) u64(v uint64) {
	if s.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, s.err = s.w.Write(b[:])
}

func (s *sectionWriter) bytes(b []byte) {
	s.u64(uint64(len(b)))
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
}

func (s *sectionWriter) words(ws []uint64) {
	s.u64(uint64(len(ws)))
	for _, w := range ws {
		s.u64(w)
	}
}

// values writes the runs' values as they were given, in slot order.
func (s *sectionWriter) values(runs []valueRun) {
	n := 0
	for _, r := range runs {
		n += r.f.Len()
	}
	s.u64(uint64(n))
	for _, r := range runs {
		it := r.iter(0)
		for range r.f.Len() {
			s.u64(it.next())
		}
	}
}

func (s *sectionWriter) ints(vs []int) {
	s.u64(uint64(len(vs)))
	for _, v := range vs {
		s.u64(uint64(v))
	}
}

func (s *sectionWriter) vector(v *bits.Vector) {
	s.u64(uint64(v.Len()))
	s.words(v.Words())
}

type sectionReader struct {
	r   *bytes.Reader
	err error
}

func (s *sectionReader) u64() uint64 {
	if s.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		s.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (s *sectionReader) bytes() []byte {
	n := s.u64()
	if s.err != nil {
		return nil
	}
	if n > uint64(s.r.Len()) {
		s.err = fmt.Errorf("fst: corrupt length %d", n)
		return nil
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(s.r, out); err != nil {
		s.err = err
		return nil
	}
	return out
}

func (s *sectionReader) words() []uint64 {
	n := s.u64()
	if s.err != nil {
		return nil
	}
	if n > uint64(s.r.Len()/8)+1 {
		s.err = fmt.Errorf("fst: corrupt word count %d", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.u64()
	}
	return out
}

func (s *sectionReader) ints() []int {
	n := s.u64()
	if s.err != nil {
		return nil
	}
	if n > uint64(s.r.Len()/8)+1 {
		s.err = fmt.Errorf("fst: corrupt int count %d", n)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(s.u64())
	}
	return out
}

func (s *sectionReader) vector() *bits.Vector {
	n := s.u64()
	ws := s.words()
	if s.err != nil {
		return nil
	}
	if uint64(len(ws)) != (n+63)/64 {
		s.err = fmt.Errorf("fst: vector size mismatch")
		return nil
	}
	return bits.FromWords(ws, int(n))
}

// MarshalBinary serializes the trie.
func (t *Trie) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	s := &sectionWriter{w: &buf}
	if t.codecID == "" && len(t.codecDict) == 0 {
		buf.WriteString(marshalMagic)
	} else {
		buf.WriteString(marshalMagicV2)
		s.bytes([]byte(t.codecID))
		s.bytes(t.codecDict)
	}
	// Config fields that affect query behaviour.
	flags := uint64(0)
	if t.cfg.Truncate {
		flags |= 1
	}
	if t.cfg.StoreValues {
		flags |= 2
	}
	if t.cfg.LinearLabelSearch {
		flags |= 4
	}
	s.u64(flags)
	s.u64(uint64(t.height))
	s.u64(uint64(t.denseHeight))
	s.u64(uint64(t.denseNodeCount))
	s.u64(uint64(t.denseChildCount))
	s.u64(uint64(t.numDenseLeaves))
	s.u64(uint64(t.numSparseLeaves))
	s.vector(&t.dLabels.Vector)
	s.vector(&t.dHasChild.Vector)
	s.vector(&t.dIsPrefix.Vector)
	s.bytes(t.sLabels)
	s.vector(&t.sHasChild.Vector)
	s.vector(&t.sLouds.Vector)
	dense := min(t.denseHeight, len(t.values)) // no runs without StoreValues
	s.values(t.values[:dense])
	s.values(t.values[dense:])
	s.ints(t.dLevelValueStart)
	s.ints(t.sLevelPosStart)
	s.ints(t.sLevelValueStart)
	if s.err != nil {
		return nil, s.err
	}
	return buf.Bytes(), nil
}

// UnmarshalTrie reconstructs a trie serialized by MarshalBinary, rebuilding
// the rank/select support with the default tuning.
func UnmarshalTrie(data []byte) (*Trie, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("fst: bad magic")
	}
	v2 := false
	switch string(data[:4]) {
	case marshalMagic:
	case marshalMagicV2:
		v2 = true
	default:
		return nil, fmt.Errorf("fst: bad magic")
	}
	s := &sectionReader{r: bytes.NewReader(data[4:])}
	t := &Trie{}
	if v2 {
		t.codecID = string(s.bytes())
		t.codecDict = s.bytes()
		if s.err != nil {
			return nil, s.err
		}
	}
	flags := s.u64()
	t.cfg.Truncate = flags&1 != 0
	t.cfg.StoreValues = flags&2 != 0
	t.cfg.LinearLabelSearch = flags&4 != 0
	t.height = int(s.u64())
	t.denseHeight = int(s.u64())
	t.denseNodeCount = int(s.u64())
	t.denseChildCount = int(s.u64())
	t.numDenseLeaves = int(s.u64())
	t.numSparseLeaves = int(s.u64())
	dLabels := s.vector()
	dHasChild := s.vector()
	dIsPrefix := s.vector()
	t.sLabels = s.bytes()
	sHasChild := s.vector()
	sLouds := s.vector()
	dValues, sValues := s.words(), s.words()
	t.dLevelValueStart = s.ints()
	t.sLevelPosStart = s.ints()
	t.sLevelValueStart = s.ints()
	if s.err != nil {
		return nil, s.err
	}
	if err := t.codeValues(dValues, sValues); err != nil {
		return nil, err
	}
	if s.r.Len() != 0 {
		return nil, fmt.Errorf("fst: %d trailing bytes", s.r.Len())
	}
	t.dLabels = bits.NewRankVector(dLabels, 64)
	t.dHasChild = bits.NewRankVector(dHasChild, 64)
	t.dIsPrefix = bits.NewRankVector(dIsPrefix, 64)
	t.sHasChild = bits.NewRankVector(sHasChild, 512)
	t.sLouds = bits.NewSelectVector(sLouds, 512, 64)
	return t, nil
}

// codeValues codes the values, given per region in slot order as
// marshaled, as the build does: one run per level (newValueRun), every run's
// array in one allocation.
func (t *Trie) codeValues(dValues, sValues []uint64) error {
	if !t.cfg.StoreValues {
		return nil
	}
	if len(dValues) != t.numDenseLeaves || len(t.dLevelValueStart) != t.denseHeight+1 || len(t.sLevelValueStart) != t.height-t.denseHeight+1 {
		return fmt.Errorf("fst: corrupt value layout")
	}
	vs := append(dValues, sValues...)
	t.values = make([]valueRun, t.height)
	for l := range t.values {
		lo, hi := t.levelSlot(l), t.levelSlot(l+1)
		if lo < 0 || lo > hi || hi > len(vs) {
			return fmt.Errorf("fst: corrupt value layout")
		}
		t.values[l] = newValueRun(vs[lo:hi])
	}
	t.valueBytes = shareRuns(t.values)
	return nil
}
