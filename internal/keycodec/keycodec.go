// Package keycodec defines the pluggable order-preserving key compression
// boundary of Chapter 6's integration: the sharded index encodes every key
// once, at its API boundary, through a Codec instead of assuming raw bytes,
// and the structures below it store the encoded keys as given.
//
// The contract every Codec must satisfy:
//
//   - Strictly order-preserving and injective on its key domain:
//     compare(a, b) and compare(Encode(a), Encode(b)) have the same sign.
//     This is what lets indexes store, route, and range-scan entirely in
//     encoded space — Encode of a range endpoint is a correct endpoint for
//     the encoded keys (EncodeBound), and lower-bound/successor arithmetic
//     (keys.Next on an encoded key) stays valid.
//   - Decode inverts Encode exactly on the key domain.
//   - Deterministic and immutable: a codec never changes its mapping after
//     construction ("frozen"). Rebuilding with a new dictionary is a new
//     codec with a new ID; indexes keep one codec for their lifetime, so
//     every frozen generation produced by background merges shares one
//     encoded space (the ID is stamped into SSTables and marshaled
//     FST/SuRF payloads to make mixing detectable).
//
// The HOPE codec's domain depends on the scheme: Single-Char accepts any
// byte string (integer keys included); the Double-Char, N-Grams, and ALM
// schemes require 0x00-free keys, matching internal/hope.
package keycodec

import (
	"fmt"
	"hash/fnv"

	"mets/internal/hope"
)

// Codec is an order-preserving key transformation (see the package comment
// for the invariants). Implementations must be safe for concurrent use.
type Codec interface {
	// ID names the codec version: the scheme plus a digest of the trained
	// dictionary. Two codecs with equal IDs encode identically.
	ID() string
	// Encode returns the encoded form of key in a fresh (or input-aliasing,
	// for the identity codec) slice.
	Encode(key []byte) []byte
	// EncodeAppend appends the encoded form of key to dst — the alloc-free
	// ingest/lookup hot path.
	EncodeAppend(dst, key []byte) []byte
	// EncodeBound maps a range endpoint into encoded space. Because codecs
	// are strictly monotone and total, the encoding of the endpoint itself
	// is correct for both lower bounds (x >= k iff enc(x) >= enc(k)) and
	// exclusive upper bounds; the method exists so call sites say what they
	// mean and the identity codec can skip copying.
	EncodeBound(key []byte) []byte
	// Decode inverts Encode.
	Decode(enc []byte) []byte
	// DecodeAppend appends the decoded key to dst — the alloc-free
	// scan-emit hot path.
	DecodeAppend(dst, enc []byte) []byte
	// MarshalBinary serializes the codec (scheme + dictionary) so encoded
	// structures (SSTable filters, FST/SuRF payloads) can embed it and
	// survive a round-trip.
	MarshalBinary() ([]byte, error)
}

// Marshal magics: identity has no payload; HOPE wraps the hope encoder's
// own serialization.
const (
	identityMagic = "KCID"
	hopeMagic     = "KCHO"
)

// IdentityID is the ID of the identity codec.
const IdentityID = "identity"

type identity struct{}

// Identity returns the no-op codec: encoded space is raw key space.
// Encode/Decode return their input unchanged (aliasing it).
func Identity() Codec { return identity{} }

func (identity) ID() string                        { return IdentityID }
func (identity) Encode(key []byte) []byte          { return key }
func (identity) EncodeAppend(dst, k []byte) []byte { return append(dst, k...) }
func (identity) EncodeBound(key []byte) []byte     { return key }
func (identity) Decode(enc []byte) []byte          { return enc }
func (identity) DecodeAppend(dst, e []byte) []byte { return append(dst, e...) }
func (identity) MarshalBinary() ([]byte, error)    { return []byte(identityMagic), nil }

// IsIdentity reports whether c is nil or the identity codec — the cases
// where an index can skip the encode/decode boundary entirely.
func IsIdentity(c Codec) bool { return c == nil || c.ID() == IdentityID }

// hopeCodec adapts a trained, frozen hope.Encoder to the Codec interface.
type hopeCodec struct {
	enc *hope.Encoder
	dec *hope.Decoder
	id  string
	// Double-Char encodes a trailing odd byte with its (b, 0x00) pair
	// entry, so decoding restores one spurious trailing 0x00 to strip
	// (Double-Char keys are 0x00-free, so it is always padding).
	stripPad bool
}

// NewHOPE wraps a trained hope.Encoder as a Codec. The encoder must not be
// retrained afterwards; the codec ID digests the dictionary at wrap time.
func NewHOPE(e *hope.Encoder) (Codec, error) {
	data, err := e.MarshalBinary()
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(data)
	return &hopeCodec{
		enc:      e,
		dec:      e.NewDecoder(),
		id:       fmt.Sprintf("hope:%s:%016x", e.Scheme(), h.Sum64()),
		stripPad: e.Scheme() == hope.DoubleChar,
	}, nil
}

// TrainHOPE trains a HOPE encoder of the given scheme on sample and wraps it
// as a Codec. dictLimit caps the dictionary size (0 = default).
func TrainHOPE(sample [][]byte, scheme hope.Scheme, dictLimit int) (Codec, error) {
	e, err := hope.Train(sample, scheme, dictLimit)
	if err != nil {
		return nil, err
	}
	return NewHOPE(e)
}

func (c *hopeCodec) ID() string { return c.id }

func (c *hopeCodec) Encode(key []byte) []byte { return c.enc.Encode(key) }

func (c *hopeCodec) EncodeAppend(dst, key []byte) []byte { return c.enc.EncodeAppend(dst, key) }

func (c *hopeCodec) EncodeBound(key []byte) []byte { return c.enc.Encode(key) }

func (c *hopeCodec) Decode(enc []byte) []byte { return c.DecodeAppend(nil, enc) }

func (c *hopeCodec) DecodeAppend(dst, enc []byte) []byte {
	// Encoded bit lengths are not stored: no codeword is all-zero, so the
	// byte-boundary padding decodes to nothing and the decoder stops.
	n := len(dst)
	dst = c.dec.DecodeAppend(dst, enc, len(enc)*8)
	if c.stripPad && len(dst) > n && dst[len(dst)-1] == 0 {
		dst = dst[:len(dst)-1]
	}
	return dst
}

func (c *hopeCodec) MarshalBinary() ([]byte, error) {
	data, err := c.enc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append([]byte(hopeMagic), data...), nil
}

// DictBytes returns the memory the codec holds: the encoder's dictionary
// arrays plus the decoder's tables over the same entries.
func (c *hopeCodec) DictBytes() int64 { return c.enc.MemoryUsage() + c.dec.MemoryUsage() }

// Unmarshal reconstructs a codec serialized by MarshalBinary. The result's
// ID equals the original's.
func Unmarshal(data []byte) (Codec, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("keycodec: payload too short")
	}
	switch string(data[:4]) {
	case identityMagic:
		if len(data) != 4 {
			return nil, fmt.Errorf("keycodec: trailing bytes after identity codec")
		}
		return Identity(), nil
	case hopeMagic:
		e, err := hope.UnmarshalEncoder(data[4:])
		if err != nil {
			return nil, err
		}
		return NewHOPE(e)
	}
	return nil, fmt.Errorf("keycodec: unknown codec magic %q", data[:4])
}
