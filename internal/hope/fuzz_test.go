package hope

import (
	"bytes"
	"testing"

	"mets/internal/keys"
)

// FuzzOrderPreservation trains each scheme once and checks the core
// invariant — encoded order equals source order — on fuzz-provided pairs.
func FuzzOrderPreservation(f *testing.F) {
	sample := keys.Dedup(keys.Emails(500, 1))
	encoders := make([]*Encoder, 0, len(Schemes))
	for _, s := range Schemes {
		e, err := Train(sample, s, 1<<10)
		if err != nil {
			f.Fatal(err)
		}
		encoders = append(encoders, e)
	}
	f.Add([]byte("com.a@x"), []byte("com.b@y"))
	f.Add([]byte("aaa"), []byte("aab"))
	f.Add([]byte{1, 2, 3}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// The N-gram/ALM schemes document a no-0x00 requirement.
		a = bytes.ReplaceAll(a, []byte{0}, []byte{1})
		b = bytes.ReplaceAll(b, []byte{0}, []byte{1})
		if len(a) > 256 || len(b) > 256 {
			return
		}
		for i, e := range encoders {
			// Strict sign preservation: no codeword is all-zero (see
			// reserveZeroCode), so byte-boundary padding cannot tie two
			// distinct encodings even when they differ only below bit
			// granularity.
			ea, eb := e.Encode(a), e.Encode(b)
			switch keys.Compare(a, b) {
			case -1:
				if keys.Compare(ea, eb) >= 0 {
					t.Fatalf("scheme %v: order(%q < %q) violated (%x vs %x)", Schemes[i], a, b, ea, eb)
				}
			case 1:
				if keys.Compare(ea, eb) <= 0 {
					t.Fatalf("scheme %v: order(%q > %q) violated (%x vs %x)", Schemes[i], a, b, ea, eb)
				}
			default:
				if !bytes.Equal(ea, eb) {
					t.Fatalf("scheme %v: equal inputs diverged", Schemes[i])
				}
			}
		}
	})
}

// FuzzEncodeMatchesReference holds the packed kernels to the reference
// encoder and decoder on arbitrary bytes. Every scheme must take any input
// without panicking and encode it exactly as the reference does (the packed
// search is exact even on 0x00 bytes, outside the interval schemes'
// documented domain — the last encoder is trained there to make boundary
// ties common); 0x00-free keys must also round-trip.
func FuzzEncodeMatchesReference(f *testing.F) {
	type pair struct {
		name string
		e    *Encoder
		d    *Decoder
		ref  *refCodec
	}
	var pairs []pair
	add := func(name string, sample [][]byte, s Scheme) {
		e, err := Train(sample, s, 1<<10)
		if err != nil {
			f.Fatal(err)
		}
		ref, err := newRefCodec(e)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{name, e, e.NewDecoder(), ref})
	}
	emails := keys.Dedup(keys.Emails(500, 1))
	for _, s := range Schemes {
		add(s.String(), emails, s)
	}
	add("3-Grams/binary", keys.Dedup(keys.EncodeUint64s(keys.MonoIncUint64(500, 1<<16))), ThreeGrams)

	f.Add([]byte("com.gmail@amy"))
	f.Add([]byte("ab"))                      // shorter than a gram
	f.Add([]byte("com.aol@"))                // exactly one eight-byte load
	f.Add([]byte("com.yahoo@li.ng1"))        // exactly two
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0}) // ties under zero-padding
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, key []byte) {
		if len(key) > 512 {
			return
		}
		zeroFree := !bytes.Contains(key, []byte{0})
		for _, p := range pairs {
			want, wantBits := p.ref.encodeBits(key)
			got, gotBits := p.e.EncodeBits(key)
			if !bytes.Equal(got, want) || gotBits != wantBits {
				t.Fatalf("%s: EncodeBits(%x) = %x/%d bits, reference %x/%d", p.name, key, got, gotBits, want, wantBits)
			}
			dec := p.d.DecodeAppend(nil, got, len(got)*8)
			if wantDec := p.ref.decodeAppend(nil, got, len(got)*8); !bytes.Equal(dec, wantDec) {
				t.Fatalf("%s: DecodeAppend(%x) = %x, reference %x", p.name, got, dec, wantDec)
			}
			if zeroFree {
				// Double-Char restores its trailing pad byte.
				if p.e.Scheme() == DoubleChar {
					dec = bytes.TrimRight(dec, "\x00")
				}
				if !bytes.Equal(dec, key) {
					t.Fatalf("%s: %x decodes to %x", p.name, key, dec)
				}
			}
		}
	})
}
