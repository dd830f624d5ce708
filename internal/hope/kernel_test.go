package hope

import (
	"bytes"
	"math/rand"
	"testing"

	"mets/internal/keys"
)

// edgeKeys widens a dataset with the shapes the kernels special-case: keys
// shorter than a gram, keys of exactly 8n bytes (the whole key is full
// eight-byte loads) and one byte either side of that.
func edgeKeys(ks [][]byte) [][]byte {
	out := append([][]byte(nil), ks...)
	for i, k := range ks {
		if i%7 != 0 {
			continue
		}
		long := bytes.Repeat(k, 4)
		for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 32} {
			if n <= len(long) {
				out = append(out, long[:n])
			}
		}
	}
	return out
}

// checkAgainstReference asserts the encoder, its decoder and the batch
// encoder agree with the reference on every key.
func checkAgainstReference(t *testing.T, name string, e *Encoder, ks [][]byte) {
	t.Helper()
	ref, err := newRefCodec(e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d := e.NewDecoder()
	for _, k := range ks {
		want, wantBits := ref.encodeBits(k)
		got, gotBits := e.EncodeBits(k)
		if !bytes.Equal(got, want) || gotBits != wantBits {
			t.Fatalf("%s: EncodeBits(%q) = %x/%d bits, reference %x/%d", name, k, got, gotBits, want, wantBits)
		}
		if app := e.EncodeAppend([]byte("dst"), k); !bytes.Equal(app[3:], want) || string(app[:3]) != "dst" {
			t.Fatalf("%s: EncodeAppend(%q) = %x, reference %x after the prefix", name, k, app, want)
		}
		for _, nbits := range []int{wantBits, len(want) * 8} {
			wantDec := ref.decodeAppend(nil, want, nbits)
			if dec := d.DecodeAppend(nil, want, nbits); !bytes.Equal(dec, wantDec) {
				t.Fatalf("%s: DecodeAppend(%x, %d) = %q, reference %q", name, want, nbits, dec, wantDec)
			}
		}
	}
	sorted := keys.Dedup(append([][]byte(nil), ks...))
	for i, enc := range e.EncodeBatch(sorted) {
		if want, _ := ref.encodeBits(sorted[i]); !bytes.Equal(enc, want) {
			t.Fatalf("%s: EncodeBatch[%d] (%q) = %x, reference %x", name, i, sorted[i], enc, want)
		}
	}
}

func TestKernelsMatchReference(t *testing.T) {
	datasets := []struct {
		name string
		keys [][]byte
	}{
		{"emails", keys.Dedup(keys.Emails(3000, 31))},
		{"urls", keys.Dedup(keys.URLs(3000, 32))},
		{"words", keys.Dedup(keys.Words(3000, 33))},
	}
	for _, ds := range datasets {
		probe := edgeKeys(ds.keys)
		for _, s := range Schemes {
			e := trainOn(t, ds.keys[:len(ds.keys)/2], s, 1<<11)
			checkAgainstReference(t, ds.name+"/"+s.String(), e, probe)
		}
	}
	ints := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(3000, 34)))
	checkAgainstReference(t, "ints/Single-Char", trainOn(t, ints[:1500], SingleChar, 0), edgeKeys(ints))
}

// TestKernelsMatchReferenceOnZeroBytes trains the interval schemes outside
// their documented domain — on keys full of 0x00 bytes, which makes
// boundaries that tie under zero-padding — and still expects the packed
// search to pick the interval the byte-wise search picks.
func TestKernelsMatchReferenceOnZeroBytes(t *testing.T) {
	small := make([]uint64, 3000)
	rng := rand.New(rand.NewSource(35))
	for i := range small {
		small[i] = uint64(rng.Intn(1 << 20)) // six leading zero bytes
	}
	ints := keys.Dedup(keys.EncodeUint64s(small))
	probe := edgeKeys(ints)
	for i := 0; i < 2000; i++ {
		k := make([]byte, 1+rng.Intn(12))
		for j := range k {
			k[j] = byte(rng.Intn(3)) // 0x00, 0x01, 0x02: dense ties
		}
		probe = append(probe, k)
	}
	for _, s := range []Scheme{ALM, ThreeGrams, FourGrams, ALMImproved} {
		checkAgainstReference(t, "zero-heavy/"+s.String(), trainOn(t, ints, s, 1<<10), probe)
	}
}

// randomCode draws a code word of the given length with clear low bits.
func randomCode(rng *rand.Rand, length int) Code {
	return Code{Bits: rng.Uint64() &^ (1<<uint(64-length) - 1), Len: uint8(length)}
}

// TestBitWriterMatchesReference drives code words of every legal length —
// the longest ones cannot share the 64-bit accumulator with even one pending
// bit — through both writers.
func TestBitWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for round := 0; round < 2000; round++ {
		var w bitWriter
		var ref refBitWriter
		for n := 1 + rng.Intn(40); n > 0; n-- {
			length := 1 + rng.Intn(64)
			if rng.Intn(4) == 0 {
				length = 55 + rng.Intn(10) // straddle the accumulator
			}
			c := randomCode(rng, length)
			w.writeCode(c)
			ref.writeCode(c)
			if w.bitLen() != ref.nbits {
				t.Fatalf("round %d: bit length %d, reference %d", round, w.bitLen(), ref.nbits)
			}
		}
		nbits := w.bitLen()
		got := w.finish()
		if !bytes.Equal(got, ref.buf) {
			t.Fatalf("round %d: wrote %x, reference %x", round, got, ref.buf)
		}
		// Resuming from any bit of the result continues the same string.
		cut := rng.Intn(nbits + 1)
		rw := resumeBitWriter(got, cut, 0)
		rref := refBitWriter{buf: append([]byte(nil), got[:(cut+7)/8]...), nbits: cut}
		if r := cut & 7; r != 0 {
			rref.buf[len(rref.buf)-1] &= 0xFF << uint(8-r)
		}
		c := randomCode(rng, 1+rng.Intn(64))
		rw.writeCode(c)
		rref.writeCode(c)
		if got := rw.finish(); !bytes.Equal(got, rref.buf) {
			t.Fatalf("round %d: resumed at bit %d wrote %x, reference %x", round, cut, got, rref.buf)
		}
	}
}

func TestReadWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 5000; round++ {
		enc := make([]byte, rng.Intn(24))
		rng.Read(enc)
		for pos := 0; pos <= len(enc)*8+9; pos++ {
			if got, want := readWindow(enc, pos), refReadWindow(enc, pos); got != want {
				t.Fatalf("readWindow(%x, %d) = %016x, reference %016x", enc, pos, got, want)
			}
		}
	}
}

func TestUnmarshalRejectsMalformedEntries(t *testing.T) {
	e := trainOn(t, emailSample(500, 38), ThreeGrams, 1<<9)
	good, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// First interval entry: u32 len | lo | u16 symLen | u64 bits | u8 codeLen.
	first := len(marshalMagic) + 4 + 4 + 1 + 4
	loLen := int(good[first])
	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), good...)
		mutate(b)
		if _, err := UnmarshalEncoder(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	corrupt("zero symbol length", func(b []byte) { b[first+4+loLen], b[first+4+loLen+1] = 0, 0 })
	corrupt("zero code length", func(b []byte) { b[first+4+loLen+2+8] = 0 })
	corrupt("code length above 64", func(b []byte) { b[first+4+loLen+2+8] = 65 })
	corrupt("bits below the code", func(b []byte) { b[first+4+loLen+2] |= 1 })
	corrupt("interval count beyond the payload", func(b []byte) { b[first-1] = 0x7F })
}

func TestUnmarshalRejectsBadBoundaries(t *testing.T) {
	payload := func(los ...string) []byte {
		w := &byteWriter{b: []byte(marshalMagic)}
		w.u32(marshalVersion)
		w.u32(uint32(ThreeGrams))
		w.u8(dictKindInterval)
		w.u32(uint32(len(los)))
		for i, lo := range los {
			w.bytes([]byte(lo))
			w.u16(1)
			w.code(Code{Bits: uint64(i+1) << 60, Len: 4})
		}
		return w.b
	}
	if _, err := UnmarshalEncoder(payload("a", "b", "c")); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if _, err := UnmarshalEncoder(payload("a", "c", "b")); err == nil {
		t.Error("unsorted boundaries accepted")
	}
	if _, err := UnmarshalEncoder(payload("a", "a")); err == nil {
		t.Error("duplicate boundaries accepted")
	}
	if _, err := UnmarshalEncoder(payload("a", "abcdefghi")); err == nil {
		t.Error("nine-byte boundary accepted")
	}
}
