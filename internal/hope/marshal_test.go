package hope

import (
	"bytes"
	"testing"

	"mets/internal/keys"
)

func TestMarshalRoundTripAllSchemes(t *testing.T) {
	sample := keys.Dedup(keys.Emails(2000, 31))
	test := keys.Dedup(keys.Emails(1000, 32))
	for _, s := range Schemes {
		e, err := Train(sample, s, 1<<11)
		if err != nil {
			t.Fatal(err)
		}
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: marshal: %v", s, err)
		}
		e2, err := UnmarshalEncoder(data)
		if err != nil {
			t.Fatalf("%v: unmarshal: %v", s, err)
		}
		if e2.Scheme() != s {
			t.Fatalf("%v: scheme lost: got %v", s, e2.Scheme())
		}
		if e2.NumEntries() != e.NumEntries() {
			t.Fatalf("%v: dictionary size changed: %d -> %d", s, e.NumEntries(), e2.NumEntries())
		}
		d2 := e2.NewDecoder()
		for _, k := range test {
			want := e.Encode(k)
			got := e2.Encode(k)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: encoding diverged for %q: %x vs %x", s, k, got, want)
			}
			dec := d2.DecodeAppend(nil, got, len(got)*8)
			if s == DoubleChar {
				dec = bytes.TrimRight(dec, "\x00")
			}
			if !bytes.Equal(dec, k) {
				t.Fatalf("%v: unmarshaled decoder got %q, want %q", s, dec, k)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	sample := keys.Dedup(keys.Emails(500, 34))
	e, err := Train(sample, ThreeGrams, 1<<9)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("NOPE"),
		data[:len(data)/2],
		append(append([]byte(nil), data...), 0xFF),
	} {
		if _, err := UnmarshalEncoder(bad); err == nil {
			t.Fatalf("corrupt payload of %d bytes accepted", len(bad))
		}
	}
}

// TestDecodeSelfTerminating checks the property the codec layer relies on:
// decoding with nbits = len(enc)*8 (bit length unknown) stops at the padding
// because no codeword is all-zero.
func TestDecodeSelfTerminating(t *testing.T) {
	sample := keys.Dedup(keys.Emails(2000, 35))
	for _, s := range Schemes {
		e, err := Train(sample, s, 1<<11)
		if err != nil {
			t.Fatal(err)
		}
		d := e.NewDecoder()
		for i := 0; i < len(sample); i += 7 {
			k := sample[i]
			enc := e.Encode(k)
			dec := d.DecodeAppend(nil, enc, len(enc)*8)
			if s == DoubleChar {
				dec = bytes.TrimRight(dec, "\x00")
			}
			if !bytes.Equal(dec, k) {
				t.Fatalf("%v: padded decode of %q gave %q", s, k, dec)
			}
		}
	}
}

func TestEncodeDecodeAppendMatch(t *testing.T) {
	sample := keys.Dedup(keys.Emails(1000, 36))
	for _, s := range []Scheme{SingleChar, DoubleChar, ThreeGrams, ALMImproved} {
		e, err := Train(sample, s, 1<<11)
		if err != nil {
			t.Fatal(err)
		}
		d := e.NewDecoder()
		encBuf := make([]byte, 0, 256)
		decBuf := make([]byte, 0, 256)
		for _, k := range sample {
			encBuf = e.EncodeAppend(encBuf[:0], k)
			if want := e.Encode(k); !bytes.Equal(encBuf, want) {
				t.Fatalf("%v: EncodeAppend(%q) = %x, want %x", s, k, encBuf, want)
			}
			decBuf = d.DecodeAppend(decBuf[:0], encBuf, len(encBuf)*8)
			dec := decBuf
			if s == DoubleChar {
				dec = bytes.TrimRight(dec, "\x00")
			}
			if !bytes.Equal(dec, k) {
				t.Fatalf("%v: DecodeAppend round-trip of %q gave %q", s, k, dec)
			}
		}
	}
}
