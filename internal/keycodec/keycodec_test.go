package keycodec

import (
	"bytes"
	"testing"

	"mets/internal/hope"
	"mets/internal/keys"
	"mets/internal/obs"
)

func trainAll(tb testing.TB, sample [][]byte, limit int) map[hope.Scheme]Codec {
	tb.Helper()
	out := make(map[hope.Scheme]Codec, len(hope.Schemes))
	for _, s := range hope.Schemes {
		c, err := TrainHOPE(sample, s, limit)
		if err != nil {
			tb.Fatal(err)
		}
		out[s] = c
	}
	return out
}

func TestIdentity(t *testing.T) {
	c := Identity()
	if !IsIdentity(c) || !IsIdentity(nil) {
		t.Fatal("IsIdentity misclassifies")
	}
	k := []byte("hello")
	if got := c.Encode(k); !bytes.Equal(got, k) {
		t.Fatalf("identity encode changed key: %q", got)
	}
	if got := c.Decode(k); !bytes.Equal(got, k) {
		t.Fatalf("identity decode changed key: %q", got)
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID() != IdentityID {
		t.Fatalf("identity round-trip ID = %q", c2.ID())
	}
}

func TestHOPERoundTripAllSchemes(t *testing.T) {
	sample := keys.Dedup(keys.Emails(3000, 41))
	test := keys.Dedup(keys.Emails(2000, 42))
	for s, c := range trainAll(t, sample, 1<<11) {
		if IsIdentity(c) {
			t.Fatalf("%v: HOPE codec classified as identity", s)
		}
		var prev []byte
		for i, k := range test {
			enc := c.Encode(k)
			if dec := c.Decode(enc); !bytes.Equal(dec, k) {
				t.Fatalf("%v: decode(encode(%q)) = %q", s, k, dec)
			}
			if i > 0 && keys.Compare(prev, enc) >= 0 {
				t.Fatalf("%v: strict order violated at %q", s, k)
			}
			if b := c.EncodeBound(k); !bytes.Equal(b, enc) {
				t.Fatalf("%v: EncodeBound(%q) != Encode", s, k)
			}
			prev = enc
		}
	}
}

func TestHOPEOddLengthDoubleChar(t *testing.T) {
	// Odd-length keys exercise Double-Char's (b, 0x00) tail entry; the
	// decoder must strip exactly the restored pad byte.
	sample := [][]byte{[]byte("abc"), []byte("abcd"), []byte("x"), []byte("xyzzy")}
	c, err := TrainHOPE(append(sample, keys.Dedup(keys.Words(500, 43))...), hope.DoubleChar, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{[]byte("a"), []byte("abc"), []byte("abcde"), []byte("ab"), {}} {
		if dec := c.Decode(c.Encode(k)); !bytes.Equal(dec, k) {
			t.Fatalf("Double-Char round trip of %q gave %q", k, dec)
		}
	}
}

func TestMarshalPreservesID(t *testing.T) {
	sample := keys.Dedup(keys.Emails(1000, 44))
	for s, c := range trainAll(t, sample, 1<<10) {
		data, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if c2.ID() != c.ID() {
			t.Fatalf("%v: ID changed across marshal: %q -> %q", s, c.ID(), c2.ID())
		}
		for _, k := range sample[:100] {
			if !bytes.Equal(c.Encode(k), c2.Encode(k)) {
				t.Fatalf("%v: unmarshaled codec encodes differently", s)
			}
		}
	}
	// Distinct dictionaries must get distinct IDs.
	a, err := TrainHOPE(keys.Dedup(keys.Emails(1000, 45)), hope.ThreeGrams, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainHOPE(keys.Dedup(keys.URLs(1000, 46)), hope.ThreeGrams, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == b.ID() {
		t.Fatal("different dictionaries share an ID")
	}
}

func TestAppendPathsAllocFree(t *testing.T) {
	sample := keys.Dedup(keys.Emails(2000, 47))
	c, err := TrainHOPE(sample, hope.ThreeGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	encBuf := make([]byte, 0, 1024)
	decBuf := make([]byte, 0, 1024)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := sample[i%len(sample)]
		i++
		encBuf = c.EncodeAppend(encBuf[:0], k)
		decBuf = c.DecodeAppend(decBuf[:0], encBuf)
	})
	if allocs != 0 {
		t.Fatalf("EncodeAppend+DecodeAppend allocated %.1f/op in steady state", allocs)
	}
	if !bytes.Equal(decBuf, sample[(i-1)%len(sample)]) {
		t.Fatal("append path round trip broken")
	}
}

func TestInstrument(t *testing.T) {
	sample := keys.Dedup(keys.Emails(1000, 48))
	base, err := TrainHOPE(sample, hope.SingleChar, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := Instrument(base, reg)
	if c.ID() != base.ID() {
		t.Fatal("instrumentation changed the codec ID")
	}
	const rounds = 8
	var src, enc int64
	for r := 0; r < rounds; r++ {
		for _, k := range sample {
			e := c.Encode(k)
			src, enc = src+int64(len(k)), enc+int64(len(e))
			if dec := c.Decode(e); !bytes.Equal(dec, k) {
				t.Fatalf("instrumented round trip broke for %q", k)
			}
		}
	}
	snap := reg.Snapshot()
	// The byte counters behind keycodec.cpr see every call.
	if got := snap.Counters["keycodec.src_bytes"]; got != src {
		t.Fatalf("src_bytes %d, want %d", got, src)
	}
	if got := snap.Counters["keycodec.enc_bytes"]; got != enc {
		t.Fatalf("enc_bytes %d, want %d", got, enc)
	}
	// The latency histograms see one call in latencySampleEvery; the bounds
	// are more than five standard deviations either side of that.
	calls := int64(rounds * len(sample))
	for _, name := range []string{"keycodec.encode_ns", "keycodec.decode_ns"} {
		n := snap.Histograms[name].Count
		if want := calls / latencySampleEvery; n < want*3/4 || n > want*5/4 {
			t.Fatalf("%s holds %d samples of %d calls, want about %d", name, n, calls, want)
		}
	}
	if cpr := snap.Gauges["keycodec.cpr"]; cpr <= 1.0 {
		t.Fatalf("CPR gauge %.2f, want > 1 on email keys", cpr)
	}
	if snap.Gauges["keycodec.dict_bytes"] <= 0 {
		t.Fatal("dict_bytes gauge not set")
	}
	// Nil registry and identity codec pass through unwrapped.
	if Instrument(base, nil) != base {
		t.Fatal("nil registry should not wrap")
	}
	if id := Identity(); Instrument(id, reg) != id {
		t.Fatal("identity codec should not wrap")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte("XX"), []byte("KCZZ1234"), []byte("KCID!")} {
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
