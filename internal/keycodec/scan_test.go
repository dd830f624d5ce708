package keycodec

import (
	"bytes"
	"math/rand"
	"testing"

	"mets/internal/hope"
	"mets/internal/index"
	"mets/internal/keys"
	"mets/internal/obs"
)

// TestRunDecoderMatchesDecode holds the scan-emit decoder to Decode for every
// scheme, bare and instrumented, in scan order and shuffled, and for a codec
// that is neither (the fallback decodes each key whole).
func TestRunDecoderMatchesDecode(t *testing.T) {
	sample := keys.Dedup(keys.Emails(3000, 51))
	codecs := map[string]Codec{"identity": Identity()}
	for s, c := range trainAll(t, sample, 1<<11) {
		codecs[s.String()] = c
		codecs[s.String()+"/instrumented"] = Instrument(c, obs.NewRegistry())
	}
	shuffled := append([][]byte(nil), sample...)
	rand.New(rand.NewSource(52)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, c := range codecs {
		for _, order := range [][][]byte{sample, shuffled} {
			dec := NewRunDecoder(c)
			for _, k := range order {
				if got := dec.Next(c.Encode(k)); !bytes.Equal(got, k) {
					t.Fatalf("%s: Next(Encode(%q)) = %q", name, k, got)
				}
			}
		}
	}
}

// TestRunDecoderOddLengthDoubleChar: Double-Char restores a spurious 0x00
// after a trailing odd byte. The run decoder must cut it from what it returns
// but keep resuming from the bytes the codes really decode to — "abc" then
// "abcd" share the codes of "ab" only, "abc" twice shares all of them.
func TestRunDecoderOddLengthDoubleChar(t *testing.T) {
	c, err := TrainHOPE(keys.Dedup(keys.Words(500, 43)), hope.DoubleChar, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewRunDecoder(c)
	for _, k := range []string{"a", "abc", "abc", "abcd", "abcde", "abcd", "", "x", "xy", "x"} {
		if got := dec.Next(c.Encode([]byte(k))); string(got) != k {
			t.Fatalf("Double-Char run decode of %q gave %q", k, got)
		}
	}
}

// TestRunDecoderSamplesLatency: the instrumented codec's decode histogram
// keeps seeing one emitted key in latencySampleEvery.
func TestRunDecoderSamplesLatency(t *testing.T) {
	sample := keys.Dedup(keys.Emails(4000, 53))
	base, err := TrainHOPE(sample, hope.ThreeGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := Instrument(base, reg)
	enc := make([][]byte, len(sample))
	for i, k := range sample {
		enc[i] = base.Encode(k)
	}
	dec := NewRunDecoder(c)
	for _, e := range enc {
		dec.Next(e)
	}
	n := reg.Snapshot().Histograms["keycodec.decode_ns"].Count
	if want := int64(len(enc) / latencySampleEvery); n < want*3/4 || n > want*5/4 {
		t.Fatalf("decode_ns holds %d samples of %d emitted keys, want about %d", n, len(enc), want)
	}
}

// TestEncodeBoundCounted: a scan's start bound is an encode like any other —
// the byte counters behind keycodec.cpr and the latency histogram must see
// it.
func TestEncodeBoundCounted(t *testing.T) {
	sample := keys.Dedup(keys.Emails(2000, 54))
	base, err := TrainHOPE(sample, hope.ThreeGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := Instrument(base, reg)
	var src, enc int64
	for _, k := range sample {
		b := c.EncodeBound(k)
		if !bytes.Equal(b, base.EncodeBound(k)) {
			t.Fatalf("instrumented EncodeBound(%q) differs", k)
		}
		src, enc = src+int64(len(k)), enc+int64(len(b))
	}
	// Bound goes through the same method; nil codec and nil start do not.
	Bound(c, sample[0])
	src, enc = src+int64(len(sample[0])), enc+int64(len(base.Encode(sample[0])))
	if Bound(c, nil) != nil || !bytes.Equal(Bound(nil, sample[0]), sample[0]) {
		t.Fatal("Bound must pass a nil start and a nil codec through")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["keycodec.src_bytes"]; got != src {
		t.Fatalf("src_bytes %d after EncodeBound calls, want %d", got, src)
	}
	if got := snap.Counters["keycodec.enc_bytes"]; got != enc {
		t.Fatalf("enc_bytes %d after EncodeBound calls, want %d", got, enc)
	}
	calls := int64(len(sample) + 1)
	if n, want := snap.Histograms["keycodec.encode_ns"].Count, calls/latencySampleEvery; n < want/2 || n > want*2 {
		t.Fatalf("encode_ns holds %d samples of %d EncodeBound calls, want about %d", n, calls, want)
	}
}

// TestCollector drives the one ScanN collector the way an index does: keys
// lent in one reused buffer, encoded or raw, more keys than the slab was
// sized for, and a scan that emits nothing.
func TestCollector(t *testing.T) {
	sample := keys.Dedup(keys.Emails(500, 55))
	hopeCodec, err := TrainHOPE(sample, hope.ThreeGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	// The first key is the shortest, so the slab sized from it overflows.
	long := append([][]byte{[]byte("a")}, sample...)
	for name, c := range map[string]Codec{"raw": nil, "hope": hopeCodec} {
		for _, n := range []int{1, 7, len(long), len(long) + 10, 1 << 40} {
			col := NewCollector(c, n)
			var lent []byte
			want := 0
			for _, k := range long {
				if c != nil {
					k = c.Encode(k)
				}
				lent = append(lent[:0], k...) // overwritten by the next emit
				want++
				if col.Full() {
					t.Fatalf("%s n=%d: Full before emit %d", name, n, want)
				}
				if more := col.Emit(lent, uint64(want)); more != (want < n) {
					t.Fatalf("%s n=%d: emit %d returned %v", name, n, want, more)
				} else if !more {
					break
				}
			}
			got := col.Entries()
			if len(got) != min(n, len(long)) || col.Full() != (len(got) == n) {
				t.Fatalf("%s n=%d: collected %d, Full=%v", name, n, len(got), col.Full())
			}
			for i, e := range got {
				if !bytes.Equal(e.Key, long[i]) || e.Value != uint64(i+1) {
					t.Fatalf("%s n=%d: entry %d = %q=%d, want %q=%d", name, n, i, e.Key, e.Value, long[i], i+1)
				}
			}
		}
		if got := NewCollector(c, 5).Entries(); got != nil {
			t.Fatalf("%s: empty scan collected %v", name, got)
		}
	}
}

// TestScanEncoded checks the callback wrapper end to end over a sorted
// encoded "index": start bound in encoded space, keys decoded on emit.
func TestScanEncoded(t *testing.T) {
	sample := keys.Dedup(keys.Emails(800, 56))
	c, err := TrainHOPE(sample, hope.FourGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	stored := make([]index.Entry, len(sample))
	for i, k := range sample {
		stored[i] = index.Entry{Key: c.Encode(k), Value: uint64(i)}
	}
	from := len(sample) / 3
	i := from
	start, emit := ScanEncoded(c, sample[from], func(k []byte, v uint64) bool {
		if !bytes.Equal(k, sample[i]) || v != uint64(i) {
			t.Fatalf("emit %d = %q=%d, want %q", i, k, v, sample[i])
		}
		i++
		return true
	})
	if !bytes.Equal(start, stored[from].Key) {
		t.Fatalf("encoded start bound %x, want %x", start, stored[from].Key)
	}
	for _, e := range stored[from:] {
		emit(e.Key, e.Value)
	}
	if i != len(sample) {
		t.Fatalf("emitted %d of %d", i-from, len(sample)-from)
	}
}
