package surf

import (
	"bytes"
	"testing"

	"mets/internal/hope"
	"mets/internal/keycodec"
	"mets/internal/keys"
)

// TestMarshalVersioning pins the two-version wire format: raw-key filters
// keep emitting byte-identical SuRF-v1 payloads, codec-annotated filters
// switch to SuR2 and round-trip the codec id and dictionary alongside the
// filter behaviour.
func TestMarshalVersioning(t *testing.T) {
	ks := keys.Dedup(keys.Emails(3000, 11))
	f := build(t, ks, MixedConfig(4, 4))

	v1, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(v1[:4]) != "SuRF" {
		t.Fatalf("raw-key filter marshaled with magic %q, want SuRF", v1[:4])
	}
	g1, err := Unmarshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if id, dict := g1.KeyCodec(); id != "" || len(dict) != 0 {
		t.Fatalf("v1 payload produced codec annotation %q/%d bytes", id, len(dict))
	}

	dict := []byte("HOPE-dict-payload-opaque-to-surf")
	f.SetKeyCodec("hope:double:fedcba9876543210", dict)
	v2, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(v2[:4]) != "SuR2" {
		t.Fatalf("codec-annotated filter marshaled with magic %q, want SuR2", v2[:4])
	}
	g2, err := Unmarshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	id, gotDict := g2.KeyCodec()
	if id != "hope:double:fedcba9876543210" || !bytes.Equal(gotDict, dict) {
		t.Fatalf("annotation lost in round trip: %q / %x", id, gotDict)
	}
	// Filter behaviour must be unchanged by the annotation.
	for i, k := range ks {
		if !g2.Lookup(k) {
			t.Fatalf("SuR2-loaded filter lost key %q", k)
		}
		if i%7 == 0 {
			hi := keys.Successor(k)
			if f.LookupRange(k, hi, false) != g2.LookupRange(k, hi, false) {
				t.Fatalf("range divergence on %q after SuR2 round trip", k)
			}
		}
	}
	// Truncated annotation sections must be rejected, not crash.
	if _, err := Unmarshal(v2[:10]); err == nil {
		t.Fatal("truncated SuR2 payload accepted")
	}
}

// TestCodecFilterRoundTrip builds a filter over HOPE-encoded keys, stamps it
// with the codec's ID and dictionary, and checks that the SuR2 payload alone
// is enough to use it: the loaded filter names the codec, its embedded
// dictionary rebuilds a codec with that ID, and point and range probes with
// keys re-encoded by the rebuilt codec answer as the original filter does.
func TestCodecFilterRoundTrip(t *testing.T) {
	ks := keys.Dedup(keys.Emails(1500, 85))
	codec, err := keycodec.TrainHOPE(ks, hope.FourGrams, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = codec.Encode(k) // order-preserving: still sorted and unique
	}
	f := build(t, enc, RealConfig(8))
	dict, err := codec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f.SetKeyCodec(codec.ID(), dict)

	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	lid, ldict := loaded.KeyCodec()
	if lid != codec.ID() {
		t.Fatalf("loaded codec id = %q, want %q", lid, codec.ID())
	}
	recodec, err := keycodec.Unmarshal(ldict)
	if err != nil {
		t.Fatal(err)
	}
	if recodec.ID() != codec.ID() {
		t.Fatalf("reconstructed codec id = %q, want %q", recodec.ID(), codec.ID())
	}
	for _, k := range ks {
		if !loaded.Lookup(recodec.Encode(k)) {
			t.Fatalf("loaded filter rejects stored key %q", k)
		}
	}
	// Ranges between adjacent stored keys: no false negatives, and the same
	// verdicts as the original filter (marshaling is lossless).
	for i := 0; i+1 < len(ks) && i < 300; i++ {
		lo, hi := recodec.EncodeBound(ks[i]), recodec.EncodeBound(ks[i+1])
		want := f.LookupRange(lo, hi, true)
		if got := loaded.LookupRange(lo, hi, true); got != want {
			t.Fatalf("LookupRange[%d] diverged after round trip: %v vs %v", i, got, want)
		}
		if !want {
			t.Fatalf("LookupRange[%d] rejected a range containing stored key %q", i, ks[i])
		}
	}
}
