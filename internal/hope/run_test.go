package hope

import (
	"bytes"
	"math/rand"
	"testing"

	"mets/internal/keys"
)

// checkRun feeds seq through one run decoder and requires every Next to equal
// a fresh DecodeAppend of the same bytes.
func checkRun(t *testing.T, name string, d *Decoder, seq [][]byte) {
	t.Helper()
	run := d.NewRun()
	for i, enc := range seq {
		want := d.DecodeAppend(nil, enc, len(enc)*8)
		if got := run.Next(enc); !bytes.Equal(got, want) {
			prev := []byte(nil)
			if i > 0 {
				prev = seq[i-1]
			}
			t.Fatalf("%s: Next[%d](%x) after %x = %q, DecodeAppend %q", name, i, enc, prev, got, want)
		}
	}
}

// TestRunDecoderMatches holds the run decoder to DecodeAppend on real
// datasets, in the order a scan emits keys (sorted), in an order it never
// does (shuffled), and sorted with random jumps — a new scan starting
// somewhere else on a decoder that still remembers the last one.
func TestRunDecoderMatches(t *testing.T) {
	for _, ds := range []struct {
		name string
		ks   [][]byte
	}{
		{"emails", keys.Dedup(keys.Emails(20000, 3))},
		{"urls", keys.Dedup(keys.URLs(20000, 3))},
	} {
		sample := make([][]byte, 0, len(ds.ks)/10+1)
		for i := 0; i < len(ds.ks); i += 10 {
			sample = append(sample, ds.ks[i])
		}
		rng := rand.New(rand.NewSource(5))
		for _, s := range Schemes {
			e := trainOn(t, sample, s, 1<<12)
			d := e.NewDecoder()
			sorted := make([][]byte, len(ds.ks))
			for i, k := range ds.ks {
				sorted[i] = e.Encode(k)
			}
			name := ds.name + "/" + s.String()
			checkRun(t, name+"/sorted", d, sorted)

			shuffled := append([][]byte(nil), sorted...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			checkRun(t, name+"/shuffled", d, shuffled)

			jumps := make([][]byte, 0, len(sorted))
			for i := 0; len(jumps) < len(sorted); i++ {
				if i == len(sorted) || rng.Intn(50) == 0 {
					i = rng.Intn(len(sorted))
				}
				jumps = append(jumps, sorted[i])
			}
			checkRun(t, name+"/jumps", d, jumps)
		}
	}
}

// TestRunDecoderEdgeSequences lists the shapes the resume logic
// special-cases: a repeated key, a key that is a strict prefix of the next
// (and the reverse), the empty key between others, keys long enough to
// outgrow the decoder's inline buffers, and — found by searching the sample
// — encodings whose last code ends exactly on a byte boundary beside ones
// padded by every width from 1 to 7 bits.
func TestRunDecoderEdgeSequences(t *testing.T) {
	sample := emailSample(2000, 17)
	long := bytes.Repeat([]byte("com.example@user-"), 40)
	for _, s := range Schemes {
		e := trainOn(t, sample, s, 1<<10)
		d := e.NewDecoder()
		enc := func(ks ...string) [][]byte {
			out := make([][]byte, len(ks))
			for i, k := range ks {
				out[i] = e.Encode([]byte(k))
			}
			return out
		}
		checkRun(t, s.String()+"/edges", d, enc(
			"com.gmail@amy", "com.gmail@amy", "com.gmail@amy1", "com.gmail@am", "", "com.gmail@amy",
			"", "", "a", "ab", "abc", "abcd", "abc", "ab", "a",
			string(long), string(long[:len(long)-1]), string(long)+"x", "com"))

		// One key per padding width 0..7, interleaved with their neighbours.
		var byPad [8][]byte
		found := 0
		for _, k := range sample {
			_, nbits := e.EncodeBits(k)
			if pad := (8 - nbits%8) % 8; byPad[pad] == nil {
				byPad[pad] = k
				found++
			}
		}
		if found < 8 && s != ALM { // ALM's fixed-length codes reach fewer widths
			t.Fatalf("%v: sample reaches only %d of 8 padding widths", s, found)
		}
		var seq [][]byte
		for _, k := range byPad {
			if k != nil {
				seq = append(seq, e.Encode(k), e.Encode(k[:len(k)-1]), e.Encode(k), e.Encode(append(k[:len(k):len(k)], 'z')))
			}
		}
		checkRun(t, s.String()+"/padding", d, seq)
	}
}

// FuzzRunDecoder is the differential over arbitrary key sequences: the input
// splits on 0x00 into keys (0x00-free, as the interval schemes require; two
// separators in a row give the empty key), which are run through every
// scheme in the order given, sorted, and reversed. The raw bytes are also fed
// to the decoder as if they were encodings: resuming is a property of the
// bits, so it must agree with DecodeAppend on input no encoder produced too.
func FuzzRunDecoder(f *testing.F) {
	sample := keys.Dedup(keys.Emails(500, 1))
	type pair struct {
		name string
		e    *Encoder
		d    *Decoder
	}
	var pairs []pair
	for _, s := range Schemes {
		e, err := Train(sample, s, 1<<10)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{s.String(), e, e.NewDecoder()})
	}
	f.Add([]byte("com.gmail@amy\x00com.gmail@amy\x00com.gmail@amy1\x00com.gmail@bob"))
	f.Add([]byte("b\x00ab\x00a\x00\x00a"))
	f.Add([]byte("com.aol@\x00com.aol@x\x00com.aol"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		given := bytes.Split(data, []byte{0})
		sorted := keys.Dedup(append([][]byte(nil), given...))
		reversed := make([][]byte, len(sorted))
		for i, k := range sorted {
			reversed[len(sorted)-1-i] = k
		}
		for _, p := range pairs {
			for _, order := range [][][]byte{given, sorted, reversed} {
				seq := make([][]byte, len(order))
				for i, k := range order {
					seq[i] = p.e.Encode(k)
				}
				checkRun(t, p.name, p.d, seq)
			}
			checkRun(t, p.name+"/raw", p.d, given)
		}
	})
}

// BenchmarkDecodeRun50 decodes what one lib-read scan emits — 50 adjacent
// keys of 1M sorted emails under 3-Grams with a 2^14-entry dictionary, from a
// random position — key by key (plain) and through the run decoder.
func BenchmarkDecodeRun50(b *testing.B) {
	ks := keys.Dedup(keys.Emails(1_000_000, 1))
	sample := make([][]byte, 0, len(ks)/100+1)
	for i := 0; i < len(ks); i += 100 {
		sample = append(sample, ks[i])
	}
	e, err := Train(sample, ThreeGrams, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	d := e.NewDecoder()
	enc := make([][]byte, len(ks))
	for i, k := range ks {
		enc[i] = e.Encode(k)
	}
	starts := func(i int) int { return int(uint64(i) * 2654435761 % uint64(len(enc)-50)) }
	b.Run("plain", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, k := range enc[starts(i):][:50] {
				buf = d.DecodeAppend(buf[:0], k, len(k)*8)
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := d.NewRun()
			for _, k := range enc[starts(i):][:50] {
				run.Next(k)
			}
		}
	})
}
