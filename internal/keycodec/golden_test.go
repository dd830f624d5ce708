package keycodec

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"mets/internal/hope"
	"mets/internal/keys"
)

// TestGoldenCodecs pins, per scheme, what a dictionary trained on a fixed
// sample looks like from outside: the codec ID, the digest of MarshalBinary,
// and the digest of the encodings of a second fixed key set. The values were
// recorded at the commit before the packed encode/decode kernels; FST2/SuR2
// payloads and SSTables written by that code embed exactly these bytes, so a
// change here means they no longer load (or load and mis-order keys).
func TestGoldenCodecs(t *testing.T) {
	sample := keys.Dedup(keys.Emails(2000, 1))
	probe := keys.Dedup(keys.Emails(3000, 2))
	ints := keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(2000, 21)))
	for _, g := range []struct {
		name      string
		sample    [][]byte
		scheme    hope.Scheme
		limit     int
		id        string
		marshal   string
		encodings string // "" = not recorded
	}{
		{"Single-Char", sample, hope.SingleChar, 1 << 10, "hope:Single-Char:3a1f46eb59f61b7f",
			"d7b88d70472ae3988b1760675ea6e64d9eab98315bc29ffe54fac092352cccda",
			"82dd41f55a1ff29b152f7e0941ac1fb0b021309fa55a672b984d450d983ce104"},
		{"Double-Char", sample, hope.DoubleChar, 1 << 10, "hope:Double-Char:928e0d50c65b30be",
			"0f3920c65201ed001545bd6248a98ed32bc56a49cffb53beda991ec47637a91b",
			"73a443f6a0097fef5345157017b27f13ee9c7b330998027849b4f9486b79a0dd"},
		{"ALM", sample, hope.ALM, 1 << 10, "hope:ALM:a2b372dd0b315bb7",
			"8610d2138cea148b690b3bdad7ea50b8c80be56b4506fe3b993d64de78dd561c",
			"79fb54e0a194bffa7dd0a626e4277adac164fb319a756d8db196d574971b07fd"},
		{"3-Grams", sample, hope.ThreeGrams, 1 << 10, "hope:3-Grams:de14dc11bce083a9",
			"91d8258c59ac7ea318f8b52cd741448870659070fd3757d08ee490e43aef591f",
			"5c80b702a929a261f244aeb1b809ae80a925a95f7678a0baa7269ce5b417827a"},
		{"4-Grams", sample, hope.FourGrams, 1 << 10, "hope:4-Grams:473089e81a3fd863",
			"7c1bbae2d7b37834a59400768d16914637583775b13655e8c1cd706d5d741aa9",
			"f1db7ff7f622517ff97f17c6e6b177ea2d7163de3c465fe7fadfb6bfe3160658"},
		{"ALM-Improved", sample, hope.ALMImproved, 1 << 10, "hope:ALM-Improved:f12ee44b46494a27",
			"3461e44b56af721a91ab610fe6298593f7ba52b89964a84922f07b1d9f213e11",
			"3f08c00fe5ac981024d88eea2f4016d88427ce9ed34655fa7b9c64625aeea59e"},
		{"Single-Char/ints", ints, hope.SingleChar, 0, "hope:Single-Char:0b7810806cca94e3",
			"ecbbde6a252d968adfc00d0ebc4a33302e51ece0396237b3160bdab78f226430", ""},
	} {
		c, err := TrainHOPE(g.sample, g.scheme, g.limit)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if c.ID() != g.id {
			t.Errorf("%s: codec ID %s, pinned %s", g.name, c.ID(), g.id)
		}
		data, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != g.marshal {
			t.Errorf("%s: MarshalBinary digest %s, pinned %s", g.name, got, g.marshal)
		}
		// The loaded copy is the same codec: same ID, same encodings.
		loaded, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: pinned payload does not load: %v", g.name, err)
		}
		if loaded.ID() != g.id {
			t.Errorf("%s: loaded codec ID %s, pinned %s", g.name, loaded.ID(), g.id)
		}
		if g.encodings == "" {
			continue
		}
		for _, cc := range []Codec{c, loaded} {
			h := sha256.New()
			for _, k := range probe {
				h.Write(cc.Encode(k))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != g.encodings {
				t.Errorf("%s: encodings digest %s, pinned %s", g.name, got, g.encodings)
			}
		}
	}
}

// TestDictBytesMatchesHeap is the reported-versus-actual audit for this
// layer: keycodec.dict_bytes must be within 10% of what training a codec
// leaves on the heap. A small dictionary (Single-Char's is 26 KB) is within
// reach of one stray runtime allocation of a few KB, so each scheme keeps
// enough trained copies live to hold at least 512 KB and the heap growth is
// divided among them.
func TestDictBytesMatchesHeap(t *testing.T) {
	sample := keys.Dedup(keys.Emails(5000, 3))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	train := func(s hope.Scheme) Codec {
		c, err := TrainHOPE(sample, s, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, s := range hope.Schemes {
		copies := make([]Codec, 0, 32)
		before := heap()
		copies = append(copies, train(s))
		reported := float64(copies[0].(dictSized).DictBytes())
		for float64(len(copies))*reported < 1<<19 {
			copies = append(copies, train(s))
		}
		actual := (float64(heap()) - float64(before)) / float64(len(copies))
		runtime.KeepAlive(copies)
		if ratio := reported / actual; ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%v: DictBytes reports %.0f B, heap grew %.0f B per copy over %d copies (ratio %.3f, want within 10%%)", s, reported, actual, len(copies), ratio)
		} else {
			t.Logf("%v: DictBytes %.0f B, heap %.0f B per copy over %d copies (ratio %.3f)", s, reported, actual, len(copies), ratio)
		}
	}
}
