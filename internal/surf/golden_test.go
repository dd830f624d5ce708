package surf

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"mets/internal/keys"
)

// goldenFilters pins MarshalBinary of SuRF-Base, -Hash and -Real over the
// key sets of fst's builder goldens. The digests were recorded with the
// level-by-level trie builder and the leaf-back-reference suffix fill that
// the one-pass build replaced; the one-pass build must reproduce every byte.
var goldenFilters = map[string]string{
	"emails/base":  "ad73ad606ced4a08833565fe0cbfbcb1051c6b3dac018b2e2bbe219468364707",
	"emails/hash8": "767f953335db7d809282616dc3622c87a0b25edf4dcd35e2336dbb3529661c32",
	"emails/real8": "877fbf3b642eba0813bfcf1118c2916458fb468b132feef562de5be9c1a362c5",
	"urls/base":    "d3b616a127b49f0f57bba3a780597e60bdcbf6ca9790d5e093f285da36533611",
	"urls/hash8":   "10fe2d9b41779d099a6a0125bb7a507fb86cfcaca24dae6b41f63c814e3b8311",
	"urls/real8":   "4149391ac665307c28e9d7998fcab286e4e7d992e03318ec1b8b878add205b6b",
	"ints/base":    "b30595ec440634e27a13f932f888908ce5c19141dbc6670f06cc3cce68148bc9",
	"ints/hash8":   "48caefcc0ec6e1c9a3e33d60dc3bbabf7ced3d4f8bc5944c87d55656add6d982",
	"ints/real8":   "68311710b82e632b5fab10d4e8f5aa782e7204e680142aa078bef8f5e1da29f7",
	"worst/base":   "a0079fc8673e6bb53944648bbf91373fbac3b28b7d3a50d2324709ec53c9a629",
	"worst/hash8":  "fb570a920c705944ff9ee874c491050addf97f9fc7b20c1e1e04d096936150db",
	"worst/real8":  "82fdd1eeb4e8d0a30ba4b67dbea8567a2a8902c5213fdb139905aaa5cf0117de",
	"short/base":   "6db8a9157c0c3956c3c828706c5e4bdd39448b9323a17d8fafae9be0ff9b49ab",
	"short/hash8":  "631f840348afc537337a601f79c226b3b26d2e3af9097a2ecbcd0ae2f67f56f7",
	"short/real8":  "98d41b66862c1b98fb4d42e19e5d5cafe067b8d90b93b21c20963860ba7fd10c",
}

func TestGoldenFilters(t *testing.T) {
	for _, set := range []struct {
		name string
		ks   [][]byte
	}{
		{"emails", keys.Dedup(keys.Emails(125000, 1))},
		{"urls", keys.Dedup(keys.URLs(50000, 1))},
		{"ints", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(50000, 1)))},
		{"worst", keys.Dedup(keys.WorstCase(20000, 1))},
		{"short", shortKeys()},
	} {
		for _, v := range []struct {
			name string
			cfg  Config
		}{{"base", BaseConfig()}, {"hash8", HashConfig(8)}, {"real8", RealConfig(8)}} {
			f, err := Build(set.ks, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			name := set.name + "/" + v.name
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenFilters[name] {
				t.Errorf("%s: MarshalBinary digest %s, pinned %s", name, got, goldenFilters[name])
			}
		}
	}
}

// shortKeys is the short-key set of fst's goldens: every string of length
// 0..4 over five bytes plus a random subset of length-5 strings.
func shortKeys() [][]byte {
	alphabet := []byte{0x00, 0x01, 'a', 0xFE, 0xFF}
	var ks [][]byte
	var gen func(prefix []byte)
	gen = func(prefix []byte) {
		ks = append(ks, append([]byte(nil), prefix...))
		if len(prefix) == 4 {
			return
		}
		for _, b := range alphabet {
			gen(append(prefix, b))
		}
	}
	gen(nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		k := make([]byte, 5)
		for j := range k {
			k[j] = alphabet[rng.Intn(len(alphabet))]
		}
		ks = append(ks, k)
	}
	return keys.Dedup(ks)
}
