package fst

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"mets/internal/keys"
)

// goldenKeySets are the inputs the builder's goldens are recorded on: long
// shared prefixes (emails, URLs), fixed-width binary keys, the Fig 4.10
// worst case, and short keys heavy in prefix chains, 0x00 and 0xFF labels.
func goldenKeySets() []struct {
	name string
	ks   [][]byte
} {
	return []struct {
		name string
		ks   [][]byte
	}{
		{"emails", keys.Dedup(keys.Emails(125000, 1))},
		{"urls", keys.Dedup(keys.URLs(50000, 1))},
		{"ints", keys.Dedup(keys.EncodeUint64s(keys.RandomUint64(50000, 1)))},
		{"worst", keys.Dedup(keys.WorstCase(20000, 1))},
		{"short", shortKeys()},
	}
}

// shortKeys is every string of length 0..4 over five bytes, the empty key and
// 0x00/0xFF runs included, plus a random subset of length-5 strings so
// nodes have uneven fanouts.
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

// goldenTries pins MarshalBinary of the builder's output, complete and
// truncated, at the picked cutoff (-1) and at explicit cutoffs 0, 1 and 2. The
// digests were recorded with the level-by-level builder the one-pass build
// replaced; the one-pass build must reproduce every byte. The */2 digests
// came later, from the one-pass build with only §3.4's ratio rule; the size
// rule then moved ints/*/-1 from the */1 digest to the */2 one.
var goldenTries = map[string]string{
	"emails/complete/-1":  "07111a5951f64f3ee8811244d61ffada55a73998a5567a133667a54688d5f7d9",
	"emails/complete/0":   "9b8aa0c842c9859a39840a2da9627249a6ae87eb2994b9cf5ba6ce995ac1fb04",
	"emails/complete/1":   "a815f4d7afd70707d0eebe31e4d05c1082e4c27b545325145052ef0da4cf81e9",
	"emails/complete/2":   "2fc39ba43a613fb5f65aa50e244616bacbd27bccf9e7564c8bcc4fcfc91befc5",
	"emails/truncated/-1": "b2d453c8b2442a75b7e3922bbfc17982db97682ad78956bcadb6b852c8acc8c2",
	"emails/truncated/0":  "405e0c166a53dfa58d26dff64f9150ace92df9d7b749d373afc3970301ee0e4e",
	"emails/truncated/1":  "9958261f2b3369c92fc8288221ba1b3c526d44503a08d01b532801484243df09",
	"emails/truncated/2":  "8b840e5f2d5f2bd11cd149e934951e5f885fa5fd1a1f033f2e20050d0786e277",
	"urls/complete/-1":    "4ffa1b14540475cbbc962818863de2f295ea797500a2b36c0af3acb4ef4992b7",
	"urls/complete/0":     "dc5a5640074a9431423d28a96654ae1564414f64fce45240cee9641fc11c95bf",
	"urls/complete/1":     "f37b2301a95765aba7ec2af12296b249557432968fcbf628d6fb9a0b7d96d328",
	"urls/complete/2":     "6288699c59ae473a357506fcde3cb451428b49aeba88934298aa06cc372c5969",
	"urls/truncated/-1":   "eaedf9152591f23f60ca9897c3822e1e1e0b26b629af906d7e7ef506a6016c86",
	"urls/truncated/0":    "52898e071809442d5abd33ba58d2a1bcba7ad1dd4d1f55cda28d4f0b0ed57a6c",
	"urls/truncated/1":    "f8b8c8c86a3e4b72bf34b7f3195aa549e59b83f6c55628563fd7bcf8b20d6035",
	"urls/truncated/2":    "6facce21054949ae8df9feef2d09f5d0a4688830a68bc3430489a98b6a9b4022",
	"ints/complete/-1":    "a34c1c72859484a4a12f504c72c8027a33d35e5657cdbafee6b66eb890d96b8c",
	"ints/complete/0":     "9ff7378ce2ab8b9870ecbe75743c6390ff39814311098bb36d406255357b1e91",
	"ints/complete/1":     "7804e894233401d9ce6e4b3799e1767175ad61d5e44d593811b0be0c1568b517",
	"ints/complete/2":     "a34c1c72859484a4a12f504c72c8027a33d35e5657cdbafee6b66eb890d96b8c",
	"ints/truncated/-1":   "1b2a7ea4f9ccc2e3211a1d6f2f6d85d7542a69bbf10c19fb4f0b16f372ad9038",
	"ints/truncated/0":    "16a02d0d917574dd04130abf02fe9d6463759fb852da6838d2a763b4b130bfb3",
	"ints/truncated/1":    "4cc7adbbc1806bee16c493871453738921f361b1e1c86bef8a9797dc5d988129",
	"ints/truncated/2":    "1b2a7ea4f9ccc2e3211a1d6f2f6d85d7542a69bbf10c19fb4f0b16f372ad9038",
	"worst/complete/-1":   "e9e8020383cea6dc89034ec8ed2de05500335408663b9a5d519e16ed0c9f3b6e",
	"worst/complete/0":    "9fc514ed61ae1e993b3a62d9bdf32968ef138be1508b56d75cd3f8fddc12d259",
	"worst/complete/1":    "29dfee25f818751cade50223aa1b03bcdf5e63c5d719a7f8e4163fb832721846",
	"worst/complete/2":    "d77a821e1ee8e2bc1d88661392977ed681e2f0913efb24bd5ad207673f177414",
	"worst/truncated/-1":  "a2102421e04f8c95b0d8c7062b04d4279236cb86d0b0e23aafb3220c9de25460",
	"worst/truncated/0":   "62b21b08e7ab6a9ee9ef4958d860131e58bcbff5c6d73e70f6e0a77a72808401",
	"worst/truncated/1":   "17b2e731784fb2b5b25b4c8386e6834ced02e3683a9f7e91fddc2ed63399634d",
	"worst/truncated/2":   "ab7b4bdb570132f0e24b38e3880988137ae0fbe57d8825bb1c043bdbb83af6d8",
	"short/complete/-1":   "2de754e0feaf4007223a9b7fe3d7933a532b112b668f96e5c2c0c271b5253cf8",
	"short/complete/0":    "2de754e0feaf4007223a9b7fe3d7933a532b112b668f96e5c2c0c271b5253cf8",
	"short/complete/1":    "bf6ab31ff2ba1f8a08f69082ad003f6f92736548da1660ac42dcdc49e656c027",
	"short/complete/2":    "0d0623a640f243edc197a70d658520f15787cf16870a880f105e6090357ef58b",
	"short/truncated/-1":  "035114f38a0f304942a0d608b518c47f3c9c2122d34dcf9d1b6a1a1adc13bd9e",
	"short/truncated/0":   "035114f38a0f304942a0d608b518c47f3c9c2122d34dcf9d1b6a1a1adc13bd9e",
	"short/truncated/1":   "93328afc931bbb416a132413190a3829fdecbffcb4b77961b2d19a485ff5dbf0",
	"short/truncated/2":   "bb3a1943866cfe65dd2f3fd8f674188aca28ff2397e2506133c4b6610d862423",
}

func TestGoldenTries(t *testing.T) {
	for _, set := range goldenKeySets() {
		values := make([]uint64, len(set.ks))
		for i := range values {
			values[i] = uint64(i) * 2654435761
		}
		for _, truncate := range []bool{false, true} {
			cfg := Config{Truncate: truncate, StoreValues: !truncate}
			vs := values
			mode := "complete"
			if truncate {
				vs, mode = nil, "truncated"
			}
			digest := func(cut int) (string, int) {
				cfg.DenseLevels = cut
				trie, err := Build(set.ks, vs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := trie.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(data)), trie.DenseHeight()
			}
			picked, pickedCut := digest(-1)
			for _, cut := range []int{-1, 0, 1, 2} {
				got := picked
				if cut >= 0 {
					got, _ = digest(cut)
				}
				name := fmt.Sprintf("%s/%s/%d", set.name, mode, cut)
				if got != goldenTries[name] {
					t.Errorf("%s: MarshalBinary digest %s, pinned %s", name, got, goldenTries[name])
				}
			}
			// The picked cutoff is only a level count: the trie is the one
			// built with that count given explicitly.
			if explicit, _ := digest(pickedCut); explicit != picked {
				t.Errorf("%s/%s: picked cutoff %d gives digest %s, explicit cutoff %d %s",
					set.name, mode, pickedCut, picked, pickedCut, explicit)
			}
		}
	}
}
