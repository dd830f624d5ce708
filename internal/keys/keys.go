// Package keys provides order-preserving key codecs and the deterministic
// synthetic datasets used throughout the benchmarks: 64-bit integer keys
// (random and monotonically increasing), host-reversed email addresses, URLs,
// dictionary words, time-series sensor keys, and the adversarial worst-case
// dataset of Fig. 4.10.
package keys

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	mbits "mets/internal/bits"
)

// Uint64 encodes v as an 8-byte big-endian key so that byte-wise
// lexicographic order matches numeric order.
func Uint64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// PutUint64 encodes v into dst (which must have length >= 8) and returns the
// 8-byte slice.
func PutUint64(dst []byte, v uint64) []byte {
	binary.BigEndian.PutUint64(dst[:8], v)
	return dst[:8]
}

// ToUint64 decodes an 8-byte big-endian key.
func ToUint64(b []byte) uint64 {
	return binary.BigEndian.Uint64(b)
}

// Uint128 encodes a (hi, lo) pair as a 16-byte big-endian key (used for the
// time-series timestamp||sensor keys of the LSM evaluation).
func Uint128(hi, lo uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	return b
}

// Compare compares two byte keys lexicographically: -1, 0, or +1.
func Compare(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Prefix8 packs the first 8 bytes of k big-endian, zero-padded on the right,
// so that comparing two prefixes as integers compares the keys' first 8
// bytes: Prefix8(a) < Prefix8(b) implies a < b, and a <= b implies
// Prefix8(a) <= Prefix8(b). A short key compares like itself followed by
// zeros, which is the order it has against any key it is a prefix of; only
// keys whose prefixes tie need the full compare.
func Prefix8(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, b := range k {
		p |= uint64(b) << (56 - 8*uint(i))
	}
	return p
}

// CommonPrefixBits returns how many leading bits a and b share, up to the end
// of the shorter one, comparing eight bytes at a time.
func CommonPrefixBits(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.BigEndian.Uint64(a[i:]) ^ binary.BigEndian.Uint64(b[i:]); x != 0 {
			return i*8 + bits.LeadingZeros64(x)
		}
	}
	for ; i < n; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return n * 8
}

// CommonPrefixLen returns the length in bytes of the longest common prefix
// of a and b.
func CommonPrefixLen(a, b []byte) int { return CommonPrefixBits(a, b) / 8 }

// Successor returns the smallest key strictly greater than all keys having k
// as a prefix: k with its last byte incremented (carrying into shorter keys
// when the byte is 0xFF). Returns nil when no such key exists (k is all
// 0xFF), meaning "+infinity".
func Successor(k []byte) []byte {
	out := append([]byte(nil), k...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// Next returns the immediate lexicographic successor of k — k followed by a
// zero byte, the smallest key strictly greater than k. Use this (not
// Successor) to resume an iteration after k: Successor additionally skips
// every key having k as a proper prefix.
func Next(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}

// Slab clones keys that are only lent to the caller (index.Static.Scan, a
// decoder's buffer) into shared buffers: one allocation per slab, not one per
// key. A slab that cannot take the next key is left to the keys already cut
// from it and a larger one started, so every clone stays valid for as long as
// it is referenced; the keys of one slab are collected together. The zero
// Slab is ready to use and starts at 1 KiB.
type Slab struct {
	buf   []byte
	bytes int64 // heap of every buffer started, the ones left behind included
}

const (
	slabMin = 1 << 10
	slabMax = 1 << 20
)

// NewSlab returns a slab whose first buffer holds size bytes, for a caller
// that can estimate what it is about to clone.
func NewSlab(size int) Slab {
	return Slab{buf: make([]byte, 0, size), bytes: mbits.AllocSize(size)}
}

// Clone returns a copy of k that nothing else writes to.
func (s *Slab) Clone(k []byte) []byte {
	if len(k) > cap(s.buf)-len(s.buf) {
		size := min(max(2*cap(s.buf), slabMin), slabMax)
		s.buf = make([]byte, 0, max(size, len(k)))
		s.bytes += mbits.AllocSize(cap(s.buf))
	}
	n := len(s.buf)
	s.buf = append(s.buf, k...)
	return s.buf[n:len(s.buf):len(s.buf)]
}

// Bytes returns what the slab's buffers take on the heap, the ones already
// full included: they live as long as any key cut from them.
func (s *Slab) Bytes() int64 { return s.bytes }

// Dedup sorts ks in place and removes duplicates, returning the compacted
// slice.
func Dedup(ks [][]byte) [][]byte {
	sort.Slice(ks, func(i, j int) bool { return Compare(ks[i], ks[j]) < 0 })
	out := ks[:0]
	for i, k := range ks {
		if i == 0 || Compare(k, out[len(out)-1]) != 0 {
			out = append(out, k)
		}
	}
	return out
}

// RandomUint64 generates n distinct pseudo-random 64-bit integer keys
// (unsorted), deterministically from seed.
func RandomUint64(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]struct{}, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		v := rng.Uint64()
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// MonoIncUint64 generates n monotonically increasing 64-bit integer keys
// starting at start with unit stride.
func MonoIncUint64(n int, start uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)
	}
	return out
}

// EncodeUint64s converts integer keys to big-endian byte keys.
func EncodeUint64s(vs []uint64) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = Uint64(v)
	}
	return out
}

var emailDomains = []string{
	"com.gmail", "com.yahoo", "com.hotmail", "com.outlook", "com.aol",
	"com.icloud", "com.mail", "org.acm", "org.ieee", "org.wikipedia",
	"edu.cmu.cs", "edu.mit", "edu.stanford", "net.comcast", "net.verizon",
	"de.web", "de.gmx", "cn.qq", "cn.163", "co.uk.bt",
}

var nameParts = []string{
	"alex", "sam", "chris", "lee", "kim", "pat", "jo", "max", "ray", "sky",
	"dan", "amy", "ben", "cat", "dev", "eli", "fay", "gus", "ivy", "jay",
	"ken", "lou", "mia", "ned", "oli", "pam", "quin", "ron", "sue", "tom",
	"una", "vic", "wes", "xan", "yan", "zoe", "smith", "jones", "zhang",
	"wang", "li", "liu", "chen", "yang", "huang", "zhao", "wu", "zhou",
	"mueller", "schmidt", "garcia", "lopez", "silva", "santos", "kumar",
}

// Emails generates n distinct host-reversed email keys (e.g.
// "com.gmail@alex.smith42"), mimicking the real-world email dataset used in
// the thesis: heavy shared domain prefixes, average length ~22-30 bytes.
// Keys never contain the byte 0x00. The result is unsorted.
func Emails(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]struct{}, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		domain := emailDomains[zipfIndex(rng, len(emailDomains), 1.1)]
		a := nameParts[rng.Intn(len(nameParts))]
		b := nameParts[rng.Intn(len(nameParts))]
		var local string
		switch rng.Intn(4) {
		case 0:
			local = fmt.Sprintf("%s.%s", a, b)
		case 1:
			local = fmt.Sprintf("%s%s%d", a, b, rng.Intn(1000))
		case 2:
			local = fmt.Sprintf("%s_%s%d", a, b, rng.Intn(100))
		default:
			local = fmt.Sprintf("%s%d", a, rng.Intn(100000))
		}
		k := domain + "@" + local
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, []byte(k))
	}
	return out
}

var urlHosts = []string{
	"http://www.wikipedia.org/wiki/", "http://www.github.com/",
	"http://www.amazon.com/dp/", "http://news.ycombinator.com/item?id=",
	"http://www.reddit.com/r/", "http://stackoverflow.com/questions/",
	"http://www.youtube.com/watch?v=", "http://www.nytimes.com/2019/",
	"http://en.wikipedia.org/wiki/Category:", "http://www.google.com/search?q=",
}

// URLs generates n distinct URL keys with heavily shared scheme+host
// prefixes (average length ~50 bytes), standing in for the CommonCrawl URL
// dataset. Keys never contain 0x00. The result is unsorted.
func URLs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]struct{}, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		host := urlHosts[zipfIndex(rng, len(urlHosts), 1.2)]
		a := nameParts[rng.Intn(len(nameParts))]
		b := nameParts[rng.Intn(len(nameParts))]
		k := fmt.Sprintf("%s%s-%s-%d", host, a, b, rng.Intn(10000000))
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, []byte(k))
	}
	return out
}

var wordRoots = []string{
	"anti", "auto", "bio", "co", "de", "dis", "en", "ex", "fore", "in",
	"inter", "mid", "mis", "non", "over", "pre", "re", "semi", "sub",
	"super", "trans", "un", "under", "micro", "macro", "multi", "poly",
	"act", "form", "ject", "port", "rupt", "scrib", "spect", "struct",
	"tract", "vert", "dict", "duc", "fer", "mit", "pel", "pend", "pos",
	"sist", "tain", "tend", "vene", "vise", "voke", "graph", "log",
	"meter", "phone", "scope", "gram", "chron", "cycl", "dem", "path",
}

var wordSuffixes = []string{
	"", "s", "ed", "ing", "er", "est", "ly", "ness", "ment", "tion",
	"sion", "able", "ible", "al", "ful", "ic", "ive", "less", "ous", "ity",
}

// Words generates n distinct dictionary-like word keys (average length ~12
// bytes) with substantial shared substrings, standing in for the wiki-title
// dataset. Keys never contain 0x00. The result is unsorted.
func Words(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]struct{}, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		k := wordRoots[rng.Intn(len(wordRoots))] +
			wordRoots[rng.Intn(len(wordRoots))] +
			wordSuffixes[zipfIndex(rng, len(wordSuffixes), 1.0)]
		if rng.Intn(3) == 0 {
			k += fmt.Sprintf("%d", rng.Intn(100))
		}
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, []byte(k))
	}
	return out
}

// zipfIndex draws an index in [0, n) with a Zipf-ish bias toward low indexes.
func zipfIndex(rng *rand.Rand, n int, skew float64) int {
	// Inverse-power sampling; cheap and deterministic enough for synthesis.
	u := rng.Float64()
	idx := int(float64(n) * (u * u * skew / (1 + skew)))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// WorstCase generates the adversarial dataset of Fig. 4.10: each key is 64
// lower-case letters — a 5-letter prefix covering combinations, a 58-letter
// random string shared by exactly two keys, and one distinguishing suffix
// letter. n is rounded down to an even number.
func WorstCase(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	n &^= 1
	out := make([][]byte, 0, n)
	alphabet := "abcdefghijklmnopqrstuvwxyz"
	prefix := make([]byte, 5)
	for i := 0; i < n/2; i++ {
		// Enumerate prefixes in order so all combinations are covered for
		// large n; wrap around for small n.
		p := i
		for j := 4; j >= 0; j-- {
			prefix[j] = alphabet[p%26]
			p /= 26
		}
		mid := make([]byte, 58)
		for j := range mid {
			mid[j] = alphabet[rng.Intn(26)]
		}
		k1 := make([]byte, 0, 64)
		k1 = append(k1, prefix...)
		k1 = append(k1, mid...)
		k2 := append([]byte(nil), k1...)
		k1 = append(k1, alphabet[0])
		k2 = append(k2, alphabet[25])
		out = append(out, k1, k2)
	}
	return out
}
