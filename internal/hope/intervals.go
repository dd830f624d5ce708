package hope

import (
	"bytes"
	"sort"

	"mets/internal/keys"
)

// interval is one segment of the string axis (§6.1.1): it begins at Lo
// (inclusive, ending at the next interval's Lo) and all strings inside share
// the nonempty prefix Symbol, which encoding consumes.
type interval struct {
	lo     []byte
	symbol []byte
}

// buildIntervals constructs a complete, order-preserving interval division
// of the string axis from a sorted, deduplicated set of selected substrings
// ("grams", fixed- or variable-length). Each gram g contributes the interval
// [g, successor(g)) with symbol g; gaps between grams are tiled with
// shorter-symbol intervals; nested grams (one a prefix of another) nest via
// an open-gram stack, leaving tail intervals that reuse the outer symbol
// (two intervals may share a symbol, §6.1.3 VIFC).
func buildIntervals(grams [][]byte) []interval {
	var out []interval
	type open struct {
		gram []byte
		end  []byte // successor(gram); nil = +infinity
	}
	var stack []open
	cursor := []byte{} // left edge of the unprocessed axis region

	closeUpTo := func(limit []byte) {
		// Pop open grams whose range ends at or before limit (nil = +inf).
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if limit != nil && (top.end == nil || keys.Compare(top.end, limit) > 0) {
				break
			}
			if top.end == nil {
				// An unbounded gram covers everything to +inf.
				if keys.Compare(cursor, maxSentinel) < 0 {
					out = append(out, interval{lo: cursor, symbol: top.gram})
				}
				cursor = nil
				stack = stack[:len(stack)-1]
				continue
			}
			if keys.Compare(cursor, top.end) < 0 {
				out = append(out, interval{lo: cursor, symbol: top.gram})
				cursor = top.end
			}
			stack = stack[:len(stack)-1]
		}
	}

	for _, g := range grams {
		closeUpTo(g)
		if keys.Compare(cursor, g) < 0 {
			if len(stack) > 0 {
				// Inside an outer gram: the gap shares the outer symbol.
				out = append(out, interval{lo: cursor, symbol: stack[len(stack)-1].gram})
			} else {
				out = appendGapIntervals(out, cursor, g)
			}
			cursor = g
		}
		stack = append(stack, open{gram: g, end: keys.Successor(g)})
	}
	closeUpTo(nil)
	if cursor != nil {
		out = appendGapIntervals(out, cursor, nil)
	}
	return out
}

// maxSentinel orders after any real key of sane length.
var maxSentinel = bytes.Repeat([]byte{0xFF}, 64)

// appendGapIntervals tiles the gap [lo, hi) (hi nil = +infinity) with
// intervals whose symbols are nonempty shared prefixes, using the
// first-differing-byte decomposition described in DESIGN.md.
func appendGapIntervals(out []interval, lo, hi []byte) []interval {
	if hi != nil && keys.Compare(lo, hi) >= 0 {
		return out
	}
	if len(lo) == 0 {
		// Split the full axis head by first byte.
		last := 256
		if hi != nil {
			last = int(hi[0])
		}
		for b := 0; b < last; b++ {
			out = append(out, interval{lo: []byte{byte(b)}, symbol: []byte{byte(b)}})
		}
		if hi != nil && len(hi) > 0 {
			out = appendGapIntervals(out, []byte{hi[0]}, hi)
		}
		return out
	}
	if hi == nil {
		// [lo, +inf): strings prefixed by lo[:1]... then remaining bytes.
		out = append(out, interval{lo: lo, symbol: []byte{lo[0]}})
		for b := int(lo[0]) + 1; b < 256; b++ {
			out = append(out, interval{lo: []byte{byte(b)}, symbol: []byte{byte(b)}})
		}
		return out
	}
	c := keys.CommonPrefixLen(lo, hi)
	if c == len(lo) {
		// lo is a prefix of hi: every string in [lo, hi) starts with lo.
		out = append(out, interval{lo: lo, symbol: lo})
		return out
	}
	// First differing byte: lo[c] < hi[c].
	// Head: [lo, c||lo[c]+1) shares prefix c||lo[c].
	head := append(append([]byte(nil), lo[:c]...), lo[c])
	out = append(out, interval{lo: lo, symbol: head})
	// Middle: whole single-byte extensions of c.
	for b := int(lo[c]) + 1; b < int(hi[c]); b++ {
		mid := append(append([]byte(nil), lo[:c]...), byte(b))
		out = append(out, interval{lo: mid, symbol: mid})
	}
	// Tail: [c||hi[c], hi), where c||hi[c] is a prefix of hi.
	tail := append(append([]byte(nil), hi[:c]...), hi[c])
	if keys.Compare(tail, hi) < 0 {
		out = appendGapIntervals(out, tail, hi)
	}
	return out
}

// collectGrams counts fixed-length n-grams in the sample (stride n, matching
// how encoding consumes them) and returns the most frequent limit grams,
// sorted, with their counts.
func collectGrams(sample [][]byte, n, limit int) [][]byte {
	counts := make(map[string]uint64)
	for _, k := range sample {
		for i := 0; i+n <= len(k); i += n {
			counts[string(k[i:i+n])]++
		}
	}
	return topGrams(counts, limit)
}

// collectSubstrings counts variable-length substrings (lengths 1..maxLen,
// all offsets) scored by length*frequency — the ALM "equalizing" heuristic
// (§6.1.3) — and returns the top limit substrings sorted.
func collectSubstrings(sample [][]byte, maxLen, limit int) [][]byte {
	counts := make(map[string]uint64)
	for _, k := range sample {
		for i := 0; i < len(k); i++ {
			for l := 1; l <= maxLen && i+l <= len(k); l++ {
				counts[string(k[i:i+l])]++
			}
		}
	}
	for s, c := range counts {
		counts[s] = c * uint64(len(s))
	}
	return topGrams(counts, limit)
}

func topGrams(counts map[string]uint64, limit int) [][]byte {
	type gc struct {
		g string
		c uint64
	}
	all := make([]gc, 0, len(counts))
	for g, c := range counts {
		all = append(all, gc{g, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].g < all[j].g
	})
	if len(all) > limit {
		all = all[:limit]
	}
	out := make([][]byte, len(all))
	for i, g := range all {
		out[i] = []byte(g.g)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}
