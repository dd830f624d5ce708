package keycodec

import (
	"bytes"
	"fmt"
	"sort"
)

// Validate vets a codec against a key sample before it is published: every
// sampled key must round-trip exactly (Decode inverts Encode) and the
// encoding must preserve the sample's order strictly. This is the validation
// step a codec-training BulkLoad runs between building the codec
// off-line and swapping it in — a dictionary that mis-orders or corrupts
// even one key would silently break routing, range scans, and every filter
// built over encoded keys.
func Validate(c Codec, sample [][]byte) error {
	if IsIdentity(c) {
		return nil
	}
	ks := make([][]byte, len(sample))
	copy(ks, sample)
	sort.Slice(ks, func(i, j int) bool { return bytes.Compare(ks[i], ks[j]) < 0 })
	var prevRaw, prevEnc []byte
	for i, k := range ks {
		enc := c.Encode(k)
		if dec := c.Decode(enc); !bytes.Equal(dec, k) {
			return fmt.Errorf("keycodec: %s does not round-trip %q (decoded %q)", c.ID(), k, dec)
		}
		if i > 0 {
			want := bytes.Compare(prevRaw, k) // -1, or 0 on duplicate sample keys
			if got := bytes.Compare(prevEnc, enc); got != want {
				return fmt.Errorf("keycodec: %s breaks order between %q and %q", c.ID(), prevRaw, k)
			}
		}
		prevRaw, prevEnc = k, enc
	}
	return nil
}
