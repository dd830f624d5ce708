package ycsb

import (
	"fmt"

	"mets/internal/client"
)

// LoadServer bulk-loads ks into the server at addr via batched writes over
// a single connection (values are i+1, matching the in-process loaders).
func LoadServer(addr string, ks [][]byte) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	const batch = 512
	for off := 0; off < len(ks); off += batch {
		end := off + batch
		if end > len(ks) {
			end = len(ks)
		}
		ops := make([]client.BatchOp, 0, end-off)
		for i := off; i < end; i++ {
			ops = append(ops, client.BatchOp{Key: ks[i], Value: uint64(i + 1)})
		}
		sts, err := c.Batch(ops)
		if err != nil {
			return fmt.Errorf("ycsb: load batch at %d: %w", off, err)
		}
		for j, st := range sts {
			if st != 0 {
				return fmt.Errorf("ycsb: load op %d rejected with status %d", off+j, st)
			}
		}
	}
	return nil
}
