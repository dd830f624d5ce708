package hybrid

import (
	"mets/internal/index"
	"mets/internal/reconfig"
)

// This file exports the bulk-load hook that layered consumers (the
// range-sharded index in internal/sharded, bulk loaders) build on.

// BulkLoad replaces the index contents with the given sorted unique entries,
// building the static stage directly instead of funnelling every entry
// through the dynamic stage and a merge, and publishes a generation holding
// only that stage. An in-flight background merge is waited out first. The
// entries slice is handed to the static builder and must not be modified
// afterwards.
// With Config.Dir the journal is reset to the loaded entries crash-atomically
// (journal.go); an error from that reset is returned after the load has taken
// effect in memory, like every other journal failure.
func (h *Index) BulkLoad(entries []index.Entry) error {
	st, err := h.build(entries)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.merging {
		h.mergeDone.Wait()
	}
	h.publishLocked(h.newGen(st), reconfig.Prepared{})
	h.live.Store(int64(len(entries)))
	return h.jresetLocked(entries)
}
