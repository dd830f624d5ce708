package hybrid

// Health is the hybrid index's point-in-time liveness summary, the analogue
// of lsm.Health for the in-memory engine: is the journal still tracking the
// index, and is the merge machinery keeping up?
type Health struct {
	// Healthy is false once the op journal has a sticky failure — the
	// on-disk journal has diverged from the in-memory index. Always true
	// without Config.Dir.
	Healthy bool `json:"healthy"`
	// JournalErr is the sticky journal failure message ("" while healthy).
	JournalErr string `json:"journal_err,omitempty"`
	// Merging reports an in-flight background merge.
	Merging bool `json:"merging"`
	// MergeBehind reports that the dynamic stage sits past the merge trigger
	// (Index.mergeDue: raw memtable nodes, tombstones included, reached
	// MinDynamic and nodes*MergeRatio >= static size) — the next write that
	// grows the memtable merges, and until it lands reads pay extra stage
	// lookups.
	MergeBehind bool `json:"merge_behind"`
	// DynamicLen and StaticLen are the live stage sizes (frozen counts as
	// dynamic).
	DynamicLen int `json:"dynamic_len"`
	StaticLen  int `json:"static_len"`
}

// Health reports the index's current health. Safe for concurrent use. The
// stage sizes and the trigger verdict come from one generation.
func (h *Index) Health() Health {
	g := h.gen.Load()
	hs := Health{
		Healthy: true, Merging: h.Merging(), MergeBehind: h.mergeDue(g),
		DynamicLen: g.dynamicLen(), StaticLen: g.staticLen(),
	}
	if err := h.JournalErr(); err != nil {
		hs.Healthy = false
		hs.JournalErr = err.Error()
	}
	return hs
}
