package dstest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/vfs"
)

// CrashStore is the surface the differential crash-recovery harness drives:
// a durable ordered store whose Put/Delete return the durability verdict
// (nil = acked). Scan enumerates the full live state in key order.
type CrashStore interface {
	Put(key, value []byte) error
	Delete(key []byte) error
	Get(key []byte) ([]byte, bool)
	Scan(fn func(key, value []byte) bool)
	Close() error
}

// BatchCrashStore is a CrashStore that can also commit a group of ops under
// one durability verdict (a server's coalesced write batch). CrashConfig.Batch
// drives it.
type BatchCrashStore interface {
	CrashStore
	// ApplyBatch applies ops in order; nil acks every one of them.
	ApplyBatch(ops []CrashOp) error
}

// CrashOp is one mutation in the deterministic op stream.
type CrashOp struct {
	Del        bool
	Key, Value []byte
}

// CrashConfig tunes one crash-recovery sweep.
type CrashConfig struct {
	// Ops is the mutation count per run (default 300).
	Ops int
	// KeySpace is the number of distinct candidate keys (default Ops/4).
	KeySpace int
	// Seed makes the op stream and injected damage reproducible.
	Seed int64
	// Step is the crash-point stride: the sweep reruns the same op stream
	// with a crash armed at VFS op Step, 2*Step, ... until a run survives
	// uninterrupted (default 13).
	Step int64
	// Mode is the unsynced-byte damage applied at each crash.
	Mode vfs.CrashMode
	// Crashes is the number of crash/recover/reopen cycles injected per run
	// (default 1). With Crashes > 1, after each recovery the same store is
	// driven on with the remaining ops and a fresh crash armed Step*k VFS
	// ops later — pinning that recovery itself leaves the log appendable
	// (e.g. a torn segment must be repaired, or writes acked after the
	// first recovery are lost at the second crash).
	Crashes int
	// Batch > 1 issues the ops in groups of Batch through
	// BatchCrashStore.ApplyBatch (which the store must then implement), one
	// verdict per group. A store with several logs need not recover a
	// contiguous prefix of the group that was in flight at the crash, so for
	// that group the invariant is per key (see RunCrash).
	Batch int
	// FlightRec, when set, is the MemFS path of the store's flight-recorder
	// dump (e.g. "data/flightrec.json"): after every post-crash recovery the
	// harness asserts the dump exists, parses, and holds at least one event —
	// pinning that every injected crash leaves a usable postmortem artifact.
	FlightRec string
}

func (c *CrashConfig) fill() {
	if c.Ops <= 0 {
		c.Ops = 300
	}
	if c.KeySpace <= 0 {
		c.KeySpace = c.Ops / 4
		if c.KeySpace < 16 {
			c.KeySpace = 16
		}
	}
	if c.Step <= 0 {
		c.Step = 13
	}
	if c.Crashes <= 0 {
		c.Crashes = 1
	}
}

// crashOps generates the deterministic mutation stream. Every Put carries a
// value unique to its op index, so the oracle state after t ops differs for
// every t — the prefix check below can therefore identify exactly which
// prefix survived.
func crashOps(cfg *CrashConfig) []CrashOp {
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := keySpace(cfg.KeySpace, rng)
	ops := make([]CrashOp, cfg.Ops)
	for i := range ops {
		k := space[rng.Intn(len(space))]
		if rng.Intn(4) == 0 {
			ops[i] = CrashOp{Del: true, Key: k}
		} else {
			ops[i] = CrashOp{Key: k, Value: []byte(fmt.Sprintf("v%06d-%x", i, rng.Uint64()))}
		}
	}
	return ops
}

// applyOp folds one op into an oracle state.
func applyOp(oracle map[string][]byte, op CrashOp) {
	if op.Del {
		delete(oracle, string(op.Key))
	} else {
		oracle[string(op.Key)] = op.Value
	}
}

// storeEquals compares the store's full state to the oracle: same key set
// (no lost writes, no phantoms), same values, and Get agrees with Scan.
func storeEquals(st CrashStore, oracle map[string][]byte) (bool, string) {
	want := make([][]byte, 0, len(oracle))
	for k := range oracle {
		want = append(want, []byte(k))
	}
	sort.Slice(want, func(i, j int) bool { return keys.Compare(want[i], want[j]) < 0 })
	i := 0
	diff := ""
	st.Scan(func(k, v []byte) bool {
		if diff != "" {
			return false
		}
		if i >= len(want) {
			diff = fmt.Sprintf("phantom key %q past oracle end", k)
			return false
		}
		if !bytes.Equal(k, want[i]) {
			diff = fmt.Sprintf("scan[%d] = %q, oracle %q", i, k, want[i])
			return false
		}
		if !bytes.Equal(v, oracle[string(k)]) {
			diff = fmt.Sprintf("value for %q = %q, oracle %q", k, v, oracle[string(k)])
			return false
		}
		i++
		return true
	})
	if diff != "" {
		return false, diff
	}
	if i != len(want) {
		return false, fmt.Sprintf("scan visited %d keys, oracle has %d (first missing %q)", i, len(want), want[i])
	}
	for k, v := range oracle {
		got, ok := st.Get([]byte(k))
		if !ok || !bytes.Equal(got, v) {
			return false, fmt.Sprintf("Get(%q) = (%q,%v), oracle %q", k, got, ok, v)
		}
	}
	return true, ""
}

// batchRecovered checks a store recovered from a crash that caught the group
// ops[acked:issued] in flight: every key the group does not touch must hold
// what ops[:acked] leave, every key it touches what ops[:acked] plus some
// prefix of the group's ops on that key leave. "" means the invariant holds.
func batchRecovered(st CrashStore, ops []CrashOp, acked, issued int) string {
	oracle := make(map[string][]byte)
	for _, op := range ops[:acked] {
		applyOp(oracle, op)
	}
	// allowed[k] lists the states key k may be in; a nil state is "absent".
	allowed := make(map[string][][]byte)
	for _, op := range ops[acked:issued] {
		k := string(op.Key)
		if _, seen := allowed[k]; !seen {
			allowed[k] = [][]byte{oracle[k]}
		}
		if op.Del {
			allowed[k] = append(allowed[k], nil)
		} else {
			allowed[k] = append(allowed[k], op.Value)
		}
	}
	got := make(map[string][]byte)
	var prev []byte
	diff := ""
	st.Scan(func(k, v []byte) bool {
		if prev != nil && keys.Compare(prev, k) >= 0 {
			diff = fmt.Sprintf("scan out of order: %q then %q", prev, k)
			return false
		}
		prev = append(prev[:0], k...)
		got[string(k)] = append([]byte{}, v...)
		return true
	})
	if diff != "" {
		return diff
	}
	// Every other key the oracle or the store knows has one allowed state.
	for k := range oracle {
		if _, touched := allowed[k]; !touched {
			allowed[k] = [][]byte{oracle[k]}
		}
	}
	for k := range got {
		if _, known := allowed[k]; !known {
			allowed[k] = [][]byte{nil}
		}
	}
next:
	for k, states := range allowed {
		g, present := got[k]
		if v, ok := st.Get([]byte(k)); ok != present || !bytes.Equal(v, g) {
			return fmt.Sprintf("Get(%q) = (%q,%v), Scan saw (%q,%v)", k, v, ok, g, present)
		}
		for _, s := range states {
			if (s != nil) == present && bytes.Equal(s, g) {
				continue next
			}
		}
		return fmt.Sprintf("key %q holds (%q, present %v); allowed states %q", k, g, present, states)
	}
	return ""
}

// checkFlightRec asserts that the store's recovery left a parseable
// flight-recorder dump with at least one event at the given MemFS path.
func checkFlightRec(t *testing.T, fs *vfs.MemFS, name, context string) {
	t.Helper()
	data, err := vfs.ReadFileAll(fs, name)
	if err != nil {
		t.Fatalf("%s: flight-recorder dump %s missing after recovery: %v", context, name, err)
	}
	d, err := obs.ParseFlightDump(data)
	if err != nil {
		t.Fatalf("%s: flight-recorder dump %s unparseable: %v", context, name, err)
	}
	if len(d.Events) == 0 {
		t.Fatalf("%s: flight-recorder dump %s has no events", context, name)
	}
}

// RunCrash is the differential crash-recovery harness: it reruns one
// deterministic op stream with a simulated crash armed at every Step-th VFS
// operation, recovers the filesystem, reopens the store, and checks the
// recovery invariant —
//
//	recovered state == fold(ops[:t]) for some t with acked <= t <= issued
//
// where acked counts the ops whose Put/Delete returned nil before the crash
// and issued additionally includes the op that observed it. That is exactly
// prefix durability: no acked write is ever lost, no suffix survives a lost
// middle (no gaps), and nothing that was never written appears (no
// phantoms). An op past the acked count may legitimately survive (its WAL
// record can reach durable media before its ack fails on a later step), but
// only as part of a contiguous prefix.
//
// With cfg.Crashes > 1 the recovered store is driven on with the remaining
// ops under another armed crash, up to Crashes cycles per run — so the
// invariant is also checked for writes acked *after* a recovery (the
// torn-tail-then-crash-again scenario, where an unrepaired log would lose
// them).
//
// With cfg.Batch > 1 ops are acked a group at a time, and a crash catches a
// whole group in flight. Every op before that group must be recovered, as
// above; within it, each key must hold what some prefix of the group's ops on
// that key leaves (none of them, all of them, or anything between — the
// store may have split the group over several logs, each recovering a prefix
// of its own), and no other key may differ from the acked state. The round
// after the recovery starts over from that group: its ops are blind upserts
// and deletes, so reapplying all of them converges on the full fold.
//
// The sweep stops after the first run whose initial round completes without
// tripping the crash; every completed run also checks clean-shutdown
// durability (close, reopen, full-state equality).
func RunCrash(t *testing.T, open func(fs *vfs.MemFS) (CrashStore, error), cfg CrashConfig) {
	t.Helper()
	cfg.fill()
	ops := crashOps(&cfg)

	for crash := cfg.Step; ; crash += cfg.Step {
		fs := vfs.NewMemFS()
		st, err := open(fs)
		if err != nil {
			t.Fatalf("initial open: %v", err)
		}
		// base is the op-stream prefix already folded into st's state by
		// earlier rounds' recoveries; round 0 starts from scratch.
		base := 0
		for round := 0; ; round++ {
			if round < cfg.Crashes {
				fs.CrashAt(crash, cfg.Mode, cfg.Seed^crash^int64(round))
			}
			acked, issued := base, base
			for acked < len(ops) {
				var err error
				if cfg.Batch > 1 {
					issued = min(acked+cfg.Batch, len(ops))
					err = st.(BatchCrashStore).ApplyBatch(ops[acked:issued])
				} else if op := ops[acked]; op.Del {
					issued++
					err = st.Delete(op.Key)
				} else {
					issued++
					err = st.Put(op.Key, op.Value)
				}
				if err != nil {
					break
				}
				acked = issued
			}
			if !fs.Crashed() {
				// Ran out of ops before the crash point (Close may still
				// trip it).
				st.Close()
			}
			if !fs.Crashed() {
				// Clean completion: reopen must reproduce the full final
				// state, whether or not earlier rounds crashed.
				fs.Recover() // clean restart, nothing at risk
				st2, err := open(fs)
				if err != nil {
					t.Fatalf("mode=%v crash@%d round %d: clean reopen: %v", cfg.Mode, crash, round, err)
				}
				oracle := make(map[string][]byte, cfg.KeySpace)
				for _, op := range ops {
					applyOp(oracle, op)
				}
				if ok, diff := storeEquals(st2, oracle); !ok {
					t.Fatalf("mode=%v crash@%d round %d: clean-shutdown state diverged: %s",
						cfg.Mode, crash, round, diff)
				}
				st2.Close()
				if round == 0 {
					// The crash point is past the whole stream: sweep done.
					return
				}
				break // next crash point
			}

			st.Close() // tear down goroutines; errors expected on a crashed FS
			fs.Recover()
			st2, err := open(fs)
			if err != nil {
				t.Fatalf("mode=%v crash@%d round %d: recovery open failed: %v", cfg.Mode, crash, round, err)
			}
			if cfg.FlightRec != "" {
				checkFlightRec(t, fs, cfg.FlightRec,
					fmt.Sprintf("mode=%v crash@%d round %d", cfg.Mode, crash, round))
			}
			if cfg.Batch > 1 {
				if diff := batchRecovered(st2, ops, acked, issued); diff != "" {
					t.Fatalf("mode=%v crash@%d round %d: recovered state breaks the batch invariant (acked=%d, in flight through %d): %s",
						cfg.Mode, crash, round, acked, issued, diff)
				}
				st = st2
				base = acked
				continue
			}
			// Find the surviving prefix: fold ops[:acked] first, then extend
			// one op at a time through issued until the store matches.
			oracle := make(map[string][]byte, cfg.KeySpace)
			for i := 0; i < acked; i++ {
				applyOp(oracle, ops[i])
			}
			matched := -1
			var firstDiff string
			for tlen := acked; tlen <= issued; tlen++ {
				if tlen > acked {
					applyOp(oracle, ops[tlen-1])
				}
				ok, diff := storeEquals(st2, oracle)
				if tlen == acked {
					firstDiff = diff
				}
				if ok {
					matched = tlen
					break
				}
			}
			if matched < 0 {
				t.Fatalf("mode=%v crash@%d round %d: recovered state matches no prefix in [acked=%d, issued=%d]; vs acked: %s",
					cfg.Mode, crash, round, acked, issued, firstDiff)
			}
			// Drive the recovered store through the remaining ops (with
			// another crash armed, if the budget allows).
			st = st2
			base = matched
		}
	}
}
