package dstest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mets/internal/keys"
	"mets/internal/obs"
	"mets/internal/vfs"
)

// CrashStore is the surface the differential crash-recovery harness drives:
// a durable ordered store that commits a group of ops under one durability
// verdict (a server's coalesced write batch). Scan enumerates the full live
// state in key order.
type CrashStore interface {
	// ApplyBatch applies ops in order; nil acks every one of them.
	ApplyBatch(ops []CrashOp) error
	Get(key []byte) ([]byte, bool)
	Scan(fn func(key, value []byte) bool)
	Close() error
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
	// Batch is the number of ops per ApplyBatch call, one verdict per group
	// (default 1).
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
	if c.Batch <= 0 {
		c.Batch = 1
	}
}

// crashOps generates the deterministic mutation stream. Every Put carries a
// value unique to its op index, so a recovered value names the one op that
// wrote it: a stale or phantom value cannot pass for an allowed one.
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

// batchRecovered checks a store recovered from a crash that caught the group
// ops[acked:issued] in flight: every key the group does not touch must hold
// what ops[:acked] leave, every key it touches what ops[:acked] plus some
// prefix of the group's ops on that key leave. "" means the invariant holds.
// With a one-op group that is exactly prefix durability: the store holds
// fold(ops[:acked]) or fold(ops[:acked+1]); with an empty one, exactly
// fold(ops[:acked]), Get agreeing with Scan.
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
// operation, recovers the filesystem, reopens the store, and checks the one
// recovery invariant. Ops are committed cfg.Batch at a time; acked counts the
// ops whose ApplyBatch returned nil before the crash, and the group after
// them is the one the crash caught in flight. Every acked op must be
// recovered; within the in-flight group, each key must hold what some prefix
// of the group's ops on that key leaves (none of them, all of them, or
// anything between — a store may split the group over several logs, each
// recovering a prefix of its own); no other key may differ from the acked
// state, and nothing that was never written may appear. At Batch 1 that is
// strict prefix durability: the recovered state is fold(ops[:t]) for t =
// acked or acked+1 (an op whose ack failed may still have reached durable
// media).
//
// With cfg.Crashes > 1 the recovered store is driven on under another armed
// crash, up to Crashes cycles per run — so the invariant is also checked for
// writes acked *after* a recovery (the torn-tail-then-crash-again scenario,
// where an unrepaired log would lose them). The round after a recovery starts
// over from the in-flight group: its ops are blind upserts and deletes, so
// reapplying all of them converges on the full fold.
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
				issued = min(acked+cfg.Batch, len(ops))
				if st.ApplyBatch(ops[acked:issued]) != nil {
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
				// With nothing in flight the invariant is equality with the
				// full fold.
				if diff := batchRecovered(st2, ops, len(ops), len(ops)); diff != "" {
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
			if diff := batchRecovered(st2, ops, acked, issued); diff != "" {
				t.Fatalf("mode=%v crash@%d round %d: recovered state breaks the recovery invariant (acked=%d, in flight through %d): %s",
					cfg.Mode, crash, round, acked, issued, diff)
			}
			// Drive the recovered store through the remaining ops (with
			// another crash armed, if the budget allows).
			st = st2
			base = acked
		}
	}
}
