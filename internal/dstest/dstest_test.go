package dstest

import (
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"mets/internal/keys"
	"mets/internal/vfs"
	"mets/internal/wal"
)

// mapIndex is a map with a sorted scan — correct when bug is "", and wrong in
// exactly one way otherwise.
type mapIndex struct {
	m   map[string]uint64
	bug string
}

func (x *mapIndex) Insert(k []byte, v uint64) bool {
	if _, ok := x.m[string(k)]; ok {
		return false
	}
	x.m[string(k)] = v
	return true
}

func (x *mapIndex) Get(k []byte) (uint64, bool) {
	v, ok := x.m[string(k)]
	return v, ok
}

func (x *mapIndex) Update(k []byte, v uint64) bool {
	_, ok := x.m[string(k)]
	if ok && x.bug != "stale-update" {
		x.m[string(k)] = v
	}
	return ok
}

func (x *mapIndex) Delete(k []byte) bool {
	_, ok := x.m[string(k)]
	if ok && x.bug != "dropped-delete" {
		delete(x.m, string(k))
	}
	return ok
}

func (x *mapIndex) Scan(start []byte, fn func(k []byte, v uint64) bool) int {
	var ks [][]byte
	for k := range x.m {
		if keys.Compare([]byte(k), start) >= 0 {
			ks = append(ks, []byte(k))
		}
	}
	sort.Slice(ks, func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 })
	if x.bug == "unordered-scan" && len(ks) > 2 {
		ks[1], ks[2] = ks[2], ks[1]
	}
	for i, k := range ks {
		if !fn(k, x.m[string(k)]) {
			return i + 1
		}
	}
	return len(ks)
}

func (x *mapIndex) Len() int {
	if x.bug == "len-off-by-one" {
		return len(x.m) + 1
	}
	return len(x.m)
}

// logStore is the smallest honest CrashStore: a map folded from a wal.Log on
// open, every batch enqueued to the log and made durable by one barrier
// before it is applied and acknowledged. skipSync is the seeded bug: the
// batch is acknowledged without the barrier (ack-before-sync).
type logStore struct {
	log      *wal.Log
	m        map[string][]byte
	skipSync bool
}

func openLogStore(skipSync bool) func(fs *vfs.MemFS) (CrashStore, error) {
	return func(fs *vfs.MemFS) (CrashStore, error) {
		s := &logStore{m: map[string][]byte{}, skipSync: skipSync}
		l, _, err := wal.Recover(wal.Options{FS: fs, Dir: "data"}, func(rec []byte) error {
			klen, n := binary.Uvarint(rec[1:])
			if n <= 0 || uint64(len(rec)-1-n) < klen {
				return errors.New("logStore: malformed record")
			}
			key, value := rec[1+n:1+n+int(klen)], rec[1+n+int(klen):]
			applyOp(s.m, CrashOp{Del: rec[0] == 1, Key: key, Value: append([]byte{}, value...)})
			return nil
		})
		s.log = l
		return s, err
	}
}

func (s *logStore) ApplyBatch(ops []CrashOp) error {
	for _, op := range ops {
		rec := []byte{0}
		if op.Del {
			rec[0] = 1
		}
		rec = binary.AppendUvarint(rec, uint64(len(op.Key)))
		rec = append(append(rec, op.Key...), op.Value...)
		if err := s.log.Enqueue(rec); err != nil {
			return err
		}
	}
	if !s.skipSync {
		if err := s.log.Sync(); err != nil {
			return err
		}
	}
	for _, op := range ops {
		applyOp(s.m, op)
	}
	return nil
}

func (s *logStore) Close() error { return s.log.Close() }

func (s *logStore) Get(k []byte) ([]byte, bool) {
	v, ok := s.m[string(k)]
	return v, ok
}

func (s *logStore) Scan(fn func(k, v []byte) bool) {
	ks := make([]string, 0, len(s.m))
	for k := range s.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return keys.Compare([]byte(ks[i]), []byte(ks[j])) < 0 })
	for _, k := range ks {
		if !fn([]byte(k), s.m[k]) {
			return
		}
	}
}

// TestHarnessPassesCorrect: the harnesses accept implementations that are
// right, so what TestHarnessBites sees them reject is the seeded bug and not
// the stand-in around it.
func TestHarnessPassesCorrect(t *testing.T) {
	Run(t, &mapIndex{m: map[string]uint64{}}, Config{Seed: 1})
	for _, mode := range []vfs.CrashMode{vfs.DropUnsynced, vfs.TornTail, vfs.CorruptTail} {
		RunCrash(t, openLogStore(false), CrashConfig{Seed: 1, Mode: mode, Crashes: 2})
	}
}

// TestHarnessBites checks that the harnesses every differential and crash
// claim in this repository rests on actually fail when handed something
// wrong. Run and RunCrash report through *testing.T, so each seeded bug runs
// in a child copy of this test binary (the bug's name after "--" selects the
// child's role) that must exit non-zero with the harness's own message.
func TestHarnessBites(t *testing.T) {
	if bug := flag.Arg(0); bug == "ack-before-sync" {
		RunCrash(t, openLogStore(true), CrashConfig{Seed: 1})
		return
	} else if bug != "" {
		Run(t, &mapIndex{m: map[string]uint64{}, bug: bug}, Config{Seed: 1})
		return
	}
	for bug, want := range map[string]string{
		"dropped-delete":  ", oracle 0",
		"stale-update":    "scan value for ",
		"unordered-scan":  "scan[",
		"len-off-by-one":  "final Len = ",
		"ack-before-sync": "recovered state breaks the recovery invariant",
	} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestHarnessBites$", "--", bug).CombinedOutput()
		var exit *exec.ExitError
		if err == nil {
			t.Errorf("%s: the harness passed it:\n%s", bug, out)
		} else if !errors.As(err, &exit) {
			t.Fatalf("%s: child did not run: %v", bug, err)
		} else if !strings.Contains(string(out), "--- FAIL: TestHarnessBites") || !strings.Contains(string(out), want) {
			t.Errorf("%s: child failed, but not with a harness message containing %q:\n%s", bug, want, out)
		}
	}
}
