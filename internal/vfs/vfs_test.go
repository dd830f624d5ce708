package vfs

import (
	"errors"
	"io"
	"testing"
)

// both runs a test against MemFS and OS (over t.TempDir) — the seam must
// behave identically where crash semantics are not involved.
func both(t *testing.T, fn func(t *testing.T, fs FS, dir string)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMemFS(), "data") })
	t.Run("os", func(t *testing.T) { fn(t, OS{}, t.TempDir()+"/data") })
}

func writeFile(t *testing.T, fs FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync %s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func readFile(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	rf, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer rf.Close()
	out := make([]byte, rf.Size())
	if len(out) > 0 {
		if _, err := rf.ReadAt(out, 0); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, fs FS, dir string) {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		writeFile(t, fs, dir+"/a.bin", []byte("hello"))
		if got := readFile(t, fs, dir+"/a.bin"); string(got) != "hello" {
			t.Fatalf("got %q", got)
		}
		rf, _ := fs.Open(dir + "/a.bin")
		if sz := rf.Size(); sz != 5 {
			t.Fatalf("size = %d", sz)
		}
		// Partial ReadAt past EOF returns io.EOF.
		buf := make([]byte, 10)
		if _, err := rf.ReadAt(buf, 3); err != io.EOF {
			t.Fatalf("past-EOF read err = %v, want io.EOF", err)
		}
		rf.Close()
	})
}

func TestListRenameRemove(t *testing.T) {
	both(t, func(t *testing.T, fs FS, dir string) {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if names, err := fs.List(dir + "/missing"); err != nil || len(names) != 0 {
			t.Fatalf("missing dir list = %v, %v", names, err)
		}
		writeFile(t, fs, dir+"/b.bin", []byte("b"))
		writeFile(t, fs, dir+"/a.bin", []byte("a"))
		names, err := fs.List(dir)
		if err != nil || len(names) != 2 || names[0] != "a.bin" || names[1] != "b.bin" {
			t.Fatalf("list = %v, %v", names, err)
		}
		if err := fs.Rename(dir+"/a.bin", dir+"/c.bin"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if got := readFile(t, fs, dir+"/c.bin"); string(got) != "a" {
			t.Fatalf("renamed contents %q", got)
		}
		if err := fs.Remove(dir + "/b.bin"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := fs.Open(dir + "/b.bin"); err == nil {
			t.Fatal("open removed file succeeded")
		}
	})
}

func TestMemFSCrashDropsUnsynced(t *testing.T) {
	fs := NewMemFS()
	writeFile(t, fs, "durable.bin", []byte("synced"))

	f, err := fs.Create("partial.bin")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced-part"))
	f.Sync()
	f.Write([]byte("+unsynced"))

	fs.CrashAt(1, DropUnsynced, 1)
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("tripping write err = %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := fs.Create("after.bin"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create err = %v", err)
	}
	fs.Recover()
	if got := readFile(t, fs, "durable.bin"); string(got) != "synced" {
		t.Fatalf("durable file = %q", got)
	}
	if got := readFile(t, fs, "partial.bin"); string(got) != "synced-part" {
		t.Fatalf("partial file = %q (unsynced bytes must be dropped)", got)
	}
	// The pre-crash handle is dead even after recovery.
	if _, err := f.Write([]byte("zombie")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle write err = %v", err)
	}
}

func TestMemFSCrashTornAndCorrupt(t *testing.T) {
	for _, mode := range []CrashMode{TornTail, CorruptTail} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := NewMemFS()
			f, _ := fs.Create("f.bin")
			f.Write([]byte("SYNCED"))
			f.Sync()
			f.Write([]byte("UNSYNCED"))
			fs.CrashAt(1, mode, 7)
			fs.Remove("f.bin") // trips; must NOT apply
			fs.Recover()
			got := readFile(t, fs, "f.bin")
			if len(got) < 6 || string(got[:6]) != "SYNCED" && mode == TornTail {
				t.Fatalf("synced prefix damaged: %q", got)
			}
			if mode == TornTail {
				if len(got) > len("SYNCEDUNSYNCED") {
					t.Fatalf("grew: %q", got)
				}
				if string(got) != "SYNCEDUNSYNCED"[:len(got)] {
					t.Fatalf("torn tail not a prefix: %q", got)
				}
			}
			if mode == CorruptTail {
				if len(got) != len("SYNCEDUNSYNCED") {
					t.Fatalf("corrupt mode changed length: %q", got)
				}
				if string(got[:6]) != "SYNCED" {
					t.Fatalf("corruption hit synced bytes: %q", got)
				}
				if string(got) == "SYNCEDUNSYNCED" {
					t.Fatalf("no bit flipped")
				}
			}
		})
	}
}

func TestMemFSMetadataJournaled(t *testing.T) {
	// Create/Rename/Remove are durable immediately (no sync needed).
	fs := NewMemFS()
	writeFile(t, fs, "a.bin", []byte("a"))
	if err := fs.Rename("a.bin", "b.bin"); err != nil {
		t.Fatal(err)
	}
	fs.CrashAt(1, DropUnsynced, 1)
	fs.Create("trip.bin")
	fs.Recover()
	if got := readFile(t, fs, "b.bin"); string(got) != "a" {
		t.Fatalf("rename lost: %q", got)
	}
	if _, err := fs.Open("a.bin"); err == nil {
		t.Fatal("old name still present")
	}
	if _, err := fs.Open("trip.bin"); err == nil {
		t.Fatal("tripping create applied its effect")
	}
}

func TestMemFSCorruptAndTruncateHelpers(t *testing.T) {
	fs := NewMemFS()
	writeFile(t, fs, "f.bin", []byte{1, 2, 3, 4})
	if err := fs.Corrupt("f.bin", 2, 0xFF); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "f.bin"); got[2] != 3^0xFF {
		t.Fatalf("corrupt byte = %v", got)
	}
	if err := fs.Truncate("f.bin", 2); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "f.bin"); len(got) != 2 {
		t.Fatalf("truncated = %v", got)
	}
}
