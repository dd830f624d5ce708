package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"mets/internal/keycodec"
	"mets/internal/surf"
	"mets/internal/vfs"
)

// validTableBytes builds one real table file (optionally with an embedded
// SuRF filter payload) and returns its raw bytes — the fuzz corpus seed the
// mutator perturbs.
func validTableBytes(t testing.TB, withFilter bool) []byte {
	fs := vfs.NewMemFS()
	fs.MkdirAll("d")
	var entries []Entry
	for i := 0; i < 64; i++ {
		entries = append(entries, Entry{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Value: append([]byte{1}, fmt.Sprintf("val-%d", i)...),
		})
	}
	var fb FilterBuilder
	if withFilter {
		fb = SuRFFilterBuilder(surf.MixedConfig(4, 4))
	}
	mem, err := buildSSTable(7, entries, 256, fb)
	if err != nil {
		t.Fatal(err)
	}
	mem.codecID = keycodec.IdentityID
	ft, err := writeSSTableFile(fs, "d", mem)
	if err != nil {
		t.Fatal(err)
	}
	ft.Close()
	rf, err := fs.Open("d/" + sstName(7))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	raw := make([]byte, rf.Size())
	if _, err := rf.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzSSTableOpen pins the open-time validation contract: arbitrary bytes
// presented as a table file must never panic — they either fail validation
// with an error (the recovery path then quarantines the file) or load into
// a table whose every block reads back, parses, and stays in key order.
func FuzzSSTableOpen(f *testing.F) {
	f.Add(validTableBytes(f, false))
	f.Add(validTableBytes(f, true))
	f.Add([]byte{})
	f.Add([]byte("MSST garbage"))
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMemFS()
		fs.MkdirAll("d")
		w, err := fs.Create("d/fuzz.sst")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Sync()
		w.Close()
		tab, err := openSSTableFile(fs, "d/fuzz.sst", nil)
		if err != nil {
			return // rejected cleanly — the required behavior for corrupt input
		}
		// Accepted: the table must be fully self-consistent.
		defer tab.Close()
		total := 0
		for i := 0; i < tab.numBlocks(); i++ {
			raw, err := tab.readBlockRaw(i)
			if err != nil {
				t.Fatalf("accepted table, block %d unreadable: %v", i, err)
			}
			r := blockReader{raw: raw, untrusted: true}
			for r.next() {
				total++
			}
			if r.err != nil {
				t.Fatalf("accepted table, block %d unparseable: %v", i, r.err)
			}
		}
		if total != tab.NumEntries() {
			t.Fatalf("accepted table count %d != entries %d", tab.NumEntries(), total)
		}
	})
}
