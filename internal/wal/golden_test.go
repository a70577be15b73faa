package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenBytes pins the WAL's on-disk bytes: magic, frame layout, record
// payload. The literal is the hash of the file the commit before
// internal/framelog existed wrote for the same three appends (taken from a
// checkout of that commit), so "the format did not move" is checked, not
// asserted. A change to it is a format change: bump the magic.
func TestGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.wal")
	l, _ := openTestLog(t, path)
	for _, rec := range []*Record{
		testRecord(1),
		{Op: OpDelete, ID: 1, Pages: []PageImage{{ID: 7, Data: []byte{9, 8, 7}}}},
		testRecord(2),
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "7b6f1954bd93e8da8a965a3a7e64fbabd58892b88428d26486c3b4f3eddb9a4d"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("a three-record WAL is %d bytes hashing to %s, want %s", len(data), got, want)
	}
}
