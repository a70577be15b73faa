package tsq

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tsq/internal/datagen"
)

// TestFileBackedInsertAllocBudget pins what an acknowledged insert on a
// reopened file (checksums, staging overlay, WAL, fsync) allocates: the
// record core.NewRecord builds and keeps (seven allocations), its feature
// point and the FileInfo of the file backend's Grow, nine in all, and
// fourteen under -race, where sync.Pool drops a quarter of the checksum
// layer's scratch pages. Pages are staged in recycled frames, the tree
// works in its own slots and the heap encodes into its own buffer; before
// that the same insert allocated 288 times.
func TestFileBackedInsertAllocBudget(t *testing.T) {
	const warm, runs, perRun = 100, 8, 100
	path := filepath.Join(t.TempDir(), "budget.tsq")
	db, err := CreateFile(path, datagen.RandomWalks(31, 2000, 128), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenFile(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}()
	extra := datagen.RandomWalks(32, warm+(runs+1)*perRun, 128)
	next := 0
	insert := func(count int) {
		for i := 0; i < count; i++ {
			if _, err := db.Insert("", extra[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	insert(warm)
	allocs := testing.AllocsPerRun(runs, func() { insert(perRun) }) / perRun
	t.Logf("%.2f allocations per insert", allocs)
	if allocs > 16 {
		t.Errorf("an insert allocates %.2f times, budget 16: the write path allocates per page, per node or per entry again", allocs)
	}
}

// TestInsertBuiltFilesBitIdentical builds a database by R*-tree insertion
// (600 series on 1 KiB pages, so the tree is four levels of splits and
// forced reinsertions), reopens it, inserts 300 more and deletes 100, and
// hashes every file it leaves. The abandoning ChooseSubtree, the in-place
// bounding rectangles, the write slots, the directory pages Sync skips,
// the adjustment that stops at the first unchanged rectangle and the
// write set that writes each node once change what an insert costs, not
// one byte of what it writes. The literals were re-pinned when leaves
// began to store points (a leaf entry lost its high corner, so a 1 KiB
// leaf holds 18 entries instead of 9 and the tree splits elsewhere and
// writes "RST2"), when a node page's unused tail became zero instead
// of whatever node the encode buffer held before, and when CreateFile
// began to pack every tree and the tree to place entries by the
// coefficient dimensions only, and when STR packing began to size its
// slabs in distance units and to share each cut evenly, and when the
// record heap was split into verify and raw parts, the verify parts of a
// build packed in tree-leaf order.
func TestInsertBuiltFilesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{0, "f7464baf94564946530fd839e6ed833b6224246ed5b3e0f080a2c7413a6d3f91"},
		{2, "abee904b0cbfc84f1c710f313d9ed97da01257641e98094e80638a4dee9c47b4"},
	} {
		path := filepath.Join(t.TempDir(), "pin.tsq")
		db, err := CreateFile(path, datagen.RandomWalks(71, 600, 32), nil, Options{PageSize: 1024, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = OpenFile(path); err != nil {
			t.Fatal(err)
		}
		for i, s := range datagen.RandomWalks(73, 300, 32) {
			if _, err := db.Insert(fmt.Sprintf("pin-%d", i), s); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := db.Delete(int64(2 * i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(path + "*")
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", filepath.Base(f), len(data))
			h.Write(data)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%d shards: the %d files hash to %s, the pinned ones to %s", tc.shards, len(files), got, tc.want)
		}
	}
}
