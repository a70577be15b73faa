//go:build integration

package tsq

import (
	"path/filepath"
	"reflect"
	"testing"

	"tsq/internal/datagen"
)

// TestDiskBackedPipeline is the disk-backed smoke test of the I/O-aware
// candidate pipeline (run with -tags=integration): a database in a real
// page file, MT-index range queries in both verification modes, and the
// acceptance criteria of the pipeline checked end to end — answers equal
// to the sequential scan's, strictly fewer backend page reads, readahead
// observed, and the lower-bound / abandoning counters engaged. The bound
// on index nodes prunes whole subtrees before any of their entries is
// counted, so the pipeline's admitted plus dismissed candidates are at
// most, not exactly, the naive count.
func TestDiskBackedPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.tsq")
	ss := datagen.StockMarket(1999, 400, 128, datagen.DefaultMarketOptions())
	db, err := CreateFile(path, ss, nil, Options{PageSize: 4096, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ts := MovingAverages(128, 6, 29)
	thr := Correlation(0.96)
	var naiveReads, pipeReads, prefetched int64
	var skipped, abandoned int
	for _, qid := range []int64{3, 57, 123, 256, 311} {
		naiveOpts := QueryOptions{Algorithm: MTIndex, TransformsPerMBR: 8, NaiveVerify: true}
		pipeOpts := QueryOptions{Algorithm: MTIndex, TransformsPerMBR: 8}

		db.ResetDiskStats()
		want, naiveSt, err := db.RangeByID(qid, ts, thr, naiveOpts)
		if err != nil {
			t.Fatal(err)
		}
		naiveReads += db.DiskStats().Reads

		db.ResetDiskStats()
		got, pipeSt, err := db.RangeByID(qid, ts, thr, pipeOpts)
		if err != nil {
			t.Fatal(err)
		}
		after := db.DiskStats()
		pipeReads += after.Reads
		prefetched += after.Prefetched
		skipped += pipeSt.SkippedLB
		abandoned += pipeSt.Abandoned

		scan, _, err := db.RangeByID(qid, ts, thr, QueryOptions{Algorithm: SeqScan})
		if err != nil {
			t.Fatal(err)
		}
		SortMatches(want)
		SortMatches(got)
		SortMatches(scan)
		if !reflect.DeepEqual(got, scan) || !reflect.DeepEqual(want, scan) {
			t.Fatalf("query %d: index answers (pipeline %d, naive %d matches) differ from the scan's %d", qid, len(got), len(want), len(scan))
		}
		if pipeSt.Candidates+pipeSt.SkippedLB > naiveSt.Candidates {
			t.Fatalf("query %d: candidates %d + skipped %d > naive candidates %d",
				qid, pipeSt.Candidates, pipeSt.SkippedLB, naiveSt.Candidates)
		}
	}
	if pipeReads >= naiveReads {
		t.Errorf("pipeline page reads %d >= naive %d: no I/O win on disk", pipeReads, naiveReads)
	}
	if skipped == 0 || abandoned == 0 {
		t.Errorf("pipeline counters never engaged: skipped=%d abandoned=%d", skipped, abandoned)
	}
	if prefetched == 0 {
		t.Errorf("no pages were prefetched: run batching never engaged")
	}

	// The pipeline must also survive a close/reopen cycle (directory and
	// tree read back from the file).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want, _, err := re.RangeByID(57, ts, thr, QueryOptions{Algorithm: MTIndex, TransformsPerMBR: 8, NaiveVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := re.RangeByID(57, ts, thr, QueryOptions{Algorithm: MTIndex, TransformsPerMBR: 8})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(want)
	SortMatches(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reopened database: pipeline answer diverged from naive verification")
	}
}
