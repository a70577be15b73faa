package core

import (
	"errors"
	"path/filepath"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/framelog"
	"tsq/internal/series"
	"tsq/internal/storage"
	"tsq/internal/transform"
	"tsq/internal/wal"
)

// TestAbortedDeleteKeepsFreedPages fails the WAL append of every other
// Delete and goes on writing. A delete condenses the tree and frees node
// pages inside its staged transaction; the rolled-back tree still points
// at them, so an abort that leaves them allocatable lets the next insert's
// heap append write a record page over a live node (the first sign of it
// used to be "node N fails its checksum", with the index not
// fail-stopped). Small pages make nearly every delete free one.
func TestAbortedDeleteKeepsFreedPages(t *testing.T) {
	const count, n, pageSize = 400, 16, 1024
	stage := storage.NewStagedBackend(storage.NewMemBackend(pageSize))
	mgr := storage.NewManager(storage.Options{PageSize: pageSize, Backend: stage})
	ds, ix := buildFixture(t, 7, count, n, IndexOptions{K: 2, PageSize: pageSize, UseSymmetry: true, Paged: true, Manager: mgr})
	dev, err := framelog.OpenDevice(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	fd := framelog.NewFaultDevice(dev, 1)
	log, _, err := wal.Open(fd)
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(log, stage)
	defer func() { _ = ix.Close() }()

	ts := transform.MovingAverageSet(n, 2, 4)
	eps := series.DistanceForCorrelation(n, 0.90)
	check := func(what string, id int) {
		t.Helper()
		if err := ix.failErr; err != nil {
			t.Fatalf("%s %d: index fail-stopped: %v", what, id, err)
		}
		if err := ix.Verify(); err != nil {
			t.Fatalf("%s %d: %v", what, id, err)
		}
		q := ds.Records[count-1]
		want, _, err := SeqScanRange(nil, WrapIndex(ix), q, ts, eps, RangeOptions{})
		if err != nil {
			t.Fatalf("%s %d: scan: %v", what, id, err)
		}
		got, _, err := WrapIndex(ix).MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe})
		if err != nil {
			t.Fatalf("%s %d: %v", what, id, err)
		}
		if !sameKeys(matchKeySet(got), matchKeySet(want)) {
			t.Fatalf("%s %d: index finds %d matches, scan %d", what, id, len(got), len(want))
		}
	}
	extra := datagen.RandomWalks(8, count/2, n)
	for id := 0; id < count/2; id++ {
		fd.FailAt(1, storage.FaultError)
		if err := ix.remove(int64(id)); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("delete %d with a failing log: %v", id, err)
		}
		fd.FailAt(0, storage.FaultNone)
		check("aborted delete", id)
		if _, err := ix.insert("", extra[id]); err != nil {
			t.Fatalf("insert after aborted delete %d: %v", id, err)
		}
		check("insert after aborted delete", id)
		if err := ix.remove(int64(id)); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		check("delete", id)
	}
}

// BenchmarkInsertDisk is one acknowledged insert on the program's file
// stack (page file, checksums, staging overlay, WAL with its fsync) into
// a database of 4200 series, whose heap directory is five pages long: ns,
// bytes and allocations per insert, and the WAL bytes, page reads
// (buffer-pool hits included) and page writes it costs. The log is folded every 128 inserts off the clock, where
// DefaultCheckpointThreshold would.
func BenchmarkInsertDisk(b *testing.B) {
	dir := b.TempDir()
	fb, err := storage.NewFileBackend(filepath.Join(dir, "ix.pages"), storage.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	cb := storage.NewChecksumBackend(fb, storage.DefaultPageSize)
	stage := storage.NewStagedBackend(cb)
	opts := DefaultIndexOptions()
	opts.PageSize, opts.Paged = cb.LogicalPageSize(), true
	opts.Manager = storage.NewManager(storage.Options{PageSize: opts.PageSize, Backend: stage})
	_, ix := buildFixture(b, 73, 4200, 128, opts)
	log, _, err := wal.OpenFile(filepath.Join(dir, "ix.wal"))
	if err != nil {
		b.Fatal(err)
	}
	ix.AttachWAL(log, stage)
	ix.walThreshold = 0
	defer func() { _ = ix.Close() }()
	extra := datagen.RandomWalks(74, b.N, 128)
	var walBytes int64
	empty := log.Size()
	before := ix.mgr.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i, s := range extra {
		if _, err := ix.insert("", s); err != nil {
			b.Fatal(err)
		}
		if i%128 == 127 || i == len(extra)-1 {
			b.StopTimer()
			walBytes += log.Size() - empty
			if err := ix.checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(walBytes)/float64(b.N), "walB/op")
	after := ix.mgr.Stats()
	b.ReportMetric(float64(after.Reads+after.Hits-before.Reads-before.Hits)/float64(b.N), "pagereads/op")
	b.ReportMetric(float64(after.Writes-before.Writes)/float64(b.N), "pagewrites/op")
}
