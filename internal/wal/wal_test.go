package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tsq/internal/framelog"
	"tsq/internal/framelog/framelogtest"
	"tsq/internal/storage"
)

// testRecord builds a distinguishable record.
func testRecord(i int) *Record {
	return &Record{
		Op:     OpInsert,
		ID:     int64(i),
		Name:   fmt.Sprintf("series-%04d", i),
		Series: []float64{float64(i), float64(i) * 0.5, -float64(i)},
		Pages: []PageImage{
			{ID: storage.PageID(2 + i), Data: []byte{byte(i), 1, 2, 3}},
			{ID: storage.PageID(100 + i), Data: make([]byte, 64)},
		},
	}
}

func openTestLog(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	l, recs, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return l, recs
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, recs := openTestLog(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	var want []Record
	for i := 0; i < 5; i++ {
		rec := testRecord(i)
		if i == 3 {
			rec = &Record{Op: OpDelete, ID: 3, Pages: []PageImage{{ID: 7, Data: []byte{9}}}}
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, *rec)
	}
	if got := l.Stats().Pending; got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := openTestLog(t, path)
	defer func() { _ = l2.Close() }()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen returned %+v, want %+v", got, want)
	}
	// LSNs continue past the recovered tail.
	rec := testRecord(9)
	if err := l2.Append(rec); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if rec.LSN != want[len(want)-1].LSN+1 {
		t.Fatalf("post-reopen LSN = %d, want %d", rec.LSN, want[len(want)-1].LSN+1)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := openTestLog(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	goodSize := l.Size()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: garbage past the last durable frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameRecord, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openTestLog(t, path)
	defer func() { _ = l2.Close() }()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if st := l2.Stats(); st.TornBytes != 8 {
		t.Fatalf("TornBytes = %d, want 8", st.TornBytes)
	}
	if l2.Size() != goodSize {
		t.Fatalf("size after truncation = %d, want %d", l2.Size(), goodSize)
	}
}

func TestCheckpointEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := openTestLog(t, path)
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := l.Size(); got != int64(len(Magic)) {
		t.Fatalf("size after checkpoint = %d, want %d", got, len(Magic))
	}
	// Records appended after the checkpoint keep ascending LSNs.
	rec := testRecord(1)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 2 {
		t.Fatalf("post-checkpoint LSN = %d, want 2", rec.LSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openTestLog(t, path)
	if len(recs) != 1 || recs[0].LSN != 2 {
		t.Fatalf("reopen found %d records (LSNs %v), want the one post-checkpoint record", len(recs), recs)
	}
}

func TestForeignMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0 trailing"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(path); err == nil {
		t.Fatal("OpenFile accepted a foreign file")
	}
	if _, _, err := ReadPending(path); err == nil {
		t.Fatal("ReadPending accepted a foreign file")
	}
}

func TestReadPendingIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := openTestLog(t, path)
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail; ReadPending must report it but not repair it.
	if err := os.WriteFile(path+".tmp", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, info, err := ReadPending(path)
	if err != nil {
		t.Fatalf("ReadPending: %v", err)
	}
	if len(recs) != 1 || !info.Present || info.TornBytes != 3 {
		t.Fatalf("ReadPending = %d records, info %+v; want 1 record, 3 torn bytes", len(recs), info)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Fatalf("ReadPending changed the file size: %d -> %d", before.Size(), after.Size())
	}
	// A missing file is an empty WAL, not an error.
	recs, info, err = ReadPending(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || len(recs) != 0 || info.Present {
		t.Fatalf("ReadPending on a missing file: %d recs, %+v, %v", len(recs), info, err)
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := openTestLog(t, path)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append(testRecord(w*perWriter + i)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openTestLog(t, path)
	if len(recs) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(recs), writers*perWriter)
	}
	// Every LSN distinct and ascending in file order.
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("LSNs not ascending: %d then %d", recs[i-1].LSN, recs[i].LSN)
		}
	}
}

// sweptLog adapts a Log to the shared sweep: Append is its own
// acknowledgement (it returns after the group-commit fsync).
type sweptLog struct{ *Log }

func (l sweptLog) Append(i int) error { return l.Log.Append(testRecord(i)) }
func (l sweptLog) Sync() error        { return nil }

// TestFaultSweepAppend is the WAL's instantiation of the framelog crash
// sweep: a crash or torn write at every device op of opening a log and
// appending six records, then ReadPending and a reopen. Every acknowledged
// append must be recovered, and what is recovered must be a prefix of the
// workload, record for record.
func TestFaultSweepAppend(t *testing.T) {
	framelogtest.Sweep(t, framelogtest.Codec{
		Appends: 6,
		Open: func(dev framelog.Device) (framelogtest.Log, error) {
			l, _, err := Open(dev)
			if err != nil {
				return nil, err
			}
			return sweptLog{l}, nil
		},
		Recovered: func(path string) (int, error) {
			recs, _, err := ReadPending(path)
			for i, rec := range recs {
				want := testRecord(i)
				want.LSN = rec.LSN
				if !reflect.DeepEqual(rec, *want) {
					return 0, fmt.Errorf("recovered record %d diverges from the workload", i)
				}
			}
			return len(recs), err
		},
	})
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := openTestLog(t, path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); !errors.Is(err, errClosed) {
		t.Fatalf("Append after Close = %v, want errClosed", err)
	}
	if err := l.Checkpoint(); !errors.Is(err, errClosed) {
		t.Fatalf("Checkpoint after Close = %v, want errClosed", err)
	}
}
