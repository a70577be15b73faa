package tsq

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/obs/capture"
	"tsq/internal/transform"
)

// v1Journal is a capture journal of schema 1, written by the tsquery of
// the commit before the half sum (PR 21) over `tsgen -kind stocks -count
// 150 -length 32 -seed 22`: range queries by mt, st and seq on an
// in-memory database of 1 and of 2 shards, NN on both, a one-sided shift
// set, an ordering-certified scale set (distances -1), Reverse, a
// subsequence search, then range by mt and seq and NN on a saved file of
// 1 and of 2 shards. 18 records; its digests hash full-order distances.
const v1Journal = "testdata/capture_v1.tscap"

func v1JournalData() []Series {
	return datagen.StockMarket(22, 150, 32, datagen.DefaultMarketOptions())
}

// TestReplaySchema1Journal: a journal written before the half sum still
// replays with no digest mismatch, in memory and from a file, on one
// shard and on two, because its reader hands out the transformations in
// full order.
func TestReplaySchema1Journal(t *testing.T) {
	ss := v1JournalData()
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		open func() (*DB, error)
	}{
		{"mem", func() (*DB, error) { return Open(ss, nil, Options{}) }},
		{"mem 2 shards", func() (*DB, error) { return Open(ss, nil, Options{Shards: 2}) }},
		{"file", func() (*DB, error) { return CreateFile(filepath.Join(dir, "one.tsq"), ss, nil, Options{}) }},
		{"file 2 shards", func() (*DB, error) { return CreateFile(filepath.Join(dir, "two.tsq"), ss, nil, Options{Shards: 2}) }},
	} {
		db, err := c.open()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep, err := ReplayFile(context.Background(), db, v1Journal, ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.SchemaVersion != 1 || rep.Records != 18 || rep.Replayed != 18 || !rep.OK() {
			rep.WriteText(os.Stderr)
			t.Errorf("%s: schema %d, %d records, %d replayed, %d mismatches, %d errors; want schema 1 and 18 clean",
				c.name, rep.SchemaVersion, rep.Records, rep.Replayed, rep.Mismatches, rep.Errors)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestSchema1DigestsAreExact: the replay of a schema-1 journal is held
// to the bits, not to a tolerance. Every range record's answer, taken
// under the transformations as the reader hands them out, digests to the
// captured value; altering one match's transformation index does not;
// and neither does the same answer under the classified transformations
// a schema-2 journal would carry, which is why the version exists.
func TestSchema1DigestsAreExact(t *testing.T) {
	db, err := Open(v1JournalData(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := capture.OpenFile(v1Journal)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if r.Version() != 1 {
		t.Fatalf("journal schema %d, want 1", r.Version())
	}
	var checked, moved int
	for {
		rec, ts, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind != capture.KindRange || rec.SeriesID < 0 {
			continue
		}
		qo := replayQueryOptions(rec.Opts)
		m, _, err := db.RangeByID(rec.SeriesID, ts, Distance(rec.Eps), qo)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) == 0 {
			t.Fatalf("qid %d: empty answer, nothing to alter", rec.QueryID)
		}
		if got := core.AnswerDigestRange(m); got != rec.Digest {
			t.Errorf("qid %d: digest %+v, captured %+v", rec.QueryID, got, rec.Digest)
		}
		m[len(m)/2].TransformIdx++
		if core.AnswerDigestRange(m) == rec.Digest {
			t.Errorf("qid %d: digest unchanged by an altered transformation index", rec.QueryID)
		}
		checked++

		classified := make([]Transform, len(ts))
		for i, tr := range ts {
			if tr.Symmetric(false) || tr.Symmetric(true) {
				t.Fatalf("qid %d: %s of a schema-1 journal is classified", rec.QueryID, tr.Name)
			}
			classified[i] = transform.New(tr.Name, tr.A, tr.B)
		}
		half, _, err := db.RangeByID(rec.SeriesID, classified, Distance(rec.Eps), qo)
		if err != nil {
			t.Fatal(err)
		}
		if core.AnswerDigestRange(half) != rec.Digest {
			moved++
		}
	}
	if checked < 10 || moved == 0 {
		t.Fatalf("%d range records checked, %d of them digest differently under the half sum; want at least 10 and some", checked, moved)
	}
}
