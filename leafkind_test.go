package tsq

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tsq/internal/datagen"
)

// leafKinds returns, per page file of db, whether its tree's leaves store
// points (meta "RST2") rather than rectangles ("RST1").
func leafKinds(t *testing.T, db *DB) []bool {
	t.Helper()
	hr, err := db.IndexHealth(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reports := []*HealthReport{hr}
	if hr.ShardCount > 1 {
		reports = hr.Shards
	}
	var points []bool
	for _, r := range reports {
		points = append(points, r.Tree.PointLeaves)
	}
	return points
}

// requireLeafKind fails unless every tree of the database at path has
// leaves of points (or of rectangles), and the scrub is clean: it runs
// CheckInvariants, which checks every leaf's kind byte against the meta
// page, so a clean scrub means every leaf is of that kind.
func requireLeafKind(t *testing.T, path string, db *DB, points bool) {
	t.Helper()
	for i, p := range leafKinds(t, db) {
		if p != points {
			t.Fatalf("%s: tree %d has point leaves %v, want %v", path, i, p, points)
		}
	}
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s: scrub:\n%s", path, rep)
	}
}

// requireAnswersEqualScan holds every live id's range and 5-NN answers to
// the sequential scan's.
func requireAnswersEqualScan(t *testing.T, name string, db *DB, length int) {
	t.Helper()
	ts := MovingAverages(length, 1, 3)
	queried := 0
	for id := int64(0); id < int64(db.Len()); id += 7 {
		q := db.Get(id)
		if q == nil {
			continue
		}
		queried++
		want, _, err := db.RangeByID(id, ts, Correlation(0.5), QueryOptions{Algorithm: SeqScan})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := db.RangeByID(id, ts, Correlation(0.5), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		SortMatches(want)
		SortMatches(got)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: range by %d: index %d matches, sequential scan %d", name, id, len(got), len(want))
		}
		wantNN, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{Algorithm: SeqScan})
		if err != nil {
			t.Fatal(err)
		}
		gotNN, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotNN, wantNN) {
			t.Fatalf("%s: 5-NN of %d: index %v, sequential scan %v", name, id, gotNN, wantNN)
		}
	}
	if queried < 5 {
		t.Fatalf("%s: only %d live ids queried", name, queried)
	}
}

// TestRectangleLeafFilesStayLive: files written before leaves stored
// points (testdata/pr13.tsq and the 2-shard testdata/sharded2.tsq, both
// "RST1") open and answer as the sequential scan does, take 200 inserts
// and 50 deletes, and after a reopen are still trees of rectangle leaves,
// every leaf of kind 1, scrubbed clean and answering as the scan does. A
// database created from the same series is a tree of point leaves.
func TestRectangleLeafFilesStayLive(t *testing.T) {
	for _, tc := range []struct {
		name           string
		shards, length int
	}{
		{"pr13.tsq", 1, 8},
		{"sharded2.tsq", 2, 8},
	} {
		dir := t.TempDir()
		files := []string{tc.name}
		for i := 0; tc.shards > 1 && i < tc.shards; i++ {
			files = append(files, shardPath(tc.name, i))
		}
		for _, f := range files {
			image, err := os.ReadFile(filepath.Join("testdata", f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f), image, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, tc.name)
		db, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		requireLeafKind(t, path, db, false)
		requireAnswersEqualScan(t, tc.name, db, tc.length)

		for i, s := range datagen.RandomWalks(97, 200, tc.length) {
			if _, err := db.Insert(fmt.Sprintf("late-%d", i), s); err != nil {
				t.Fatal(err)
			}
		}
		deleted := 0
		for id := int64(1); deleted < 50; id += 4 {
			if db.Get(id) == nil {
				continue
			}
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = OpenFile(path); err != nil {
			t.Fatal(err)
		}
		requireLeafKind(t, path, db, false)
		requireAnswersEqualScan(t, tc.name+" after writes", db, tc.length)
		var series []Series
		for id := int64(0); id < int64(db.Len()); id++ {
			if s := db.Get(id); s != nil {
				series = append(series, s)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		fresh := filepath.Join(dir, "fresh-"+tc.name)
		created, err := CreateFile(fresh, series, nil, Options{PageSize: 1024, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		requireLeafKind(t, fresh, created, true)
		requireAnswersEqualScan(t, "fresh "+tc.name, created, tc.length)
		if err := created.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
