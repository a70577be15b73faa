package tsq

// Contracts every query shape shares, each pinned over all the shapes at
// once: top-k answers rank ties the way the sequential scan does, a
// non-finite series is rejected at every door and so is a NaN threshold,
// a negative threshold is the empty answer, and every Algorithm value
// means the same thing everywhere.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tsq/internal/datagen"
)

// TestTopKTiesEqualScan: duplicated series put equal distances on the k
// boundary. The index answers — at every shard count, insert-built
// (through core) or bulk-loaded — must equal the sequential scan's in rank order: ties go
// to the smaller id (NN) and the smaller (IDA, IDB) (closest pairs).
func TestTopKTiesEqualScan(t *testing.T) {
	ss := datagen.RandomWalks(41, 320, 64)
	dups := []int64{10, 300, 301, 302, 303, 304, 305}
	for _, id := range dups[1:] {
		ss[id] = ss[dups[0]].Clone()
	}
	ts := MovingAverages(64, 4, 9)
	for _, shards := range []int{1, 2, 3} {
		for _, bulk := range []bool{false, true} {
			db := openBuiltBy(t, ss, Options{Shards: shards}, bulk)
			// Three of the seven copies are the whole answer, then a tie
			// group cut by k further down the ranking.
			for _, k := range []int{3, 7, 9} {
				want, _, err := db.NearestNeighbors(ss[10], ts, k, QueryOptions{Algorithm: SeqScan})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := db.NearestNeighbors(ss[10], ts, k, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d bulk=%v %d-NN:\nindex %+v\n scan %+v", shards, bulk, k, got, want)
				}
				for i := 0; i < min(k, len(dups)); i++ {
					if got[i].RecordID != dups[i] || got[i].Distance != 0 {
						t.Errorf("shards=%d bulk=%v %d-NN rank %d: %+v, want id %d at distance 0", shards, bulk, k, i, got[i], dups[i])
					}
				}

				wantP, _, err := db.ClosestPairs(ts, k, SeqScan)
				if err != nil {
					t.Fatal(err)
				}
				gotP, _, err := db.ClosestPairs(ts, k, MTIndex)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotP, wantP) {
					t.Errorf("shards=%d bulk=%v %d closest pairs:\nindex %+v\n scan %+v", shards, bulk, k, gotP, wantP)
				}
			}
			if p, _, _ := db.ClosestPairs(ts, 3, MTIndex); len(p) != 3 || p[0].IDA != 10 || p[0].IDB != 300 || p[2].IDB != 302 {
				t.Errorf("shards=%d bulk=%v: closest pairs %+v, want (10,300) (10,301) (10,302)", shards, bulk, p)
			}
		}
	}
}

// TestNonFiniteRejected: a NaN or an infinity in a series is ErrNonFinite
// at Open, CreateFile, Insert and every query that takes a series, and a
// rejected insert leaves nothing behind — not in the tree (Verify), not
// in the answers, not in the file or its log.
func TestNonFiniteRejected(t *testing.T) {
	ss := datagen.RandomWalks(43, 120, 32)
	poison := func(v float64) Series {
		s := ss[5].Clone()
		s[17] = v
		return s
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

	for _, v := range bad {
		if _, err := Open(append(ss[:3:3], poison(v)), nil, Options{}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Open with %v: %v, want ErrNonFinite", v, err)
		}
	}
	path := filepath.Join(t.TempDir(), "db.tsq")
	if _, err := CreateFile(path, append(ss[:3:3], poison(bad[0])), nil, Options{}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("CreateFile: %v, want ErrNonFinite", err)
	}

	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.85)
	for _, shards := range []int{1, 3} {
		path := filepath.Join(t.TempDir(), "db.tsq")
		db, err := CreateFile(path, ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range bad {
			q := poison(v)
			if id, err := db.Insert("poison", q); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("shards=%d Insert with %v: id %d, err %v, want ErrNonFinite", shards, v, id, err)
			} else if !strings.Contains(err.Error(), "position 17") {
				t.Errorf("shards=%d Insert error %q does not name the position", shards, err)
			}
			if _, _, err := db.Range(q, ts, thr, QueryOptions{}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Range with %v: %v", v, err)
			}
			if _, _, err := db.NearestNeighbors(q, ts, 3, QueryOptions{}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("NearestNeighbors with %v: %v", v, err)
			}
			if _, _, err := db.RawRange(q, 10, true); !errors.Is(err, ErrNonFinite) {
				t.Errorf("RawRange with %v: %v", v, err)
			}
			if res := db.Batch(context.Background(), []BatchRequest{{Query: q, Transforms: ts, Threshold: thr}}, 1); !errors.Is(res[0].Err, ErrNonFinite) {
				t.Errorf("Batch with %v: %v", v, res[0].Err)
			}
		}
		if db.Len() != len(ss) {
			t.Errorf("shards=%d: Len = %d after rejected inserts, want %d", shards, db.Len(), len(ss))
		}
		if err := db.Verify(); err != nil {
			t.Errorf("shards=%d: Verify after rejected inserts: %v", shards, err)
		}
		// A good insert still works, and the index still answers as the scan does.
		if _, err := db.Insert("fine", ss[7].Clone()); err != nil {
			t.Fatal(err)
		}
		want, _, err := db.Range(ss[9], ts, thr, QueryOptions{Algorithm: SeqScan})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := db.Range(ss[9], ts, thr, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		SortMatches(got)
		SortMatches(want)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: index returned %d matches, the scan %d", shards, len(got), len(want))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFile(path)
		if err != nil {
			t.Fatalf("shards=%d: reopen: %v", shards, err)
		}
		if re.Len() != len(ss)+1 {
			t.Errorf("shards=%d: reopened Len = %d, want %d", shards, re.Len(), len(ss)+1)
		}
		if err := re.Verify(); err != nil {
			t.Errorf("shards=%d: reopened Verify: %v", shards, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBadThresholds: a NaN threshold is ErrNonFinite on every shape that
// takes one — it used to walk the whole index and return no matches and
// no error — and a negative distance is the empty answer without a
// single node or page read, on the index and the scan alike.
func TestBadThresholds(t *testing.T) {
	ss := datagen.RandomWalks(53, 150, 32)
	ts := MovingAverages(32, 3, 8)
	for _, shards := range []int{1, 2} {
		db, err := Open(ss, nil, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		q := db.Get(3)
		for _, alg := range []Algorithm{Auto, MTIndex, STIndex, SeqScan} {
			opts := QueryOptions{Algorithm: alg}
			run := func(thr Threshold) map[string]error {
				errs := map[string]error{}
				var m []Match
				var j []JoinMatch
				m, _, errs["Range"] = db.Range(q, ts, thr, opts)
				n := len(m)
				m, _, errs["RangeByID"] = db.RangeByID(3, ts, thr, opts)
				n += len(m)
				res := db.Batch(context.Background(), []BatchRequest{{Query: q, Transforms: ts, Threshold: thr, Opts: opts}}, 1)
				errs["Batch"] = res[0].Err
				n += len(res[0].Matches)
				j, _, errs["Join"] = db.Join(ts[:2], thr, opts)
				if n += len(j); n != 0 {
					t.Errorf("shards=%d %v %v: %d matches", shards, alg, thr, n)
				}
				return errs
			}
			for _, thr := range []Threshold{Distance(math.NaN()), Correlation(math.NaN())} {
				for shape, err := range run(thr) {
					if !errors.Is(err, ErrNonFinite) {
						t.Errorf("shards=%d %v %s with %v: err %v, want ErrNonFinite", shards, alg, shape, thr, err)
					}
				}
			}
			before := db.DiskStats()
			for _, thr := range []Threshold{Distance(-1), Distance(math.Inf(-1))} {
				for shape, err := range run(thr) {
					if err != nil {
						t.Errorf("shards=%d %v %s with %v: %v, want the empty answer", shards, alg, shape, thr, err)
					}
				}
			}
			if after := db.DiskStats(); after != before {
				t.Errorf("shards=%d %v: a negative threshold touched pages: %+v -> %+v", shards, alg, before, after)
			}
		}
		for _, useIndex := range []bool{true, false} {
			if _, _, err := db.RawRange(q, math.NaN(), useIndex); !errors.Is(err, ErrNonFinite) {
				t.Errorf("shards=%d RawRange(index=%v) with NaN: %v", shards, useIndex, err)
			}
			before := db.DiskStats()
			if m, st, err := db.RawRange(q, -1, useIndex); err != nil || len(m) != 0 || st.DAAll != 0 || db.DiskStats() != before {
				t.Errorf("shards=%d RawRange(index=%v) with -1: %d matches, stats %+v, err %v", shards, useIndex, len(m), st, err)
			}
		}
		// Nor does a planner price a NaN threshold.
		for _, thr := range []Threshold{Distance(math.NaN()), Correlation(math.NaN())} {
			if plan, err := db.Explain(q, ts, thr); !errors.Is(err, ErrNonFinite) {
				t.Errorf("shards=%d Explain with %v: %q, err %v, want ErrNonFinite", shards, thr, plan, err)
			}
			if groups, _, err := db.OptimalPartition(q, ts, thr); !errors.Is(err, ErrNonFinite) {
				t.Errorf("shards=%d OptimalPartition with %v: %v, err %v, want ErrNonFinite", shards, thr, groups, err)
			}
		}
		// The smallest thresholds that do ask something still answer.
		if m, _, err := db.Range(q, ts, Distance(0), QueryOptions{}); err != nil || len(m) == 0 {
			t.Errorf("shards=%d: eps = 0 finds %d matches of a stored query, err %v", shards, len(m), err)
		}
	}
}

// TestEveryAlgorithmOnEveryShape: each Algorithm value is accepted by each
// query shape — Auto included, which plans a range query and means the
// index where there is no planner — with the answer the shape's default
// gives, and a value outside the enumeration is an error naming it.
func TestEveryAlgorithmOnEveryShape(t *testing.T) {
	db := openTestDB(t, 47, 150, 32)
	ts := MovingAverages(32, 3, 8)
	thr := Correlation(0.85)
	q := db.Get(3)
	shapes := []struct {
		name string
		run  func(Algorithm) (any, error)
	}{
		{"Range", func(a Algorithm) (any, error) {
			m, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: a})
			SortMatches(m)
			for i := range m {
				m[i].Distance = 0 // ordered plans certify matches without one
			}
			return m, err
		}},
		{"NearestNeighbors", func(a Algorithm) (any, error) {
			m, _, err := db.NearestNeighbors(q, ts, 4, QueryOptions{Algorithm: a})
			return m, err
		}},
		{"Join", func(a Algorithm) (any, error) {
			m, _, err := db.Join(ts[:2], thr, QueryOptions{Algorithm: a})
			sortJoinMatches(m)
			return m, err
		}},
		{"ClosestPairs", func(a Algorithm) (any, error) {
			m, _, err := db.ClosestPairs(ts[:2], 4, a)
			return m, err
		}},
		{"Batch", func(a Algorithm) (any, error) {
			res := db.Batch(context.Background(), []BatchRequest{{Query: q, Transforms: ts, Threshold: thr, Opts: QueryOptions{Algorithm: a}}}, 1)
			SortMatches(res[0].Matches)
			for i := range res[0].Matches {
				res[0].Matches[i].Distance = 0
			}
			return res[0].Matches, res[0].Err
		}},
	}
	for _, sh := range shapes {
		want, err := sh.run(MTIndex)
		if err != nil {
			t.Fatalf("%s MT-index: %v", sh.name, err)
		}
		for _, a := range []Algorithm{STIndex, SeqScan, Auto} {
			got, err := sh.run(a)
			if err != nil {
				t.Errorf("%s rejects %v: %v", sh.name, a, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %v answers differently from MT-index", sh.name, a)
			}
		}
		for _, a := range []Algorithm{Algorithm(4), Algorithm(-1)} {
			if _, err := sh.run(a); err == nil || !strings.Contains(err.Error(), "unknown algorithm "+a.String()) {
				t.Errorf("%s with %v: err %v, want an unknown-algorithm error naming it", sh.name, a, err)
			}
		}
	}
}
