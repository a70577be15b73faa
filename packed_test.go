package tsq

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/core"
	"tsq/internal/datagen"
)

// openBuiltBy opens ss in memory with opts, its trees packed as every
// build of the facade packs them or, packed false, grown by insertion
// through core, which the facade no longer builds: the tree inserts
// leave behind, kept as a reference.
func openBuiltBy(tb testing.TB, ss []Series, opts Options, packed bool) *DB {
	tb.Helper()
	if packed {
		db, err := Open(ss, nil, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return db
	}
	ds, err := core.NewDataset(ss, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := core.BuildSharded(ds, opts.Shards, core.IndexOptions{
		K:           opts.K,
		PageSize:    opts.PageSize,
		BufferPages: opts.BufferPages,
		UseSymmetry: !opts.DisableSymmetry,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &DB{ix: ix}
}

// openOrCreate opens ss in memory or creates it as a file under dir.
func openOrCreate(t *testing.T, dir string, onFile bool, ss []Series, opts Options) *DB {
	t.Helper()
	var db *DB
	var err error
	if onFile {
		db, err = CreateFile(filepath.Join(dir, "packed.tsq"), ss, nil, opts)
	} else {
		db, err = Open(ss, nil, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// rawEqualsScan checks that the indexed RawRange of q finds what the raw
// scan finds, at a radius that admits about a tenth of the live series
// (at least one), and returns the number of matches.
func rawEqualsScan(t *testing.T, db *DB, q Series) int {
	t.Helper()
	all, _, err := db.RawRange(q, 1e12, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		return 0
	}
	dists := make([]float64, len(all))
	for i, m := range all {
		dists[i] = m.Distance
	}
	sort.Float64s(dists)
	eps := dists[len(dists)/10]
	want, _, err := db.RawRange(q, eps, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.RawRange(q, eps, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range [][]RawMatch{want, got} {
		sort.Slice(ms, func(i, j int) bool { return ms[i].RecordID < ms[j].RecordID })
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("raw range at %v: index %d matches, scan %d", eps, len(got), len(want))
	}
	return len(want)
}

// answersEqualScan checks that range and 5-NN under the index answer as
// the sequential scan does, and the indexed raw range as the raw scan.
func answersEqualScan(t *testing.T, db *DB, q Series, ts []Transform) {
	t.Helper()
	thr := Correlation(0.9)
	want, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Range(q, ts, thr, QueryOptions{Algorithm: MTIndex})
	if err != nil {
		t.Fatal(err)
	}
	SortMatches(want)
	SortMatches(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range: index %d matches, scan %d", len(got), len(want))
	}
	wantNN, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{Algorithm: SeqScan})
	if err != nil {
		t.Fatal(err)
	}
	gotNN, _, err := db.NearestNeighbors(q, ts, 5, QueryOptions{Algorithm: MTIndex})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNN, wantNN) {
		t.Fatalf("5-NN: index %+v, scan %+v", gotNN, wantNN)
	}
	rawEqualsScan(t, db, q)
}

// TestRawRangeOnPackedTree: RawRange filters on the mean and std
// dimensions, which the packed tree carries without cutting, so it reads
// most of the tree's nodes; its answers stay the raw scan's. At shards 1
// and 2, in memory and from a file, as built and after inserts and
// deletes (which place by the coefficient dimensions too).
func TestRawRangeOnPackedTree(t *testing.T) {
	const n = 64
	ss := datagen.RandomWalks(83, 600, n)
	extra := datagen.RandomWalks(89, 200, n)
	for _, shards := range []int{1, 2} {
		for _, onFile := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d file=%v", shards, onFile), func(t *testing.T) {
				db := openOrCreate(t, t.TempDir(), onFile, ss, Options{Shards: shards})
				defer db.Close()
				for _, q := range []Series{ss[5], extra[0]} {
					rawEqualsScan(t, db, q)
				}
				for i, s := range extra {
					if _, err := db.Insert(fmt.Sprintf("x%d", i), s); err != nil {
						t.Fatal(err)
					}
					if i%2 == 0 {
						if err := db.Delete(int64(3 * i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, q := range []Series{ss[5], extra[0], extra[199]} {
					if m := rawEqualsScan(t, db, q); m < 20 {
						t.Fatalf("%d raw matches: the test is vacuous", m)
					}
				}
			})
		}
	}
}

// TestPackedBuildsOfFewSeries: every build packs, an empty shard or
// database included. One series over three shards (two trees packed from
// nothing) and a database whose every series was deleted answer as the
// scan does, in memory and from a reopened file, and take inserts that
// are then found.
func TestPackedBuildsOfFewSeries(t *testing.T) {
	const n = 32
	ss := datagen.RandomWalks(97, 40, n)
	extra := datagen.RandomWalks(101, 60, n)
	ts := MovingAverages(n, 3, 6)
	for _, emptied := range []bool{false, true} {
		for _, onFile := range []bool{false, true} {
			t.Run(fmt.Sprintf("emptied=%v file=%v", emptied, onFile), func(t *testing.T) {
				dir := t.TempDir()
				base, opts := ss[:1], Options{Shards: 3}
				if emptied {
					base, opts = ss, Options{}
				}
				db := openOrCreate(t, dir, onFile, base, opts)
				if emptied {
					for id := range base {
						if err := db.Delete(int64(id)); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					answersEqualScan(t, db, ss[0], ts)
				}
				for i, s := range extra {
					if _, err := db.Insert(fmt.Sprintf("x%d", i), s); err != nil {
						t.Fatal(err)
					}
				}
				if onFile {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					var err error
					if db, err = OpenFile(filepath.Join(dir, "packed.tsq")); err != nil {
						t.Fatal(err)
					}
				}
				defer db.Close()
				if err := db.Verify(); err != nil {
					t.Fatal(err)
				}
				want := len(extra)
				if !emptied {
					want += len(base)
				}
				if all, _, err := db.RawRange(ss[0], 1e12, true); err != nil || len(all) != want {
					t.Fatalf("%d series found (%v), want %d", len(all), err, want)
				}
				for _, q := range []Series{ss[0], extra[7]} {
					answersEqualScan(t, db, q, ts)
				}
			})
		}
	}
}

// packingCorpus is a data set packed and grown trees are compared on.
type packingCorpus struct {
	name string
	ss   []Series
	page int
}

// packingCorpora are 1 068 stocks at 1 KiB pages and 6 000 random walks
// at 4 KiB pages.
func packingCorpora() []packingCorpus {
	return []packingCorpus{
		{"stocks", datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions()), 1024},
		{"walks", datagen.RandomWalks(1999, 6000, benchLen), 4096},
	}
}

// TestPackedReadsNoMoreThanGrown: the packed tree every build makes reads
// no more nodes per MT range query than one grown by insertion, and
// admits the same candidates, on 1 068 stocks at 1 KiB pages and 6 000
// random walks at 4 KiB pages, 30 queries under MV(5..20) at ρ 0.96.
// Packing with as many slabs in every dimension cuts the phases as often
// as the magnitudes, though a radian of ∠F_2 is worth far less distance
// than one of |F_1|; on the stocks that read 930 nodes to the grown
// tree's 839.
func TestPackedReadsNoMoreThanGrown(t *testing.T) {
	for _, tc := range packingCorpora() {
		var st [2]Stats // grown, packed
		for b, packed := range []bool{false, true} {
			db := openBuiltBy(t, tc.ss, Options{PageSize: tc.page}, packed)
			for i := 0; i < 30; i++ {
				_, qs, err := db.RangeByID(int64(i*37%len(tc.ss)), MovingAverages(benchLen, 5, 20), Correlation(0.96), QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				st[b].Add(qs)
			}
		}
		grown, packed := st[0], st[1]
		t.Logf("%s: packed reads %d nodes, grown %d; %d candidates", tc.name, packed.DAAll, grown.DAAll, packed.Candidates)
		if packed.Candidates != grown.Candidates || packed.DAAll > grown.DAAll {
			t.Errorf("%s: packed tree reads %d nodes for %d candidates, grown tree %d for %d", tc.name, packed.DAAll, packed.Candidates, grown.DAAll, grown.Candidates)
		}
	}
}
