package tsq

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"tsq/internal/core"
	"tsq/internal/datagen"
	"tsq/internal/storage"
	"tsq/internal/transform"
)

// TestFullOrderSumsArePagedBitIdentical: a paged record's verify part
// holds f = 0..n/2 of its spectrum, which is all a symmetric sum reads. A
// distance summed over f = 0..n-1 — a one-sided TimeShiftApprox, a
// FullOrder copy, a hand-made vector whose upper half differs from its
// mirror — is taken over the whole spectrum rebuilt from the record's
// series, which is not the mirror of the lower half (the transform
// computes the upper half on its own, and its bits differ). So range and
// NN answers, by the index and by the scan, for ad-hoc and stored query
// points, on a file-backed database and on one paged in memory, equal
// the in-memory database's, every distance bit for bit.
func TestFullOrderSumsArePagedBitIdentical(t *testing.T) {
	const n, count = 64, 400
	ss := datagen.RandomWalks(61, count, n)
	perturbed := MovingAverage(n, 4)
	a := append([]float64(nil), perturbed.A...)
	a[2*(n-3)] *= 1.5 // coefficient n-3 no longer acts like its mirror 3
	perturbed = transform.New("mv4-perturbed", a, perturbed.B)
	sets := []struct {
		name string
		ts   []Transform
		opts QueryOptions
	}{
		{"one-sided approximate shifts", []Transform{transform.TimeShiftApprox(n, 3), transform.TimeShiftApprox(n, 5)}, QueryOptions{OneSided: true}},
		{"full-order moving average", []Transform{MovingAverage(n, 4).FullOrder()}, QueryOptions{}},
		{"perturbed upper coefficient", []Transform{perturbed, MovingAverage(n, 6)}, QueryOptions{}},
	}
	for _, set := range sets {
		if !core.WholeSpectrum(set.ts, set.opts.OneSided) {
			t.Fatalf("%s: the set sums half spectra; the test is vacuous", set.name)
		}
	}
	mem, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	file, err := CreateFile(filepath.Join(t.TempDir(), "full.tsq"), ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	ds, err := core.NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ds, core.IndexOptions{K: 2, UseSymmetry: true, Paged: true, BulkLoad: true,
		Manager: storage.NewManager(storage.Options{PageSize: storage.DefaultPageSize})})
	if err != nil {
		t.Fatal(err)
	}
	paged := &DB{ix: core.WrapIndex(ix)}
	queries := []int64{0, 57, 211, 398}
	answers := func(db *DB, ts []Transform, opts QueryOptions) (out []any) {
		for _, alg := range []Algorithm{MTIndex, SeqScan} {
			opts.Algorithm = alg
			var reqs []BatchRequest
			for _, id := range queries {
				ms, _, err := db.RangeByID(id, ts, Distance(6), opts)
				if err != nil {
					t.Fatal(err)
				}
				SortMatches(ms)
				nn, _, err := db.NearestNeighbors(ss[id], ts, 5, opts)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ms, nn)
				reqs = append(reqs, BatchRequest{ByID: true, ID: id, Transforms: ts, K: 5, Opts: opts})
			}
			for _, r := range db.Batch(context.Background(), reqs, 1) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				out = append(out, r.NN)
			}
		}
		return out
	}
	for _, set := range sets {
		want := answers(mem, set.ts, set.opts)
		matched := 0
		for _, a := range want {
			matched += reflect.ValueOf(a).Len()
		}
		if matched == 0 {
			t.Fatalf("%s: no answers; the test is vacuous", set.name)
		}
		for _, db := range []struct {
			name string
			db   *DB
		}{{"file", file}, {"paged in memory", paged}} {
			got := answers(db.db, set.ts, set.opts)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s, %s: answer %d is %v, in memory %v", set.name, db.name, i, fmt.Sprint(got[i]), fmt.Sprint(want[i]))
				}
			}
		}
	}
}
