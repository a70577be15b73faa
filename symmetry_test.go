package tsq

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/transform"
)

// symmetrySet is one transformation set of TestAsymmetricSetsEqualScan,
// with the options its range and NN queries run under, the distances its
// range queries ask for and the distance of its join.
type symmetrySet struct {
	name  string
	ts    []Transform
	opts  QueryOptions
	dists []float64
	join  float64
}

// symmetrySets are transformation sets the DFT symmetry property does not
// cover as a whole, or covers only by their classification: a struct
// literal (unclassified) that keeps coefficients 0..n/2 and zeroes the
// mirror half, so term n-f of a distance is not term f; the hand-made
// groups of the rectangle-bound suite (internal/core/rectbound_test.go),
// whose magnitude maps are negative or cross zero and whose phase
// multipliers are 2 and -0.5 (the last not an integer, so not
// symmetric); the literal beside built-ins; built-ins compared with a
// query point moved by TimeShiftApprox, which is not a real spectrum; and
// a magnitude offset that moves coefficient 1 of zeroCrossingPair's two
// series to +0.595 at phase 0 and -0.595 at phase π, one point, while
// their signed magnitudes lie 1.19 apart. One set is one-sided: time
// shifts composed until their phase offsets pass 4π, and an identity
// that adds 6π to every phase.
func symmetrySets(n int) []symmetrySet {
	half := Transform{Name: "half", A: make([]float64, 2*n), B: make([]float64, 2*n)}
	for f := 0; f < n; f++ {
		half.A[2*f+1] = 1
		if f <= n/2 {
			half.A[2*f] = 1
		}
	}
	edited := func(name string, edit func(a, b []float64, f int)) Transform {
		t := transform.MovingAverage(n, 5)
		for f := 0; f < n; f++ {
			edit(t.A, t.B, f)
		}
		return transform.New(name, t.A, t.B)
	}
	negScale := edited("scale-1.5", func(a, _ []float64, f int) { a[2*f] *= -1.5 })
	mvs := MovingAverages(n, 2, 6)
	shift := transform.TimeShiftApprox(n, 5)
	crossA, crossB := make([]float64, 2*n), make([]float64, 2*n)
	for i := range crossA {
		crossA[i] = 1
	}
	crossB[2], crossB[2*(n-1)] = -0.992, -0.992
	// Five and six shifts by n/2-2 composed: Compose adds their phase
	// offsets unreduced, about -14.7 and -17.7 on coefficient 1, and an
	// identity whose phase offsets are 6π.
	step := TimeShift(n, n/2-2)
	shifts := []Transform{step}
	for len(shifts) < 6 {
		shifts = append(shifts, Compose(step, shifts[len(shifts)-1]))
	}
	wrapped := Identity(n)
	for f := 0; f < n; f++ {
		wrapped.B[2*f+1] = 6 * math.Pi
	}
	wrapped = transform.New("identity+6π", wrapped.A, wrapped.B)
	near := []float64{3, 4}
	return []symmetrySet{
		{"half-spectrum literal", []Transform{half}, QueryOptions{}, near, 2.5},
		{"negative scale", []Transform{negScale, Inverted(negScale)}, QueryOptions{}, near, 2.5},
		{"affine magnitude", []Transform{edited("mag-3", func(a, b []float64, f int) { a[2*f], b[2*f] = 1, -3 }), mvs[0]}, QueryOptions{}, near, 2.5},
		{"phase multipliers", []Transform{
			edited("phase*2", func(a, _ []float64, f int) { a[2*f+1] = 2 }),
			edited("phase*-0.5", func(a, _ []float64, f int) { a[2*f+1] = -0.5 }),
		}, QueryOptions{}, near, 2.5},
		{"literal and moving averages", append([]Transform{half}, mvs...), QueryOptions{}, near, 2.5},
		// A shifted query is far from everything smoothed: nothing is
		// within 4 of it.
		{"shifted query", mvs, QueryOptions{QueryTransform: &shift}, []float64{6, 8}, 2.5},
		// One-sided, the unwrapped data phases lie several turns away
		// from the query's: a fixed window of wraps lost every match of
		// the identity and most of the shifts'.
		{"composed shifts, one-sided", []Transform{shifts[4], shifts[5], wrapped}, QueryOptions{OneSided: true}, near, 2.5},
		// The join's gap test saw 1.19 where the pair is 0.3042 apart.
		{"zero-crossing magnitude", []Transform{transform.New("cross", crossA, crossB)}, QueryOptions{}, near, 0.5},
	}
}

// zeroCrossingPair returns the two series the "zero-crossing magnitude"
// set maps onto one another, and ten copies of the first ten walks with a
// little noise, so the ten closest pairs are all closer than the gap the
// signed magnitudes of the two show.
func zeroCrossingPair(n int, walks []Series) []Series {
	x, y := make(Series, n), make(Series, n)
	for t := range x {
		w := 2 * math.Pi * float64(t) / float64(n)
		x[t] = 0.4*math.Cos(w) + 1.3565*math.Cos(5*w)
		y[t] = -0.1*math.Cos(w) + 1.4107*math.Cos(5*w)
	}
	noise := datagen.RandomWalks(35, 10, n)
	var out []Series
	for i, w := range walks[:10] {
		c := w.Clone()
		for t := range c {
			c[t] += 0.05 * noise[i][t]
		}
		out = append(out, c)
	}
	return append(out, x, y)
}

// symmetryAnswers is what TestAsymmetricSetsEqualScan compares: range
// answers around every query id at the set's distances, by one rectangle
// (MTIndex) and by one rectangle per transformation (STIndex), its 5
// nearest neighbours, the join at the set's distance and the 10 closest
// pairs.
type symmetryAnswers struct {
	Range, RangeST []Match
	NN             []NNMatch
	Join, Pairs    []JoinMatch
}

// rangeAll answers the range queries of TestAsymmetricSetsEqualScan over
// set with algorithm alg.
func rangeAll(t *testing.T, db *DB, set symmetrySet, queries []int64, alg Algorithm) []Match {
	t.Helper()
	var out []Match
	opts := set.opts
	opts.Algorithm = alg
	for _, id := range queries {
		for _, d := range set.dists {
			ms, _, err := db.RangeByID(id, set.ts, Distance(d), opts)
			if err != nil {
				t.Fatal(err)
			}
			SortMatches(ms)
			out = append(out, ms...)
		}
	}
	return out
}

// answerAll runs the queries of TestAsymmetricSetsEqualScan over set with
// algorithm alg, the range queries again under STIndex when alg is the
// index, and the join and closest pairs only when pairs is set.
func answerAll(t *testing.T, db *DB, set symmetrySet, queries []int64, alg Algorithm, pairs bool) symmetryAnswers {
	t.Helper()
	a := symmetryAnswers{Range: rangeAll(t, db, set, queries, alg)}
	a.RangeST = a.Range
	if alg != SeqScan {
		a.RangeST = rangeAll(t, db, set, queries, STIndex)
	}
	opts := set.opts
	opts.Algorithm = alg
	for _, id := range queries {
		nn, _, err := db.NearestNeighbors(db.Get(id), set.ts, 5, opts)
		if err != nil {
			t.Fatal(err)
		}
		a.NN = append(a.NN, nn...)
	}
	if !pairs {
		return a
	}
	var err error
	if a.Join, _, err = db.Join(set.ts, Distance(set.join), QueryOptions{Algorithm: alg}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(a.Join, func(i, j int) bool {
		x, y := a.Join[i], a.Join[j]
		if x.IDA != y.IDA {
			return x.IDA < y.IDA
		}
		if x.IDB != y.IDB {
			return x.IDB < y.IDB
		}
		return x.TransformIdx < y.TransformIdx
	})
	if a.Pairs, _, err = db.ClosestPairs(set.ts, 10, alg); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAsymmetricSetsEqualScan is the no-false-dismissals contract for
// transformation sets the symmetry property may not be applied to: the
// filter counts the indexed coefficients twice, and shrinks the query
// rectangle to eps/√2, only for a group whose every member is proven
// symmetric. Range, NN, the join and closest pairs through the index
// equal the sequential scan, at one and two shards, in memory and from a
// file, with the symmetry property on and off. The scan's answers do not
// depend on where the records are, so they are taken once. From a file
// the join and closest pairs read two raw pages per candidate pair,
// so there they run over the first set and the zero-crossing one (the
// last, a join at 0.5) only.
func TestAsymmetricSetsEqualScan(t *testing.T) {
	t.Parallel()
	const n, count = 64, 300
	ss := datagen.RandomWalks(34, count, n)
	ss = append(ss, zeroCrossingPair(n, ss)...)
	var queries []int64
	for id := int64(3); id < count; id += 20 {
		queries = append(queries, id)
	}
	sets := symmetrySets(n)
	ref, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]symmetryAnswers, len(sets))
	for i, set := range sets {
		want[i] = answerAll(t, ref, set, queries, SeqScan, true)
	}
	for _, shards := range []int{1, 2} {
		for _, onFile := range []bool{false, true} {
			for _, disable := range []bool{false, true} {
				opts := Options{Shards: shards, DisableSymmetry: disable}
				t.Run(fmt.Sprintf("shards=%d file=%v symmetry=%v", shards, onFile, !disable), func(t *testing.T) {
					t.Parallel()
					var db *DB
					var err error
					if onFile {
						db, err = CreateFile(filepath.Join(t.TempDir(), "sym.tsq"), ss, nil, opts)
					} else {
						db, err = Open(ss, nil, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					for i, set := range sets {
						pairs := !onFile || i == 0 || i == len(sets)-1
						got := answerAll(t, db, set, queries, MTIndex, pairs)
						for _, c := range []struct {
							shape     string
							got, want any
							ran       bool
						}{
							{"range", got.Range, want[i].Range, true},
							{"ST range", got.RangeST, want[i].RangeST, true},
							{"5-NN", got.NN, want[i].NN, true},
							{"join", got.Join, want[i].Join, pairs},
							{"closest pairs", got.Pairs, want[i].Pairs, pairs},
						} {
							if c.ran && !reflect.DeepEqual(c.got, c.want) {
								t.Errorf("%s: %s answers %d rows, the scan %d",
									set.name, c.shape, reflect.ValueOf(c.got).Len(), reflect.ValueOf(c.want).Len())
							}
						}
					}
				})
			}
		}
	}
}
