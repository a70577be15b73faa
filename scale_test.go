package tsq

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/datagen"
)

// scaled returns s times a.
func scaled(s Series, a float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = a * v
	}
	return out
}

// answerKeys is what a range answer says: the (record, transformation)
// pairs, sorted. Distances are left out, as a scaled series' normal form
// equals the unscaled one's only up to rounding.
func answerKeys(ms []Match) [][2]int64 {
	out := make([][2]int64, len(ms))
	for i, m := range ms {
		out[i] = [2]int64{m.RecordID, int64(m.TransformIdx)}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || out[i][0] == out[j][0] && out[i][1] < out[j][1]
	})
	return out
}

// TestScaledSeriesAnswerAsUnscaled: a query is taken over normal forms,
// so a series times a = 10^k, k = -300..300, answers as the series
// itself: as an ad hoc query, and as a stored series that stands in
// for the unscaled one. Range and 1-NN, by MT-index and by scan, must
// name the same records under the same transformations. Past about
// 1e154 a sum of squared deviations overflows, below about 1e-162 it
// underflows to zero, and an unscaled standard deviation then makes the
// normal form all zeros: a constant that matches nothing.
func TestScaledSeriesAnswerAsUnscaled(t *testing.T) {
	const n, count = 64, 120
	ss := datagen.RandomWalks(56, count, n)
	q := datagen.RandomWalks(57, 1, n)[0]
	ts := MovingAverages(n, 2, 6)
	thr := Correlation(0.8)
	db, err := Open(ss, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{MTIndex, SeqScan} {
		opts := QueryOptions{Algorithm: alg}
		wantRange, _, err := db.Range(q, ts, thr, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantNN, _, err := db.NearestNeighbors(q, ts, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantRange) == 0 || len(wantNN) != 1 {
			t.Fatalf("%v: %d matches and %d neighbours; the fixture needs some", alg, len(wantRange), len(wantNN))
		}
		// The stored series the scaled copy stands in for: the nearest.
		x := wantNN[0].RecordID
		for k := -300; k <= 300; k += 10 {
			a := math.Pow(10, float64(k))
			name := fmt.Sprintf("%v, a=1e%d", alg, k)

			got, _, err := db.Range(scaled(q, a), ts, thr, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(answerKeys(got), answerKeys(wantRange)) {
				t.Fatalf("%s: ad hoc range answers %v, unscaled %v", name, answerKeys(got), answerKeys(wantRange))
			}
			nn, _, err := db.NearestNeighbors(scaled(q, a), ts, 1, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(nn) != 1 || nn[0].RecordID != x || nn[0].TransformIdx != wantNN[0].TransformIdx {
				t.Fatalf("%s: ad hoc 1-NN %v, unscaled %v", name, nn, wantNN)
			}

			// The scaled copy of x in x's place.
			sub, err := Open(ss, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Delete(x); err != nil {
				t.Fatal(err)
			}
			id, err := sub.Insert("copy", scaled(ss[x], a))
			if err != nil {
				t.Fatalf("%s: insert: %v", name, err)
			}
			want := make([]Match, len(wantRange))
			for i, m := range wantRange {
				if m.RecordID == x {
					m.RecordID = id
				}
				want[i] = m
			}
			got, _, err = sub.Range(q, ts, thr, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(answerKeys(got), answerKeys(want)) {
				t.Fatalf("%s: range with the stored copy answers %v, want %v", name, answerKeys(got), answerKeys(want))
			}
			nn, _, err = sub.NearestNeighbors(q, ts, 1, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(nn) != 1 || nn[0].RecordID != id || nn[0].TransformIdx != wantNN[0].TransformIdx {
				t.Fatalf("%s: 1-NN with the stored copy %v, want id %d under transformation %d", name, nn, id, wantNN[0].TransformIdx)
			}
			if err := sub.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
