package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"tsq/internal/datagen"
	"tsq/internal/transform"
)

// The two top-k scans keep only the k best results and abandon each
// evaluation at the k-th best distance so far. The forms below are what
// they were before: every result collected, the whole list sorted, then
// cut to k, every evaluation abandoning at the running minimum alone (NN)
// or not at all (closest pairs). They are the references the scans are
// held to.

// sortNN puts nearest-neighbor answers in rank order.
func sortNN(ms []NNMatch) {
	sort.Slice(ms, func(i, j int) bool { return lessNN(ms[i], ms[j]) })
}

// collectSeqScanNN is SeqScanNN as a collect-and-sort scan.
func collectSeqScanNN(src RecordSource, q *Record, ts []transform.Transform, k int, oneSided bool) ([]NNMatch, error) {
	var st QueryStats
	best := make([]NNMatch, 0, src.Len())
	err := src.visit(nil, 0, src.Len(), new(scanBuf), func(r *Record) error {
		if r.ID == q.ID {
			return nil
		}
		m := NNMatch{RecordID: r.ID, Distance: math.Inf(1)}
		for i, t := range ts {
			if d, _ := st.evaluate(t, r, q, m.Distance, oneSided); d < m.Distance {
				m.Distance, m.TransformIdx = d, i
			}
		}
		best = append(best, m)
		return nil
	})
	sortNN(best)
	if k < len(best) {
		best = best[:max(k, 0)]
	}
	return best, err
}

// collectSeqScanClosestPairs is SeqScanClosestPairs as a collect-and-sort
// scan.
func collectSeqScanClosestPairs(src RecordSource, ts []transform.Transform, k int) ([]JoinMatch, error) {
	var st QueryStats
	var all []JoinMatch
	recs, err := liveSpectra(src)
	if err != nil {
		return nil, err
	}
	for i, a := range recs {
		for _, b := range recs[i+1:] {
			best := JoinMatch{IDA: a.ID, IDB: b.ID, Distance: math.Inf(1)}
			for ti, t := range ts {
				if d, _ := st.evaluate(t, a, b, math.Inf(1), false); d < best.Distance {
					best.Distance, best.TransformIdx = d, ti
				}
			}
			all = append(all, best)
		}
	}
	sort.Slice(all, func(i, j int) bool { return lessPair(all[i], all[j]) })
	if k < len(all) {
		all = all[:max(k, 0)]
	}
	return all, nil
}

// sameAnswers is reflect.DeepEqual, except that an empty answer equals an
// empty answer whether or not it is nil.
func sameAnswers[T any](got, want []T) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestSeqScanNNEqualsCollectAndSort holds the top-k scan to the
// collect-and-sort one on the tie fixture of TestNNTiesAtKthEqualScan
// (seven records at exactly one distance from the query, ranks 4..10),
// both sidednesses, for k = 0, 1, k through the tie and k past the number
// of records: the same records under the same transformations at the
// same distances in the same order. Every k > 0 evaluates every record;
// k = 0 returns at once with zero stats, as the index search does. The
// k-th best cutoff must abandon evaluations the running minimum alone
// did not.
func TestSeqScanNNEqualsCollectAndSort(t *testing.T) {
	const query = 10
	ss := datagen.RandomWalks(16, 320, 64)
	ts := transform.MovingAverageSet(64, 4, 9)
	base, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	near, err := collectSeqScanNN(base, base.Records[query], ts, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	for id := 300; id < 306; id++ {
		ss[id] = ss[near[4].RecordID].Clone()
	}
	ds, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Records[query]
	if full, _ := collectSeqScanNN(ds, q, ts, 12, false); full[4].Distance != full[10].Distance {
		t.Fatalf("fixture: ranks 4 and 10 at %v and %v: the copies do not tie", full[4].Distance, full[10].Distance)
	}
	for _, oneSided := range []bool{false, true} {
		var abandoned int
		for _, k := range []int{0, 1, 4, 5, 7, 10, 11, len(ss) - 1, len(ss) + 5} {
			want, err := collectSeqScanNN(ds, q, ts, k, oneSided)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := SeqScanNN(nil, ds, q, ts, k, oneSided)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(got, want) {
				t.Errorf("oneSided=%v %d-NN:\n   top-k %+v\ncollected %+v", oneSided, k, got, want)
			}
			if want := len(ss) - 1; k == 0 && st != (QueryStats{}) || k > 0 && st.Candidates != want {
				t.Errorf("oneSided=%v %d-NN: %d candidates (stats %+v), want every record but the query (%d), none at k = 0", oneSided, k, st.Candidates, st, want)
			}
			if k == 5 {
				abandoned = st.Abandoned
			}
		}
		var ref QueryStats
		for _, r := range ds.Records {
			if r.ID != q.ID {
				ref.scanBest(ts, r, q, math.Inf(1), oneSided)
			}
		}
		if abandoned <= ref.Abandoned {
			t.Errorf("oneSided=%v: the 5-NN scan abandoned %d evaluations, the running minimum alone %d: the k-th best cuts nothing", oneSided, abandoned, ref.Abandoned)
		}
	}
}

// TestSeqScanClosestPairsEqualsCollectAndSort holds the top-k pair scan
// to the collect-and-sort one on the tie fixture of
// TestJoinClosestTiesEqualScan (six pairs at distance 0, then four at one
// distance d), for k = 0, 1, k through each tie and k past the number of
// pairs (k = 0 evaluates nothing and returns zero stats), and checks that
// the k-th best cutoff abandons evaluations.
func TestSeqScanClosestPairsEqualsCollectAndSort(t *testing.T) {
	ss := datagen.RandomWalks(29, 150, 64)
	ts := transform.MovingAverageSet(64, 4, 7)
	base, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	closest, err := collectSeqScanClosestPairs(base, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 140; id < 143; id++ {
		ss[id] = ss[closest[0].IDB].Clone()
	}
	ds, err := NewDataset(ss, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := len(ss) * (len(ss) - 1) / 2
	for _, k := range []int{0, 1, 3, 6, 8, 10, 14, pairs, pairs + 3} {
		want, err := collectSeqScanClosestPairs(ds, ts, k)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := SeqScanClosestPairs(ds, ts, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Errorf("%d closest pairs:\n   top-k %+v\ncollected %+v", k, got, want)
		}
		if k == 0 && st != (QueryStats{}) || k > 0 && st.Candidates != pairs {
			t.Errorf("%d closest pairs: %d candidates (stats %+v), want all %d pairs, none at k = 0", k, st.Candidates, st, pairs)
		}
		if k > 0 && k < pairs && st.Abandoned == 0 {
			t.Errorf("%d closest pairs: no evaluation abandoned at the k-th best", k)
		}
	}
	if p, _ := collectSeqScanClosestPairs(ds, ts, 10); p[5].Distance != 0 || p[6].Distance == 0 || p[6].Distance != p[9].Distance {
		t.Fatalf("fixture: ranks 5..9 at %v .. %v; want 0, then four pairs at one distance", p[5].Distance, p[9].Distance)
	}
}
