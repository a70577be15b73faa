package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tsq/internal/datagen"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// The one-sided semantics is the literal form of the paper's Algorithm 1:
// find s with D(t(s), q) <= eps. These tests establish exactness of the
// indexed evaluation against the sequential scan, including for shift
// sets whose phase offsets force the modular (wraparound) filtering.

func TestOneSidedMTEqualsSeqScan(t *testing.T) {
	ds, ix := buildFixture(t, 21, 300, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 5, 20)
	eps := 6.0
	total := 0
	for trial := 0; trial < 5; trial++ {
		q := ds.Records[trial*31%len(ds.Records)]
		want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{OneSided: true})
		got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, OneSided: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(matchKeySet(got), matchKeySet(want)) {
			t.Fatalf("trial %d: one-sided MT != seqscan (%d vs %d)", trial, len(got), len(want))
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("degenerate one-sided test: no matches in any trial")
	}
}

func TestOneSidedShiftSetsWithWrap(t *testing.T) {
	// Shift sets carry large phase offsets; the one-sided filter must
	// compare phases modulo 2*pi or it silently drops matches.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		ds, err := NewDataset(datagen.RandomWalks(seed, 150, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(ds, IndexOptions{K: 2, PageSize: 512, UseSymmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := transform.TimeShiftSet(n, 0, 5+rng.Intn(20))
		eps := 2 + rng.Float64()*4
		q := ds.Records[rng.Intn(len(ds.Records))]
		want, _, _ := SeqScanRange(nil, ds, q, ts, eps, RangeOptions{OneSided: true})
		got, _, err := ix.MTIndexRange(nil, q, ts, eps, RangeOptions{Mode: QRectSafe, OneSided: true})
		if err != nil {
			t.Fatal(err)
		}
		return sameKeys(matchKeySet(got), matchKeySet(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestOneSidedShiftNotVacuous(t *testing.T) {
	// Under the symmetric semantics every shift yields the same distance
	// (shifts are unitary); one-sided they differ. This is the reason the
	// one-sided mode exists.
	ds, _ := buildFixture(t, 22, 10, 64, DefaultIndexOptions())
	a, b := ds.Records[0], ds.Records[1]
	s0 := transform.TimeShift(64, 0)
	s3 := transform.TimeShift(64, 3)
	symmetric0 := s0.DistancePolar(a.Mags, a.Phases, b.Mags, b.Phases)
	symmetric3 := s3.DistancePolar(a.Mags, a.Phases, b.Mags, b.Phases)
	if math.Abs(symmetric0-symmetric3) > 1e-7 {
		t.Errorf("symmetric shift distances differ: %v vs %v", symmetric0, symmetric3)
	}
	one0 := s0.DistancePolarLeft(a.Mags, a.Phases, b.Mags, b.Phases)
	one3 := s3.DistancePolarLeft(a.Mags, a.Phases, b.Mags, b.Phases)
	if math.Abs(one0-one3) < 1e-7 {
		t.Error("one-sided shift distances unexpectedly equal")
	}
	if math.Abs(one0-symmetric0) > 1e-7 {
		t.Errorf("shift0 one-sided %v differs from symmetric %v", one0, symmetric0)
	}
}

func TestDistancePolarLeftMatchesSpectra(t *testing.T) {
	// The one-sided polar kernel agrees with the definition via complex
	// spectra.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		ds, err := NewDataset(datagen.RandomWalks(seed, 2, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := ds.Records[0], ds.Records[1]
		var tr transform.Transform
		switch rng.Intn(3) {
		case 0:
			tr = transform.MovingAverage(n, 1+rng.Intn(n))
		case 1:
			tr = transform.TimeShift(n, rng.Intn(2*n))
		default:
			tr = transform.Compose(transform.TimeShift(n, rng.Intn(8)), transform.Momentum(n))
		}
		got := tr.DistancePolarLeft(a.Mags, a.Phases, b.Mags, b.Phases)
		want := distanceSpectra(tr.ApplySpectrum(a.Spectrum()), b.Spectrum())
		return math.Abs(got-want) < 1e-7*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func distanceSpectra(x, y []complex128) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

func TestOneSidedNNEqualsSeqScan(t *testing.T) {
	ds, ix := buildFixture(t, 23, 300, 64, DefaultIndexOptions())
	ts := transform.MovingAverageSet(64, 3, 12)
	q := ds.Records[9]
	want, _, _ := SeqScanNN(nil, ds, q, ts, 5, true)
	got, _, err := ix.MTIndexNN(nil, q, ts, 5, RangeOptions{OneSided: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for i := range got {
		if math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Distance, want[i].Distance)
		}
	}
}

func TestApplyTransformRecord(t *testing.T) {
	ds, _ := buildFixture(t, 24, 3, 64, DefaultIndexOptions())
	r := ds.Records[0]
	mom := transform.Momentum(64)
	derived := r.ApplyTransform(mom)
	// The derived record's spectrum is mom applied to the original's.
	want := mom.ApplySpectrum(r.Spectrum())
	got := derived.Spectrum()
	if d := distanceSpectra(got, want); d > 1e-9 {
		t.Errorf("derived spectrum off by %v", d)
	}
	if derived.ID != r.ID || derived.Name == r.Name {
		t.Errorf("derived identity: id=%d name=%q", derived.ID, derived.Name)
	}
	// Distance of t(s) to the derived query equals D(t(s), mom(q)).
	s := ds.Records[1]
	tr := transform.Compose(transform.TimeShift(64, 2), mom)
	got2 := tr.DistancePolarLeft(s.Mags, s.Phases, derived.Mags, derived.Phases)
	want2 := distanceSpectra(tr.ApplySpectrum(s.Spectrum()), mom.ApplySpectrum(r.Spectrum()))
	if math.Abs(got2-want2) > 1e-7 {
		t.Errorf("one-sided distance to derived record: %v vs %v", got2, want2)
	}
}

func TestOneSidedExample12EndToEnd(t *testing.T) {
	// The momentum/shift discovery of Example 1.2 through the core API:
	// the true offset wins the one-sided nearest-neighbor query.
	const n, offset = 128, 2
	pcg, pcl := datagen.SpikePair(5, n, offset)
	ds, err := NewDataset([]series.Series{pcg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ds, DefaultIndexOptions())
	if err != nil {
		t.Fatal(err)
	}
	mom := transform.Momentum(n)
	ts := transform.ComposeSets(transform.TimeShiftSet(n, 0, 5), []transform.Transform{mom})
	q, err := NewQueryRecord(ds.N, pcl)
	if err != nil {
		t.Fatal(err)
	}
	qm := q.ApplyTransform(mom)
	nn, _, err := ix.MTIndexNN(nil, qm, ts, 1, RangeOptions{OneSided: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 {
		t.Fatal("no result")
	}
	wantName := "shift2(momentum)"
	if got := ts[nn[0].TransformIdx].Name; got != wantName {
		t.Errorf("winning transform %q, want %q", got, wantName)
	}
}
