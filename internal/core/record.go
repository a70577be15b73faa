// Package core implements the paper's contribution: the DFT feature index
// over time series and the three algorithms for similarity range queries
// under transformation sets — sequential scan, ST-index (one index
// traversal per transformation) and MT-index (Algorithm 1: one traversal
// applying the transformation MBR to index rectangles on the fly) — plus
// the transformed spatial join (Query 2), transformed nearest-neighbor
// search, the multi-rectangle partitioners of Sec. 4.3 and the cost model
// of Eq. 18/20.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tsq/internal/dft"
	"tsq/internal/geom"
	"tsq/internal/series"
	"tsq/internal/transform"
)

// Record is one stored time series: the original values, the normal form
// it is compared in, and the polar spectrum of the normal form that the
// distance kernel and the feature index consume.
type Record struct {
	ID   int64
	Name string
	// Raw is the original series.
	Raw series.Series
	// Norm is the normal form (mean 0, sample std 1); all similarity
	// predicates are evaluated on it (Sec. 3.2).
	Norm series.Series
	// Mean and Std reconstruct Raw from Norm.
	Mean, Std float64
	// Mags and Phases are the polar DFT spectrum of Norm.
	Mags, Phases []float64
}

// NewRecord normalizes s and precomputes its spectrum.
func NewRecord(id int64, name string, s series.Series) *Record {
	norm, mean, std := s.NormalForm()
	X := dft.TransformReal(norm)
	polar := dft.ToPolar(X)
	mags := make([]float64, len(polar))
	phases := make([]float64, len(polar))
	for i, p := range polar {
		mags[i] = p.Mag
		phases[i] = p.Phase
	}
	return &Record{
		ID:     id,
		Name:   name,
		Raw:    s.Clone(),
		Norm:   norm,
		Mean:   mean,
		Std:    std,
		Mags:   mags,
		Phases: phases,
	}
}

// Spectrum reconstructs the complex spectrum of the normal form.
func (r *Record) Spectrum() []complex128 {
	polar := make([]dft.Polar, len(r.Mags))
	for i := range polar {
		polar[i] = dft.Polar{Mag: r.Mags[i], Phase: r.Phases[i]}
	}
	return dft.FromPolar(polar)
}

// N returns the series length.
func (r *Record) N() int { return len(r.Raw) }

// ApplyTransform returns a derived record whose spectrum is t applied to
// r's spectrum. It is how the one-sided query semantics pre-transforms
// the query point (e.g. by a momentum) before data-side transformations
// are compared to it.
func (r *Record) ApplyTransform(t transform.Transform) *Record {
	m, p := t.ApplyPolarSpectrum(r.Mags, r.Phases)
	return &Record{
		ID:     r.ID,
		Name:   r.Name + "|" + t.Name,
		Raw:    r.Raw.Clone(),
		Norm:   r.Norm.Clone(),
		Mean:   r.Mean,
		Std:    r.Std,
		Mags:   m,
		Phases: p,
	}
}

// TransformQuery prepares a one-sided query whose query point is itself
// transformed: q under qt, and the set to compare it under. The half
// sums of transform.Verify need q to stay the spectrum of a real series,
// which it does when qt is symmetric in the one-sided sense (every
// built-in but TimeShiftApprox); under any other qt the set is returned
// in full order.
func TransformQuery(q *Record, qt transform.Transform, ts []transform.Transform) (*Record, []transform.Transform) {
	q = q.ApplyTransform(qt)
	if qt.Symmetric(true) {
		return q, ts
	}
	full := make([]transform.Transform, len(ts))
	for i, t := range ts {
		full[i] = t.FullOrder()
	}
	return q, full
}

// Feature returns the record's feature point for an index with k DFT
// coefficients: [mean, std, |F_1|, angle(F_1), ..., |F_k|, angle(F_k)],
// the Sec. 5 layout (coefficient 0 of a normal form is zero and skipped).
func (r *Record) Feature(k int) geom.Point {
	p := make(geom.Point, 2+2*k)
	p[0] = r.Mean
	p[1] = r.Std
	for j := 1; j <= k; j++ {
		p[2*j] = r.Mags[j]
		p[2*j+1] = r.Phases[j]
	}
	return p
}

// ErrNonFinite rejects a series holding a NaN or an infinity. Such a value
// poisons the normal form and the spectrum, and through them the R*-tree:
// min and max ignore NaN, so a node's rectangle stops covering its
// entries. It is checked wherever a series enters from outside: dataset
// construction, query points and inserts.
var ErrNonFinite = errors.New("non-finite value in series")

// checkFinite returns ErrNonFinite, with the first offending position, if
// s holds a NaN or an infinity.
func checkFinite(s series.Series) error {
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %v at position %d", ErrNonFinite, v, i)
		}
	}
	return nil
}

// Dataset is the stored relation: a collection of equal-length records.
type Dataset struct {
	// N is the common series length.
	N       int
	Records []*Record
}

// NewDataset builds a dataset from the given series, assigning ids
// 0..len-1. Names may be nil or must match the series count. All series
// must have equal, nonzero length.
func NewDataset(ss []series.Series, names []string) (*Dataset, error) {
	if len(ss) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if names != nil && len(names) != len(ss) {
		return nil, fmt.Errorf("core: %d names for %d series", len(names), len(ss))
	}
	n := len(ss[0])
	if n == 0 {
		return nil, fmt.Errorf("core: zero-length series")
	}
	ds := &Dataset{N: n, Records: make([]*Record, len(ss))}
	for i, s := range ss {
		if len(s) != n {
			return nil, fmt.Errorf("core: series %d has length %d, want %d", i, len(s), n)
		}
		if err := checkFinite(s); err != nil {
			return nil, fmt.Errorf("core: series %d: %w", i, err)
		}
		name := fmt.Sprintf("s%d", i)
		if names != nil {
			name = names[i]
		}
		ds.Records[i] = NewRecord(int64(i), name, s)
	}
	return ds, nil
}

// Record returns the record with the given id, or nil.
func (d *Dataset) Record(id int64) *Record {
	if id < 0 || id >= int64(len(d.Records)) {
		return nil
	}
	return d.Records[id]
}

// Len returns the number of ids in the dataset, deleted records included.
func (d *Dataset) Len() int { return len(d.Records) }

// SeriesLength returns the common series length.
func (d *Dataset) SeriesLength() int { return d.N }

// visit makes the dataset a RecordSource: its own records, in place.
func (d *Dataset) visit(_ context.Context, lo, hi int, _ *scanBuf, fn func(*Record) error) error {
	for _, r := range d.Records[lo:hi] {
		if r == nil { // deleted
			continue
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// NewQueryRecord wraps an ad-hoc query series against series of length
// n as a record with id -1.
func NewQueryRecord(n int, s series.Series) (*Record, error) {
	if len(s) != n {
		return nil, fmt.Errorf("core: query length %d, dataset length %d", len(s), n)
	}
	if err := checkFinite(s); err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	return NewRecord(-1, "query", s), nil
}

// epsScale returns the per-coefficient distance bound implied by a total
// distance bound eps: with the DFT symmetry property (Eq. 6) coefficient f
// and its mirror n-f contribute equally to the energy, so
// |X_f - Y_f| <= eps/sqrt(2); without it the plain eps is the bound.
func epsScale(eps float64, useSymmetry bool) float64 {
	if useSymmetry {
		return eps / math.Sqrt2
	}
	return eps
}
