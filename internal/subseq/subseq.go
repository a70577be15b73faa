// Package subseq implements subsequence matching after Faloutsos,
// Ranganathan and Manolopoulos (SIGMOD '94), the extension of the
// whole-sequence indexing technique that the paper builds on: a window of
// length w slides over every stored sequence, each position maps to the
// first k DFT coefficients of the window (a point in 2k-dimensional
// feature space), consecutive points form a trail, trails are cut into
// subtrails, and the minimum bounding rectangle of each subtrail is
// stored in an R*-tree. A range query around the query window's features
// retrieves candidate (sequence, offset) ranges, which are verified
// exactly; the feature map is contractive (Parseval on a coefficient
// subset), so no qualifying offset is missed.
//
// Features use the real/imaginary coordinates of the coefficients (not
// the polar form of the transformation machinery) because the Euclidean
// distance in those coordinates exactly lower-bounds the true distance.
// Coefficients f >= 1 are scaled by sqrt(2) so the symmetry property
// (mirror coefficients carry the same energy) tightens the bound, as in
// the main index.
package subseq

import (
	"fmt"
	"math"
	"math/cmplx"

	"tsq/internal/geom"
	"tsq/internal/rtree"
	"tsq/internal/series"
	"tsq/internal/storage"
)

// Options configures Build.
type Options struct {
	// Window is the query length w. Required.
	Window int
	// K is the number of DFT coefficients per window (feature space has
	// 2K dimensions). Default 3.
	K int
	// SubtrailLen is the number of consecutive window positions grouped
	// into one bounding rectangle with the fixed-length heuristic.
	// Default 16.
	SubtrailLen int
	// Adaptive uses the greedy marginal-volume heuristic instead of
	// fixed-length subtrails: a subtrail is cut when extending it would
	// grow its rectangle's margin by more than its share.
	Adaptive bool
	// PageSize is the index page size; storage.DefaultPageSize if zero.
	PageSize int
	// Backend overrides the storage backend the trail index is built on.
	// Nil means in-memory. Exposed so fault-injection tests can run the
	// subsequence path over a failing backend.
	Backend storage.Backend
}

func (o Options) withDefaults() (Options, error) {
	if o.Window < 2 {
		return o, fmt.Errorf("subseq: window %d too small", o.Window)
	}
	if o.K == 0 {
		o.K = 3
	}
	if 2*o.K > o.Window {
		return o, fmt.Errorf("subseq: k=%d too large for window %d", o.K, o.Window)
	}
	if o.SubtrailLen == 0 {
		o.SubtrailLen = 16
	}
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	return o, nil
}

// Match is one qualifying subsequence: sequence Seq matches the query at
// offset Offset with the given Euclidean distance.
type Match struct {
	Seq      int
	Offset   int
	Distance float64
}

// Stats reports the work of one search.
type Stats struct {
	NodeAccesses int // index nodes fetched
	Candidates   int // window offsets verified exactly
	Abandoned    int // window verifications cut short by the eps cutoff
}

// subtrail is one leaf entry: window positions [Start, Start+Count) of
// sequence Seq.
type subtrail struct {
	Seq, Start, Count int
}

// Index is the subsequence-matching trail index.
type Index struct {
	opts      Options
	seqs      []series.Series
	tree      *rtree.Tree
	subtrails []subtrail
}

// Build indexes every window of every sequence. Sequences shorter than
// the window are skipped.
func Build(seqs []series.Series, opts Options) (*Index, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	mgr := storage.NewManager(storage.Options{PageSize: opts.PageSize, Backend: opts.Backend})
	tree, err := rtree.NewRectLeaves(mgr, 2*opts.K)
	if err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, seqs: make([]series.Series, len(seqs)), tree: tree}
	for si, s := range seqs {
		ix.seqs[si] = s.Clone()
		if len(s) < opts.Window {
			continue
		}
		trail := slidingFeatures(s, opts.Window, opts.K)
		var cuts []int
		if opts.Adaptive {
			cuts = adaptiveCuts(trail, opts.SubtrailLen)
		} else {
			cuts = fixedCuts(len(trail), opts.SubtrailLen)
		}
		start := 0
		for _, end := range cuts {
			mbr := geom.MBR(trail[start:end])
			rec := int64(len(ix.subtrails))
			ix.subtrails = append(ix.subtrails, subtrail{Seq: si, Start: start, Count: end - start})
			if err := tree.Insert(mbr, rec); err != nil {
				return nil, err
			}
			start = end
		}
	}
	return ix, nil
}

// NumSubtrails returns the number of bounding rectangles in the index.
func (ix *Index) NumSubtrails() int { return len(ix.subtrails) }

// Window returns the indexed window length.
func (ix *Index) Window() int { return ix.opts.Window }

// Search returns every (sequence, offset) whose length-w window is within
// eps of the query in Euclidean distance. The query must have length w.
func (ix *Index) Search(query series.Series, eps float64) ([]Match, Stats, error) {
	var st Stats
	if len(query) != ix.opts.Window {
		return nil, st, fmt.Errorf("subseq: query length %d, window %d", len(query), ix.opts.Window)
	}
	qf := windowFeature(query, ix.opts.K)
	var out []Match
	slots := ix.tree.AcquireSlots()
	defer slots.Release()
	err := ix.walk(slots, 0, ix.tree.Root(), qf, eps, &st, &out, query)
	return out, st, err
}

// walk is a MINDIST-pruned range traversal: a rectangle may contain a
// qualifying feature point only if its MINDIST to the query feature is at
// most eps (the feature map is contractive). It is depth-first, decoding
// each level of the descent into its own slot.
func (ix *Index) walk(slots *rtree.Slots, depth int, id storage.PageID, qf geom.Point, eps float64, st *Stats, out *[]Match, query series.Series) error {
	n, err := ix.tree.LoadInto(nil, id, slots.At(depth))
	if err != nil {
		return err
	}
	st.NodeAccesses++
	for _, e := range n.Entries {
		if e.Rect.MinDist(qf) > eps {
			continue
		}
		if !n.Leaf {
			if err := ix.walk(slots, depth+1, e.Child, qf, eps, st, out, query); err != nil {
				return err
			}
			continue
		}
		tr := ix.subtrails[e.Rec]
		s := ix.seqs[tr.Seq]
		for off := tr.Start; off < tr.Start+tr.Count; off++ {
			st.Candidates++
			// Early-abandoning verification: squared differences only
			// accumulate, so once the partial sum passes eps² the
			// offset cannot match. Non-abandoned distances are
			// bit-identical to windowDistance.
			d, abandoned := series.DistEuclideanAbandon(s[off:off+ix.opts.Window], query, eps)
			if abandoned {
				st.Abandoned++
				continue
			}
			if d <= eps {
				*out = append(*out, Match{Seq: tr.Seq, Offset: off, Distance: d})
			}
		}
	}
	return nil
}

// ScanSearch is the brute-force oracle: every offset of every sequence.
func ScanSearch(seqs []series.Series, query series.Series, eps float64) []Match {
	w := len(query)
	var out []Match
	for si, s := range seqs {
		for off := 0; off+w <= len(s); off++ {
			if d := windowDistance(s[off:off+w], query); d <= eps {
				out = append(out, Match{Seq: si, Offset: off, Distance: d})
			}
		}
	}
	return out
}

// windowDistance is the oracle's distance: series.EuclideanDistance, so
// the oracle stays bit-identical to the non-abandoned results of the
// blocked DistEuclideanAbandon kernel the index search uses.
func windowDistance(a, b series.Series) float64 {
	return series.EuclideanDistance(a, b)
}

// windowFeature maps one window to its feature point: the real and
// imaginary parts of unitary DFT coefficients 0..k-1, with coefficients
// f >= 1 scaled by sqrt(2) (symmetry property).
func windowFeature(win series.Series, k int) geom.Point {
	w := len(win)
	p := make(geom.Point, 2*k)
	for f := 0; f < k; f++ {
		var re, im float64
		for t, v := range win {
			angle := -2 * math.Pi * float64(t) * float64(f) / float64(w)
			re += v * math.Cos(angle)
			im += v * math.Sin(angle)
		}
		scale := 1 / math.Sqrt(float64(w))
		if f >= 1 {
			scale *= math.Sqrt2
		}
		p[2*f] = re * scale
		p[2*f+1] = im * scale
	}
	return p
}

// slidingFeatures computes the trail of feature points for every window
// position with the incremental sliding DFT:
//
//	X_f(p+1) = e^{j*2*pi*f/w} * (X_f(p) - x_p) + x_{p+w} * e^{-j*2*pi*(w-1)*f/w}
//
// so a length-L sequence costs O(L*k) instead of O(L*w*k).
func slidingFeatures(s series.Series, w, k int) []geom.Point {
	count := len(s) - w + 1
	out := make([]geom.Point, count)
	// Initial window, computed directly (unnormalized coefficients).
	X := make([]complex128, k)
	for f := 0; f < k; f++ {
		for t := 0; t < w; t++ {
			angle := -2 * math.Pi * float64(t) * float64(f) / float64(w)
			X[f] += complex(s[t], 0) * cmplx.Exp(complex(0, angle))
		}
	}
	// Note e^{-j*2*pi*(w-1)*f/w} = e^{j*2*pi*f/w}, so the recurrence
	// collapses to X_f(p+1) = rot_f * (X_f(p) - x_p + x_{p+w}).
	rot := make([]complex128, k) // e^{j*2*pi*f/w}
	for f := 0; f < k; f++ {
		rot[f] = cmplx.Exp(complex(0, 2*math.Pi*float64(f)/float64(w)))
	}
	emit := func(p int) {
		pt := make(geom.Point, 2*k)
		for f := 0; f < k; f++ {
			scale := 1 / math.Sqrt(float64(w))
			if f >= 1 {
				scale *= math.Sqrt2
			}
			pt[2*f] = real(X[f]) * scale
			pt[2*f+1] = imag(X[f]) * scale
		}
		out[p] = pt
	}
	emit(0)
	for p := 0; p+1 < count; p++ {
		old := complex(s[p], 0)
		fresh := complex(s[p+w], 0)
		for f := 0; f < k; f++ {
			X[f] = rot[f] * (X[f] - old + fresh)
		}
		emit(p + 1)
	}
	return out
}

// fixedCuts returns cut positions for fixed-length subtrails.
func fixedCuts(n, per int) []int {
	var cuts []int
	for end := per; end < n; end += per {
		cuts = append(cuts, end)
	}
	return append(cuts, n)
}

// adaptiveCuts implements a greedy marginal-cost heuristic in the spirit
// of FRM's adaptive subtrail division: a subtrail is cut when adding the
// next point would grow the rectangle's margin by more than twice the
// running average growth, or when it reaches 4x the nominal length.
func adaptiveCuts(trail []geom.Point, nominal int) []int {
	var cuts []int
	start := 0
	rect := geom.PointRect(trail[0])
	var totalGrowth float64
	for i := 1; i < len(trail); i++ {
		grown := rect.Union(geom.PointRect(trail[i]))
		growth := grown.Margin() - rect.Margin()
		count := i - start
		avg := totalGrowth / math.Max(1, float64(count-1))
		if count >= 4*nominal || (count >= 2 && growth > 2*avg && growth > 0) {
			cuts = append(cuts, i)
			start = i
			rect = geom.PointRect(trail[i])
			totalGrowth = 0
			continue
		}
		rect = grown
		totalGrowth += growth
	}
	return append(cuts, len(trail))
}
