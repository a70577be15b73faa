package core

import (
	"math"
	"sort"

	"tsq/internal/geom"
	"tsq/internal/storage"
)

// This file implements whole-matching range queries on the original
// (un-normalized) series — the Agrawal et al. query the paper's index
// layout supports through its first two dimensions. It is the reason
// Sec. 5 stores the mean and standard deviation of the original series in
// the index: for the raw Euclidean distance D(s, q) the decomposition
//
//	D^2 = n*(mean_s - mean_q)^2 + sum_t ((s_t - mean_s) - (q_t - mean_q))^2
//
// bounds the mean difference by D/sqrt(n), the sample-std difference by
// D/sqrt(n-1) (reverse triangle inequality on the centered parts), and
// each raw DFT coefficient difference by D/sqrt(2) (symmetry property).
// Raw coefficients are std_s times the stored normal-form coefficients,
// so the magnitude filter compares products of two indexed dimensions.

// RawMatch is one answer of a raw range query.
type RawMatch struct {
	RecordID int64
	Distance float64
}

// SeqScanRawRange finds every record whose original series is within eps
// of q's original series, by exhaustive scan.
func SeqScanRawRange(src RecordSource, q *Record, eps float64) ([]RawMatch, QueryStats, error) {
	var st QueryStats
	var out []RawMatch
	err := src.visit(nil, 0, src.Len(), &scanBuf{whole: true}, func(r *Record) error {
		st.Candidates++
		st.Comparisons++
		if d := rawDistance(r, q); d <= eps {
			out = append(out, RawMatch{RecordID: r.ID, Distance: d})
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

func rawDistance(r, q *Record) float64 {
	var ss float64
	for i := range r.Raw {
		d := r.Raw[i] - q.Raw[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

// RawRange answers the same query through the index: the mean and std
// dimensions filter directly, and the DFT magnitude dimensions filter via
// the product with the std dimension. Each shard's tree is walked on a
// goroutine of its own, and the answers merge into ascending global id
// order; one shard is walked on the calling goroutine, and its answer is
// in tree order.
func (s *Sharded) RawRange(q *Record, eps float64) ([]RawMatch, QueryStats, error) {
	if s.single() {
		return s.rawWalk(0, q, eps)
	}
	n := len(s.shards)
	parts := make([][]RawMatch, n)
	stats := make([]QueryStats, n)
	err := ParallelFor(n, n, func(sh int) (err error) {
		parts[sh], stats[sh], err = s.rawWalk(sh, q, eps)
		return s.shardErr(sh, err)
	})
	var st QueryStats
	var out []RawMatch
	for sh := range parts {
		st.Add(stats[sh])
		out = append(out, parts[sh]...)
	}
	if err != nil {
		return nil, st, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RecordID < out[j].RecordID })
	return out, st, nil
}

// rawWalk is the raw range query over shard sh's tree, its answers named
// by global id.
func (s *Sharded) rawWalk(sh int, q *Record, eps float64) ([]RawMatch, QueryStats, error) {
	ix := s.shards[sh]
	var st QueryStats
	st.IndexSearches++
	n := float64(ix.n)
	epsMean := eps / math.Sqrt(n)
	epsStd := eps / math.Sqrt(n-1)
	raw, _ := newGroup(ix, nil, nil, false, false, nil) // raw spectra are real: the empty group
	epsC := epsScale(eps, raw.sym)

	var out []RawMatch
	slots := ix.tree.AcquireSlots() // depth-first: one slot per level
	defer slots.Release()
	var walk func(id storage.PageID, depth int) error
	walk = func(id storage.PageID, depth int) error {
		node, err := ix.tree.LoadInto(nil, id, slots.At(depth))
		if err != nil {
			return err
		}
		st.DAAll++
		if node.Leaf {
			st.DALeaf++
		}
		for _, e := range node.Entries {
			if !ix.rawRectAdmits(e.Rect, q, epsMean, epsStd, epsC) {
				continue
			}
			if !node.Leaf {
				if err := walk(e.Child, depth+1); err != nil {
					return err
				}
				continue
			}
			r, err := ix.fetch(nil, e.Rec)
			if err != nil {
				return err
			}
			if r == nil {
				continue
			}
			st.Candidates++
			st.Comparisons++
			if d := rawDistance(r, q); d <= eps {
				out = append(out, RawMatch{RecordID: s.globalID(sh, r.ID), Distance: d})
			}
		}
		return nil
	}
	if err := walk(ix.tree.Root(), 0); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// rawRectAdmits reports whether an index rectangle may contain a series
// within eps of q in raw distance.
func (ix *Index) rawRectAdmits(rect geom.Rect, q *Record, epsMean, epsStd, epsC float64) bool {
	// Mean dimension.
	if rect.Lo[0] > q.Mean+epsMean || rect.Hi[0] < q.Mean-epsMean {
		return false
	}
	// Std dimension.
	if rect.Lo[1] > q.Std+epsStd || rect.Hi[1] < q.Std-epsStd {
		return false
	}
	// Raw DFT magnitudes: |std_s * m_s - std_q * m_q| <= epsC. The
	// product of the std interval and the normal-form magnitude interval
	// bounds std_s * m_s (both are non-negative).
	stdLo := math.Max(0, rect.Lo[1])
	stdHi := rect.Hi[1]
	for j := 1; j <= ix.opts.K; j++ {
		mLo := math.Max(0, rect.Lo[2*j])
		mHi := rect.Hi[2*j]
		target := q.Std * q.Mags[j]
		if stdLo*mLo > target+epsC || stdHi*mHi < target-epsC {
			return false
		}
	}
	return true
}
