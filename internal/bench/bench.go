// Package bench regenerates every figure of the paper's evaluation
// (Sec. 5): running time of the three range-query algorithms as the
// number of sequences grows (Fig. 5) and as the number of transformations
// grows (Fig. 6), the spatial join (Fig. 7), and the
// transformations-per-rectangle sweeps with measured disk accesses and
// the Eq. 20 cost function (Figs. 8 and 9). Figs. 3 and 4 are worked
// illustrations of the MBR decomposition and are printed as values.
//
// Timings are wall-clock averages over Config.Queries random query
// sequences drawn from the data set, the paper's methodology (it used
// 100 repetitions). Absolute numbers reflect this machine, not the
// paper's 168 MHz UltraSPARC; the comparisons of interest are the
// relative ones, plus the machine-independent disk-access counts.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"tsq"
	"tsq/internal/datagen"
	"tsq/internal/series"
)

// Config controls the harness.
type Config struct {
	// Queries is the number of random query repetitions per point
	// (the paper uses 100).
	Queries int
	// Seed makes data and query choices reproducible.
	Seed int64
	// StockCount is the size of the synthetic stock data set standing in
	// for the paper's 1068 stocks.
	StockCount int
	// Length is the series length (the paper uses 128).
	Length int
	// PaperQueryRect switches the index filter to the paper's plain
	// eps-box (see tsq.QueryOptions).
	PaperQueryRect bool
}

// WithDefaults fills unset fields with the paper's values (except
// Queries, which defaults to 20 to keep full runs affordable).
func (c Config) WithDefaults() Config {
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.Seed == 0 {
		c.Seed = 1999
	}
	if c.StockCount == 0 {
		c.StockCount = 1068
	}
	if c.Length == 0 {
		c.Length = 128
	}
	return c
}

// openDB indexes a series list with the paper's index configuration,
// except for 1 KiB pages: the paper's Beckmann R*-tree held fewer entries
// per node than a 4 KiB page fits, and the multi-rectangle effects of
// Figs. 8/9 need a tree deep enough for tight rectangles to prune.
func openDB(ss []series.Series) (*tsq.DB, error) {
	return tsq.Open(ss, nil, tsq.Options{PageSize: 1024})
}

// runRange runs one algorithm over cfg.Queries random query records and
// returns mean seconds per query, mean output size, and summed stats.
func runRange(db *tsq.DB, cfg Config, ts []tsq.Transform, thr tsq.Threshold, opts tsq.QueryOptions) (secs, avgOut float64, stats tsq.Stats, err error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	var totalOut int
	start := time.Now()
	for i := 0; i < cfg.Queries; i++ {
		id := int64(rng.Intn(db.Len()))
		matches, st, err := db.RangeByID(id, ts, thr, opts)
		if err != nil {
			return 0, 0, stats, err
		}
		totalOut += len(matches)
		stats.Add(st)
	}
	elapsed := time.Since(start).Seconds()
	return elapsed / float64(cfg.Queries), float64(totalOut) / float64(cfg.Queries), stats, nil
}

// RangeRow is one point of a Fig. 5/6-style sweep.
type RangeRow struct {
	X          int // sequences (Fig. 5) or transformations (Fig. 6)
	SeqScanSec float64
	STSec      float64
	MTSec      float64
	AvgOutput  float64
	// Disk accesses per query for the two index algorithms, in the
	// paper's Eq. 18 accounting: index node fetches plus candidate record
	// retrievals.
	STDiskAccesses float64
	MTDiskAccesses float64
}

// Fig5 regenerates Figure 5: time per range query (Query 1) varying the
// number of synthetic sequences, with 16 moving averages (10..25-day).
func Fig5(cfg Config, counts []int) ([]RangeRow, error) {
	cfg = cfg.WithDefaults()
	if counts == nil {
		counts = []int{500, 1000, 2000, 4000, 8000, 12000}
	}
	thr := tsq.Correlation(0.96)
	var rows []RangeRow
	for _, count := range counts {
		ss := datagen.RandomWalks(cfg.Seed, count, cfg.Length)
		db, err := openDB(ss)
		if err != nil {
			return nil, err
		}
		ts := tsq.MovingAverages(cfg.Length, 10, 25)
		row, err := rangePoint(db, cfg, ts, thr, count)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6 regenerates Figure 6: time per range query over the stock data set
// varying the number of transformations (m-day moving averages starting
// at 5 days).
func Fig6(cfg Config, numTransforms []int) ([]RangeRow, error) {
	cfg = cfg.WithDefaults()
	if numTransforms == nil {
		numTransforms = []int{1, 5, 10, 15, 20, 25, 30}
	}
	ss := datagen.StockMarket(cfg.Seed, cfg.StockCount, cfg.Length, datagen.DefaultMarketOptions())
	db, err := openDB(ss)
	if err != nil {
		return nil, err
	}
	thr := tsq.Correlation(0.96)
	var rows []RangeRow
	for _, nt := range numTransforms {
		ts := tsq.MovingAverages(cfg.Length, 5, 5+nt-1)
		row, err := rangePoint(db, cfg, ts, thr, nt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func rangePoint(db *tsq.DB, cfg Config, ts []tsq.Transform, thr tsq.Threshold, x int) (RangeRow, error) {
	// NaiveVerify: the figures replicate the paper's Eq. 18 accounting,
	// which retrieves and compares every candidate; the I/O-aware
	// pipeline (which skips and abandons some) is measured by
	// VerifySweep instead.
	base := tsq.QueryOptions{PaperQueryRect: cfg.PaperQueryRect, NaiveVerify: true}
	seqOpts := base
	seqOpts.Algorithm = tsq.SeqScan
	stOpts := base
	stOpts.Algorithm = tsq.STIndex
	mtOpts := base
	mtOpts.Algorithm = tsq.MTIndex

	seqSec, avgOut, _, err := runRange(db, cfg, ts, thr, seqOpts)
	if err != nil {
		return RangeRow{}, err
	}
	stSec, _, stStats, err := runRange(db, cfg, ts, thr, stOpts)
	if err != nil {
		return RangeRow{}, err
	}
	mtSec, _, mtStats, err := runRange(db, cfg, ts, thr, mtOpts)
	if err != nil {
		return RangeRow{}, err
	}
	return RangeRow{
		X:              x,
		SeqScanSec:     seqSec,
		STSec:          stSec,
		MTSec:          mtSec,
		AvgOutput:      avgOut,
		STDiskAccesses: float64(stStats.DAAll+stStats.Candidates) / float64(cfg.Queries),
		MTDiskAccesses: float64(mtStats.DAAll+mtStats.Candidates) / float64(cfg.Queries),
	}, nil
}

// JoinRow is one point of the Fig. 7 sweep.
type JoinRow struct {
	NumTransforms int
	SeqScanSec    float64
	STSec         float64
	MTSec         float64
	OutputSize    int
}

// Fig7 regenerates Figure 7: time of the spatial join (Query 2, pairs
// with correlation >= 0.99 under some moving average) varying the number
// of transformations. Join queries run once per point (they are
// deterministic), matching the paper's single-workload measurement.
func Fig7(cfg Config, numTransforms []int) ([]JoinRow, error) {
	cfg = cfg.WithDefaults()
	if numTransforms == nil {
		numTransforms = []int{1, 5, 10, 15, 20, 25, 30}
	}
	ss := datagen.StockMarket(cfg.Seed, cfg.StockCount, cfg.Length, datagen.DefaultMarketOptions())
	db, err := openDB(ss)
	if err != nil {
		return nil, err
	}
	thr := tsq.Correlation(0.99)
	base := tsq.QueryOptions{PaperQueryRect: cfg.PaperQueryRect, NaiveVerify: true}
	var rows []JoinRow
	for _, nt := range numTransforms {
		ts := tsq.MovingAverages(cfg.Length, 5, 5+nt-1)
		row := JoinRow{NumTransforms: nt}

		opts := base
		opts.Algorithm = tsq.SeqScan
		start := time.Now()
		out, _, err := db.Join(ts, thr, opts)
		if err != nil {
			return nil, err
		}
		row.SeqScanSec = time.Since(start).Seconds()
		row.OutputSize = len(out)

		opts.Algorithm = tsq.STIndex
		start = time.Now()
		if _, _, err := db.Join(ts, thr, opts); err != nil {
			return nil, err
		}
		row.STSec = time.Since(start).Seconds()

		opts.Algorithm = tsq.MTIndex
		start = time.Now()
		if _, _, err := db.Join(ts, thr, opts); err != nil {
			return nil, err
		}
		row.MTSec = time.Since(start).Seconds()

		rows = append(rows, row)
	}
	return rows, nil
}

// MBRRow is one point of the Fig. 8/9 sweeps.
type MBRRow struct {
	PerMBR       int
	Sec          float64
	DiskAccesses float64
	CostFn       float64
}

// Fig8 regenerates Figure 8: MT-index running time, pure disk accesses,
// and the Eq. 20 cost function (CDA=1, Ccmp=0.4*CDA) as the number of
// transformations per MBR varies, over the 24 moving averages 6..29-day.
func Fig8(cfg Config, perMBRs []int) ([]MBRRow, error) {
	cfg = cfg.WithDefaults()
	ts := func(n int) []tsq.Transform { return tsq.MovingAverages(n, 6, 29) }
	if perMBRs == nil {
		perMBRs = []int{1, 2, 3, 4, 6, 8, 12, 16, 20, 24}
	}
	return mbrSweep(cfg, ts, perMBRs)
}

// Fig9 regenerates Figure 9: the same sweep after adding the inverted
// version of every transformation (two clusters, 48 transformations);
// the running time and disk accesses bump when a rectangle spans the
// inter-cluster gap (at one third and at all-in-one packings).
func Fig9(cfg Config, perMBRs []int) ([]MBRRow, error) {
	cfg = cfg.WithDefaults()
	ts := func(n int) []tsq.Transform {
		return tsq.WithInverted(tsq.MovingAverages(n, 6, 29))
	}
	if perMBRs == nil {
		perMBRs = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48}
	}
	return mbrSweep(cfg, ts, perMBRs)
}

func mbrSweep(cfg Config, makeTs func(n int) []tsq.Transform, perMBRs []int) ([]MBRRow, error) {
	ss := datagen.StockMarket(cfg.Seed, cfg.StockCount, cfg.Length, datagen.DefaultMarketOptions())
	db, err := openDB(ss)
	if err != nil {
		return nil, err
	}
	ts := makeTs(cfg.Length)
	thr := tsq.Correlation(0.96)
	var rows []MBRRow
	for _, per := range perMBRs {
		opts := tsq.QueryOptions{
			Algorithm:        tsq.MTIndex,
			TransformsPerMBR: per,
			PaperQueryRect:   cfg.PaperQueryRect,
			NaiveVerify:      true, // Eq. 18/20 cost model, see rangePoint
		}
		sec, _, stats, err := runRange(db, cfg, ts, thr, opts)
		if err != nil {
			return nil, err
		}
		// Eq. 18/20 accounting: disk accesses include candidate record
		// retrievals ("find and retrieve all candidate data items");
		// CDA=1, Ccmp=0.4, comparisons measured directly.
		da := float64(stats.DAAll+stats.Candidates) / float64(cfg.Queries)
		cost := da + 0.4*float64(stats.Comparisons)/float64(cfg.Queries)
		rows = append(rows, MBRRow{
			PerMBR:       per,
			Sec:          sec,
			DiskAccesses: da,
			CostFn:       cost,
		})
	}
	return rows, nil
}

// Fig3 returns the printable reproduction of Figure 3: the second-DFT-
// coefficient parameters of the MV(1..40) transformations and their
// mult-MBR / add-MBR decomposition.
func Fig3(length int) string {
	if length == 0 {
		length = 128
	}
	ts := tsq.MovingAverages(length, 1, 40)
	out := "m-day moving averages MV(1..40), second DFT coefficient (f=1):\n"
	out += fmt.Sprintf("%4s  %12s  %12s  %12s  %12s\n", "m", "a(mag)", "b(mag)", "a(phase)", "b(phase)")
	magLo, magHi := ts[0].A[2], ts[0].A[2]
	phLo, phHi := ts[0].B[3], ts[0].B[3]
	for i, t := range ts {
		out += fmt.Sprintf("%4d  %12.6f  %12.6f  %12.6f  %12.6f\n", i+1, t.A[2], t.B[2], t.A[3], t.B[3])
		if t.A[2] < magLo {
			magLo = t.A[2]
		}
		if t.A[2] > magHi {
			magHi = t.A[2]
		}
		if t.B[3] < phLo {
			phLo = t.B[3]
		}
		if t.B[3] > phHi {
			phHi = t.B[3]
		}
	}
	out += fmt.Sprintf("\nmult-MBR at f=1: mag in [%.4f, %.4f], phase multiplier = 1 (the horizontal line at 1)\n", magLo, magHi)
	out += fmt.Sprintf("add-MBR  at f=1: mag offset = 0 (the vertical line at 0), phase in [%.4f, %.4f]\n", phLo, phHi)
	return out
}

// Fig4 returns the printable reproduction of Figure 4: a data rectangle
// before and after the MV(1..40) transformation rectangle is applied
// (Eq. 12).
func Fig4(length int) string {
	if length == 0 {
		length = 128
	}
	ts := tsq.MovingAverages(length, 1, 40)
	// Recreate the figure's data rectangle in (|F2|, angle(F2)) space.
	magLo, magHi := 3.0, 7.0
	phLo, phHi := 1.0, 3.0
	aLo, aHi := ts[0].A[2], ts[0].A[2]
	bLo, bHi := ts[0].B[3], ts[0].B[3]
	for _, t := range ts {
		if t.A[2] < aLo {
			aLo = t.A[2]
		}
		if t.A[2] > aHi {
			aHi = t.A[2]
		}
		if t.B[3] < bLo {
			bLo = t.B[3]
		}
		if t.B[3] > bHi {
			bHi = t.B[3]
		}
	}
	outMagLo := aLo * magLo
	outMagHi := aHi * magHi
	outPhLo := phLo + bLo
	outPhHi := phHi + bHi
	return fmt.Sprintf(
		"data rectangle:        |F2| in [%g, %g], angle(F2) in [%g, %g]\n"+
			"transformation MBR:    mult mag [%.4f, %.4f], add phase [%.4f, %.4f]\n"+
			"transformed rectangle: |F2| in [%.4f, %.4f], angle(F2) in [%.4f, %.4f]\n"+
			"(Eq. 12: lower mag %.4f*%g, upper mag %.4f*%g; phases shifted by the add interval)\n",
		magLo, magHi, phLo, phHi,
		aLo, aHi, bLo, bHi,
		outMagLo, outMagHi, outPhLo, outPhHi,
		aLo, magLo, aHi, magHi)
}
