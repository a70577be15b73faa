package tsq

// One testing.B benchmark per figure of the paper's evaluation, plus the
// ablation benchmarks DESIGN.md calls out. Absolute times are machine
// numbers; the custom metrics (disk accesses, comparisons, output size)
// are machine-independent and are what EXPERIMENTS.md records against the
// paper. The full sweeps with all the paper's parameter points run via
// cmd/tsbench; these benchmarks pin one representative point per figure
// so `go test -bench` regenerates every experiment in bounded time.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tsq/internal/datagen"
)

const benchLen = 128

func benchDB(b *testing.B, ss []Series, opts Options) *DB {
	b.Helper()
	db, err := Open(ss, nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// runRangeBench runs one algorithm over rotating query ids and reports
// per-query disk accesses (Eq. 18 accounting), comparisons and output.
func runRangeBench(b *testing.B, db *DB, ts []Transform, thr Threshold, opts QueryOptions) {
	b.Helper()
	b.ResetTimer()
	var total Stats
	var out int
	for i := 0; i < b.N; i++ {
		id := int64(i*37) % int64(db.Len())
		ms, st, err := db.RangeByID(id, ts, thr, opts)
		if err != nil {
			b.Fatal(err)
		}
		total.Add(st)
		out += len(ms)
	}
	b.ReportMetric(float64(total.DAAll+total.Candidates)/float64(b.N), "disk/query")
	b.ReportMetric(float64(total.DAAll)/float64(b.N), "nodes/query")
	b.ReportMetric(float64(total.Comparisons)/float64(b.N), "cmp/query")
	b.ReportMetric(float64(out)/float64(b.N), "out/query")
}

// BenchmarkFig5 pins the Fig. 5 point at 12000 synthetic sequences with
// 16 moving averages (10..25-day), one sub-benchmark per algorithm.
func BenchmarkFig5(b *testing.B) {
	for _, count := range []int{2000, 12000} {
		ss := datagen.RandomWalks(1999, count, benchLen)
		db := benchDB(b, ss, Options{PageSize: 1024})
		ts := MovingAverages(benchLen, 10, 25)
		thr := Correlation(0.96)
		for _, alg := range []Algorithm{SeqScan, STIndex, MTIndex} {
			b.Run(fmt.Sprintf("n=%d/%v", count, alg), func(b *testing.B) {
				runRangeBench(b, db, ts, thr, QueryOptions{Algorithm: alg})
			})
		}
	}
}

// BenchmarkFig6 pins the Fig. 6 point at 1068 stocks and 30 moving
// averages (5..34-day).
func BenchmarkFig6(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	thr := Correlation(0.96)
	for _, nt := range []int{5, 30} {
		ts := MovingAverages(benchLen, 5, 5+nt-1)
		for _, alg := range []Algorithm{SeqScan, STIndex, MTIndex} {
			b.Run(fmt.Sprintf("T=%d/%v", nt, alg), func(b *testing.B) {
				runRangeBench(b, db, ts, thr, QueryOptions{Algorithm: alg})
			})
		}
	}
}

// BenchmarkFig7 pins the Fig. 7 join at 1068 stocks, correlation 0.99,
// with 10 moving averages (the paper sweeps 1..30).
func BenchmarkFig7(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 5, 14)
	thr := Correlation(0.99)
	for _, alg := range []Algorithm{SeqScan, STIndex, MTIndex} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ResetTimer()
			var total Stats
			var out int
			for i := 0; i < b.N; i++ {
				ms, st, err := db.Join(ts, thr, QueryOptions{Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
				total.Add(st)
				out += len(ms)
			}
			b.ReportMetric(float64(total.DAAll)/float64(b.N), "disk/join")
			b.ReportMetric(float64(total.Comparisons)/float64(b.N), "cmp/join")
			b.ReportMetric(float64(out)/float64(b.N), "out/join")
		})
	}
}

// BenchmarkFig8 sweeps transformations-per-MBR over the Fig. 8 set
// (MV 6..29) at the paper's interesting packings.
func BenchmarkFig8(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 6, 29)
	thr := Correlation(0.96)
	for _, per := range []int{1, 4, 8, 24} {
		b.Run(fmt.Sprintf("perMBR=%d", per), func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{TransformsPerMBR: per})
		})
	}
}

// BenchmarkFig9 sweeps the two-cluster set (MV 6..29 plus inversions):
// the 16-per-MBR packing spans the inter-cluster gap and bumps, the
// cluster-aware partitioner avoids it.
func BenchmarkFig9(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := WithInverted(MovingAverages(benchLen, 6, 29))
	thr := Correlation(0.96)
	for _, per := range []int{8, 12, 16, 24, 48} {
		b.Run(fmt.Sprintf("perMBR=%d", per), func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{TransformsPerMBR: per})
		})
	}
	b.Run("clustered8", func(b *testing.B) {
		runRangeBench(b, db, ts, thr, QueryOptions{ClusterPartition: true, TransformsPerMBR: 8})
	})
}

// Ablations ---------------------------------------------------------------

// BenchmarkAblationSymmetry measures the thesis' symmetry-property claim:
// the sqrt(2)-tighter search bound roughly halves the candidate work.
func BenchmarkAblationSymmetry(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	ts := MovingAverages(benchLen, 5, 20)
	thr := Correlation(0.96)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		db := benchDB(b, ss, Options{PageSize: 1024, DisableSymmetry: disable})
		b.Run("symmetry="+name, func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{})
		})
	}
}

// BenchmarkAblationQueryRect compares the provably-safe query rectangle
// against the paper's plain eps-box.
func BenchmarkAblationQueryRect(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 5, 20)
	thr := Correlation(0.96)
	for _, paper := range []bool{false, true} {
		name := "safe"
		if paper {
			name = "paper"
		}
		b.Run("qrect="+name, func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{PaperQueryRect: paper})
		})
	}
}

// BenchmarkAblationK varies the number of indexed DFT coefficients.
func BenchmarkAblationK(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	ts := MovingAverages(benchLen, 5, 20)
	thr := Correlation(0.96)
	for _, k := range []int{1, 2, 3, 4} {
		db := benchDB(b, ss, Options{PageSize: 1024, K: k})
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{})
		})
	}
}

// BenchmarkAblationBufferPool shows warm-cache behaviour: with a buffer
// pool, repeated queries hit memory and backend reads drop.
func BenchmarkAblationBufferPool(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	ts := MovingAverages(benchLen, 5, 20)
	thr := Correlation(0.96)
	for _, pages := range []int{0, 16, 256} {
		db := benchDB(b, ss, Options{PageSize: 1024, BufferPages: pages})
		b.Run(fmt.Sprintf("bufpages=%d", pages), func(b *testing.B) {
			db.ResetDiskStats()
			runRangeBench(b, db, ts, thr, QueryOptions{})
			st := db.DiskStats()
			b.ReportMetric(float64(st.Reads)/float64(b.N), "backend-reads/query")
			b.ReportMetric(float64(st.Hits)/float64(b.N), "buffer-hits/query")
		})
	}
}

// BenchmarkAblationOrdering measures the Sec. 4.4 binary search on an
// orderable (scale) transformation set against linear evaluation.
func BenchmarkAblationOrdering(b *testing.B) {
	ss := datagen.RandomWalks(1999, 1068, benchLen)
	db := benchDB(b, ss, Options{PageSize: 1024})
	factors := make([]float64, 64)
	for i := range factors {
		factors[i] = 1 + 0.25*float64(i)
	}
	ts := Scales(benchLen, factors)
	thr := Distance(40)
	for _, ordering := range []bool{false, true} {
		name := "linear"
		if ordering {
			name = "binary"
		}
		b.Run("eval="+name, func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{Algorithm: SeqScan, UseOrdering: ordering})
		})
	}
}

// BenchmarkAblationPartitioner compares equal, cluster-aware, and
// cost-model-optimal partitioning on the two-cluster workload.
func BenchmarkAblationPartitioner(b *testing.B) {
	ss := datagen.StockMarket(1999, 1068, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := WithInverted(MovingAverages(benchLen, 6, 29))
	thr := Correlation(0.96)
	b.Run("equal16", func(b *testing.B) {
		runRangeBench(b, db, ts, thr, QueryOptions{TransformsPerMBR: 16})
	})
	b.Run("cluster8", func(b *testing.B) {
		runRangeBench(b, db, ts, thr, QueryOptions{ClusterPartition: true, TransformsPerMBR: 8})
	})
}

// BenchmarkSubsequence compares the trail index against the brute-force
// scan for subsequence matching (the FRM '94 extension).
func BenchmarkSubsequence(b *testing.B) {
	ss := datagen.StockMarket(1999, 400, benchLen, datagen.DefaultMarketOptions())
	norms := make([]Series, len(ss))
	for i, s := range ss {
		norms[i], _, _ = Normalize(s)
	}
	ix, err := NewSubsequenceIndex(norms, SubseqOptions{Window: 24, PageSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]Series, 16)
	for i := range queries {
		src := norms[(i*31)%len(norms)]
		off := (i * 13) % (benchLen - 24)
		queries[i] = src[off : off+24]
	}
	b.Run("index", func(b *testing.B) {
		var cand int
		for i := 0; i < b.N; i++ {
			_, st, err := ix.Search(queries[i%len(queries)], 0.8)
			if err != nil {
				b.Fatal(err)
			}
			cand += st.Candidates
		}
		b.ReportMetric(float64(cand)/float64(b.N), "windows-verified/query")
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScanSubsequences(norms, queries[i%len(queries)], 0.8)
		}
	})
}

// BenchmarkJoinPartitioned shows the Sec. 4.3 fix for the Fig. 7 join
// crossover: multiple rectangles restore MT's advantage at large |T|.
func BenchmarkJoinPartitioned(b *testing.B) {
	ss := datagen.StockMarket(1999, 600, benchLen, datagen.DefaultMarketOptions())
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 5, 34) // 30 transforms: past the crossover
	thr := Correlation(0.99)
	for _, per := range []int{0, 8} {
		name := "one-rect"
		if per > 0 {
			name = fmt.Sprintf("per%d", per)
		}
		b.Run("MT-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Join(ts, thr, QueryOptions{TransformsPerMBR: per}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("ST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Join(ts, thr, QueryOptions{Algorithm: STIndex}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRangeAllocs counts per-query heap allocations of an MT-index
// range query end to end — the plan cache and pooled scratch buffers keep
// the DFT stage out of this number.
func BenchmarkRangeAllocs(b *testing.B) {
	ss := datagen.RandomWalks(1999, 1000, benchLen)
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 10, 25)
	thr := Correlation(0.96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i*37) % int64(db.Len())
		if _, _, err := db.RangeByID(id, ts, thr, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchThroughput runs the Fig. 5 workload through Batch at 1,
// 4 and GOMAXPROCS workers and reports queries/sec.
// Speedup beyond 1 worker needs real cores: on a single-CPU machine the
// numbers show scheduling overhead only.
func BenchmarkBatchThroughput(b *testing.B) {
	ss := datagen.RandomWalks(1999, 4000, benchLen)
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 10, 25)
	thr := Correlation(0.96)
	reqs := make([]BatchRequest, 64)
	for i := range reqs {
		reqs[i] = BatchRequest{ID: int64(i * 61 % db.Len()), ByID: true, Transforms: ts, Threshold: thr}
	}
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range db.Batch(context.Background(), reqs, workers) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N*len(reqs))/sec, "queries/sec")
			}
		})
	}
}

// BenchmarkAblationBulkLoad compares a bulk-loaded (STR-packed) index,
// the one every facade build makes, against one grown by repeated
// insertion through core: same answers, fewer pages, fewer accesses. On
// 1 068 stocks at 1 KiB pages and 6 000 random walks at 4 KiB pages;
// nodes/query is the tree's share of disk/query (the candidates are the
// same either way).
func BenchmarkAblationBulkLoad(b *testing.B) {
	ts := MovingAverages(benchLen, 5, 20)
	thr := Correlation(0.96)
	for _, c := range packingCorpora() {
		for _, bulk := range []bool{false, true} {
			name := "grown"
			if bulk {
				name = "packed"
			}
			db := openBuiltBy(b, c.ss, Options{PageSize: c.page}, bulk)
			b.Run(c.name+"/tree="+name, func(b *testing.B) {
				runRangeBench(b, db, ts, thr, QueryOptions{})
			})
		}
	}
}

// BenchmarkAblationWorkers measures parallel verification: the sequential
// scan and MT verification sharded across goroutines.
func BenchmarkAblationWorkers(b *testing.B) {
	ss := datagen.RandomWalks(1999, 8000, benchLen)
	db := benchDB(b, ss, Options{PageSize: 1024})
	ts := MovingAverages(benchLen, 10, 25)
	thr := Correlation(0.96)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("seqscan-workers=%d", workers), func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{Algorithm: SeqScan, Workers: workers})
		})
		b.Run(fmt.Sprintf("mt-workers=%d", workers), func(b *testing.B) {
			runRangeBench(b, db, ts, thr, QueryOptions{Workers: workers})
		})
	}
}
