// Command tsquery runs similarity queries over a CSV dataset: range
// queries (Query 1), self-joins (Query 2), and nearest-neighbor queries,
// under a transformation pipeline, with a choice of algorithm.
//
// Usage:
//
//	tsquery -data stocks.csv -query stock0007 -pipeline "mv(5..34)" -rho 0.96
//	tsquery -data stocks.csv -join -pipeline "mv(5..34)" -rho 0.99 -algo mt
//	tsquery -data stocks.csv -query 12 -pipeline "shift(0..5) | mv(1..20)" -nn 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"tsq"
	"tsq/internal/csvio"
	"tsq/internal/datagen"
	"tsq/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tsquery: %v\n", err)
		os.Exit(1)
	}
}

// setDebugState publishes the opened DB to the debug server; nil when
// -debug-addr is not in use.
var setDebugState func(db *tsq.DB, ts []tsq.Transform, groups [][]int)

func run() error {
	var (
		data      = flag.String("data", "", "input CSV dataset (this or -db is required)")
		dbPath    = flag.String("db", "", "query an existing .tsq database file instead of a CSV")
		save      = flag.String("save", "", "build a .tsq database file from -data and exit")
		queryArg  = flag.String("query", "", "query series: a name or a numeric id from the dataset")
		pipeline  = flag.String("pipeline", "id", `transformation pipeline, e.g. "shift(0..10) | mv(1..40)"`)
		rho       = flag.Float64("rho", 0, "correlation threshold (exclusive with -dist)")
		dist      = flag.Float64("dist", 0, "distance threshold on normal forms")
		algo      = flag.String("algo", "mt", "algorithm: mt | st | seq")
		perMBR    = flag.Int("per-mbr", 0, "transformations per MBR (0 = all in one)")
		clustered = flag.Bool("cluster", false, "cluster transformations before building MBRs")
		paperRect = flag.Bool("paper-rect", false, "use the paper's plain eps-box query rectangle")
		ordering  = flag.Bool("ordering", false, "binary-search evaluation for orderable (scale) sets")
		join      = flag.Bool("join", false, "run the self-join (Query 2) instead of a range query")
		nn        = flag.Int("nn", 0, "run a k-nearest-neighbor query with this k")
		subseq    = flag.Int("subseq", 0, "subsequence matching with this window length (query gives the pattern source)")
		offset    = flag.Int("offset", 0, "pattern offset within the query series (with -subseq)")
		maxPrint  = flag.Int("max-print", 25, "maximum result rows to print")
		info      = flag.Bool("info", false, "print database shape information and exit")
		explain   = flag.Bool("explain", false, "print the planner's cost comparison and an EXPLAIN ANALYZE of all three algorithms instead of running the query")
		trace     = flag.Bool("trace", false, "print the query's span tree after running it")
		inspect   = flag.Bool("inspect", false, "print the index health report (R*-tree occupancy/overlap, heap utilization, transformation groups) and exit")
		check     = flag.Bool("check", false, "scrub the -db file (header, page checksums, structural integrity, WAL segments) and exit; nonzero exit status on corruption")
		insertN   = flag.Int("insert", 0, "append this many random-walk series to -db and exit")
		insSeed   = flag.Int64("seed", 1, "random seed for -insert")
		kill      = flag.Bool("kill", false, "with -insert: exit without closing the database, simulating a crash (the WAL replays on next open)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /index, /queries, /rates, /debug/bundle and /debug/pprof/ on this address while the command runs")
		queryLog  = flag.Bool("qlog", false, "emit one structured log record per query to stderr (slow queries carry their trace)")
		attrib    = flag.Bool("attrib", false, "per-query resource attribution: sample alloc/GC deltas and run queries under pprof labels")
		bundleOut = flag.String("bundle", "", `write a support bundle (JSON) to this path after the query runs ("-" for stdout); exits nonzero if the bundle's reconciliation checks fail`)
		shards    = flag.Int("shards", 0, "partition the database into this many independent shards (with -data; 0 or 1 = unsharded)")
		capPath   = flag.String("capture", "", "journal every query to this capture file (replay it with tsreplay)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tsquery", obs.ReadBuildSection())
		return nil
	}
	if *capPath != "" {
		if _, err := tsq.EnableCapture(*capPath, tsq.CaptureOptions{}); err != nil {
			return err
		}
		defer func() {
			st := tsq.CaptureSnapshot()
			if err := tsq.DisableCapture(); err != nil {
				fmt.Fprintf(os.Stderr, "tsquery: closing capture: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "capture: %d of %d queries journaled to %s\n", st.Written, st.Seen, *capPath)
		}()
	}
	if *bundleOut != "" {
		// The bundle's recorder-coverage check expects the recorder to
		// have seen every counted query, so both go on before any query
		// runs; threshold 1ns retains everything.
		tsq.EnableFlightRecorder(tsq.RecorderOptions{Threshold: time.Nanosecond})
		tsq.StartSampler(tsq.SamplerOptions{})
		defer tsq.StopSampler()
		tsq.EnableResourceAttribution()
	}
	if *attrib {
		tsq.EnableResourceAttribution()
	}
	if *queryLog {
		tsq.EnableQueryLog(slog.NewTextHandler(os.Stderr, nil), tsq.QueryLogOptions{})
	}
	if *debugAddr != "" {
		// The DB and pipeline are resolved after flag handling; the mux
		// is built once they are (503 until then) so /index and
		// /debug/bundle see the open database.
		var dbgMux atomic.Pointer[http.ServeMux]
		setDebugState = func(db *tsq.DB, ts []tsq.Transform, groups [][]int) {
			m := http.NewServeMux()
			tsq.EnableDebugHandlers(m, db, tsq.WithIndexEndpoint(ts, groups))
			dbgMux.Store(m)
		}
		if *bundleOut == "" {
			tsq.EnableFlightRecorder(tsq.RecorderOptions{})
			tsq.StartSampler(tsq.SamplerOptions{})
			defer tsq.StopSampler()
		}
		go func() {
			err := http.ListenAndServe(*debugAddr, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				m := dbgMux.Load()
				if m == nil {
					http.Error(w, "database not open yet", http.StatusServiceUnavailable)
					return
				}
				m.ServeHTTP(w, req)
			}))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tsquery: debug server: %v\n", err)
			}
		}()
		fmt.Printf("debug server on http://%s (/metrics, /index, /queries, /rates, /debug/bundle, /debug/pprof/)\n", *debugAddr)
	}
	if *check {
		if *dbPath == "" {
			return fmt.Errorf("-check requires -db")
		}
		report, err := tsq.CheckFile(*dbPath)
		if err != nil {
			return err
		}
		fmt.Print(report.String())
		if !report.OK() {
			return fmt.Errorf("%s is corrupt", *dbPath)
		}
		return nil
	}
	if *insertN > 0 {
		if *dbPath == "" {
			return fmt.Errorf("-insert requires -db")
		}
		db, err := tsq.OpenFile(*dbPath)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*insSeed))
		n := db.SeriesLength()
		base := db.Len()
		for i := 0; i < *insertN; i++ {
			name := fmt.Sprintf("ins%06d", base+i)
			if _, err := db.Insert(name, datagen.RandomWalk(rng, n)); err != nil {
				return fmt.Errorf("inserting series %d: %w", i, err)
			}
		}
		if *kill {
			// Simulate a crash: exit without Close, so nothing is
			// checkpointed and the main file may miss the new pages. Every
			// insert was acknowledged, so the WAL replays them on next open.
			fmt.Printf("inserted %d series into %s; exiting without close (simulated crash)\n", *insertN, *dbPath)
			os.Exit(0)
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", *dbPath, err)
		}
		fmt.Printf("inserted %d series into %s\n", *insertN, *dbPath)
		return nil
	}
	var db *tsq.DB
	var names []string
	switch {
	case *data != "" && *dbPath != "":
		return fmt.Errorf("-data and -db are exclusive")
	case *dbPath != "":
		var err error
		db, err = tsq.OpenFile(*dbPath)
		if err != nil {
			return err
		}
		defer func() { _ = db.Close() }() // read-only session
		names = make([]string, db.Len())
		for i := range names {
			names[i] = db.Name(int64(i))
		}
	case *data != "":
		var ss []tsq.Series
		var err error
		names, ss, err = csvio.ReadFile(*data)
		if err != nil {
			return err
		}
		if *save != "" {
			db, err = tsq.CreateFile(*save, ss, names, tsq.Options{Shards: *shards})
			if err != nil {
				return err
			}
			n := db.Len()
			// Close flushes and syncs; a failure here means the file is not
			// durable, so it must not be reported as written.
			if err := db.Close(); err != nil {
				return fmt.Errorf("closing %s: %w", *save, err)
			}
			fmt.Printf("wrote %d series to %s\n", n, *save)
			return nil
		}
		db, err = tsq.Open(ss, names, tsq.Options{Shards: *shards})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-data or -db is required")
	}
	n := db.SeriesLength()
	p, err := tsq.ParsePipeline(*pipeline, n)
	if err != nil {
		return err
	}
	ts := p.Flatten()
	fmt.Printf("dataset: %d series of length %d; pipeline %q -> %d transformations\n",
		db.Len(), n, *pipeline, len(ts))
	if *info {
		meta, err := db.Info()
		if err != nil {
			return err
		}
		fmt.Printf("index: k=%d, tree height %d, %d pages of %d bytes, avg leaf capacity %.1f, paged=%v, shards=%d\n",
			meta.IndexedK, meta.TreeHeight, meta.Pages, meta.PageSize, meta.LeafCapacity, meta.Paged, meta.Shards)
		levels, err := db.TreeLevels()
		if err != nil {
			return err
		}
		fmt.Println("tree levels (1 = leaves):")
		for _, l := range levels {
			fmt.Printf("  level %d: %5d nodes, avg extents %.3g\n", l.Level, l.Nodes, l.AvgSide)
		}
		return nil
	}

	var thr tsq.Threshold
	switch {
	case *rho != 0 && *dist != 0:
		return fmt.Errorf("-rho and -dist are exclusive")
	case *rho != 0:
		thr = tsq.Correlation(*rho)
	case *dist != 0:
		thr = tsq.Distance(*dist)
	default:
		thr = tsq.Correlation(0.96)
	}

	opts := tsq.QueryOptions{
		TransformsPerMBR: *perMBR,
		ClusterPartition: *clustered,
		PaperQueryRect:   *paperRect,
		UseOrdering:      *ordering,
	}
	switch *algo {
	case "mt":
		opts.Algorithm = tsq.MTIndex
	case "st":
		opts.Algorithm = tsq.STIndex
	case "seq":
		opts.Algorithm = tsq.SeqScan
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	groups := db.QueryGroups(ts, opts)
	if setDebugState != nil {
		setDebugState(db, ts, groups)
	}
	if *inspect {
		hr, err := db.IndexHealth(context.Background(), ts, groups)
		if err != nil {
			return err
		}
		fmt.Print(hr.String())
		return nil
	}

	if *explain {
		var id int64
		if *queryArg != "" {
			id, err = resolveQuery(db, names, *queryArg)
			if err != nil {
				return err
			}
		}
		text, err := db.Explain(db.Get(id), ts, thr)
		if err != nil {
			return err
		}
		fmt.Println("=== planner ===")
		fmt.Println(text)
		return explainAnalyze(db, id, ts, thr, opts)
	}

	if *join {
		matches, st, err := db.Join(ts, thr, opts)
		if err != nil {
			return err
		}
		fmt.Printf("join (%v, %v): %d matches\n", opts.Algorithm, thr, len(matches))
		for i, m := range matches {
			if i >= *maxPrint {
				fmt.Printf("... %d more\n", len(matches)-i)
				break
			}
			fmt.Printf("  %-12s ~ %-12s via %-8s dist %.4f\n",
				db.Name(m.IDA), db.Name(m.IDB), ts[m.TransformIdx].Name, m.Distance)
		}
		printStats(st)
		return writeBundle(db, *bundleOut)
	}

	id, err := resolveQuery(db, names, *queryArg)
	if err != nil {
		return err
	}
	if *subseq > 0 {
		w := *subseq
		src := db.Get(id)
		if *offset < 0 || *offset+w > len(src) {
			return fmt.Errorf("pattern [%d, %d) out of range for series of length %d", *offset, *offset+w, len(src))
		}
		pattern := src[*offset : *offset+w]
		all := make([]tsq.Series, db.Len())
		for i := range all {
			all[i] = db.Get(int64(i))
		}
		ix, err := tsq.NewSubsequenceIndex(all, tsq.SubseqOptions{Window: w})
		if err != nil {
			return err
		}
		eps := thr.Epsilon(w)
		matches, sst, err := ix.Search(pattern, eps)
		if err != nil {
			return err
		}
		fmt.Printf("subsequence search: window %d of %s at offset %d, eps %.3f: %d occurrences\n",
			w, db.Name(id), *offset, eps, len(matches))
		for i, m := range matches {
			if i >= *maxPrint {
				fmt.Printf("... %d more\n", len(matches)-i)
				break
			}
			fmt.Printf("  %-12s offset %4d dist %.4f\n", names[m.Seq], m.Offset, m.Distance)
		}
		fmt.Printf("stats: %d node accesses, %d windows verified\n", sst.NodeAccesses, sst.Candidates)
		return writeBundle(db, *bundleOut)
	}
	ctx := context.Background()
	var tr *tsq.Trace
	if *trace {
		tr = tsq.NewTrace()
		ctx = tsq.WithTrace(ctx, tr)
	}
	if *nn > 0 {
		matches, st, err := db.NearestNeighborsCtx(ctx, db.Get(id), ts, *nn, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%d nearest neighbors of %s (%v):\n", *nn, db.Name(id), opts.Algorithm)
		for _, m := range matches {
			fmt.Printf("  %-12s via %-8s dist %.4f (rho %.4f)\n",
				db.Name(m.RecordID), ts[m.TransformIdx].Name, m.Distance,
				1-m.Distance*m.Distance/(2*float64(n-1)))
		}
		printStats(st)
		printTrace(tr)
		return writeBundle(db, *bundleOut)
	}

	matches, st, err := db.RangeByIDCtx(ctx, id, ts, thr, opts)
	if err != nil {
		return err
	}
	fmt.Printf("range query around %s (%v, %v): %d matches\n",
		db.Name(id), opts.Algorithm, thr, len(matches))
	for i, m := range matches {
		if i >= *maxPrint {
			fmt.Printf("... %d more\n", len(matches)-i)
			break
		}
		d := "not computed (ordering)"
		if m.Distance >= 0 {
			d = fmt.Sprintf("%.4f", m.Distance)
		}
		fmt.Printf("  %-12s via %-8s dist %s\n", db.Name(m.RecordID), ts[m.TransformIdx].Name, d)
	}
	printStats(st)
	printTrace(tr)
	return writeBundle(db, *bundleOut)
}

// writeBundle collects a support bundle into path ("" disables, "-" is
// stdout) and fails on reconciliation mismatch, so scripted invocations
// (CI smoke) assert internal consistency by exit status alone.
func writeBundle(db *tsq.DB, path string) error {
	if path == "" {
		return nil
	}
	b, err := tsq.CollectBundle(context.Background(), db, tsq.BundleOptions{ExpectCompleteRecorder: true})
	if err != nil {
		return err
	}
	if path == "-" {
		if err := b.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := b.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !b.OK() {
		for _, c := range b.FailedChecks() {
			fmt.Fprintf(os.Stderr, "bundle check FAILED: %s: %s\n", c.Name, c.Detail)
		}
		return fmt.Errorf("support bundle failed %d reconciliation checks", len(b.FailedChecks()))
	}
	fmt.Fprintf(os.Stderr, "bundle: %d reconciliation checks passed\n", len(b.Reconciliation))
	return nil
}

// printTrace renders a span tree when tracing was requested, with the
// per-shard rollup under it on a sharded database.
func printTrace(tr *tsq.Trace) {
	if tr == nil {
		return
	}
	fmt.Println("trace:")
	fmt.Print(tr.String())
	printShardRollup(tr)
}

// explainAnalyze runs the same range query under each of the three
// algorithms with tracing on, prints each span tree, cross-checks the
// trace's I/O attribution against the storage manager's counter deltas,
// and closes with the paper's headline numbers (disk accesses, candidate
// ratio, false positives) side by side — Fig. 5 for one query.
func explainAnalyze(db *tsq.DB, id int64, ts []tsq.Transform, thr tsq.Threshold, opts tsq.QueryOptions) error {
	type row struct {
		name      string
		da        int64
		cand      int64
		skipped   int64
		sk0       int64
		sk1       int64
		sk2       int64
		abandoned int64
		fp        int64
		matches   int
		dur       time.Duration
	}
	var rows []row
	fmt.Println("\n=== EXPLAIN ANALYZE ===")
	for _, ar := range []struct {
		name string
		alg  tsq.Algorithm
	}{
		{"seqscan", tsq.SeqScan},
		{"st-index", tsq.STIndex},
		{"mt-index", tsq.MTIndex},
	} {
		o := opts
		o.Algorithm = ar.alg
		tr := tsq.NewTrace()
		ctx := tsq.WithTrace(context.Background(), tr)
		before := db.DiskStats()
		start := time.Now()
		matches, st, err := db.RangeByIDCtx(ctx, id, ts, thr, o)
		dur := time.Since(start)
		if err != nil {
			return err
		}
		after := db.DiskStats()

		fmt.Printf("\n--- %s ---\n", ar.name)
		fmt.Print(tr.String())
		printStages(tr, st, len(matches))
		printShardRollup(tr)
		storageIO := (after.Reads - before.Reads) + (after.Hits - before.Hits) +
			(after.Prefetched - before.Prefetched)
		tracedIO := tr.Sum(obs.KindProbe, obs.APagesRead) + tr.Sum(obs.KindProbe, obs.ABufferHits) +
			tr.Sum(obs.KindProbe, obs.APagesPrefetched) +
			tr.Sum(obs.KindPlan, obs.APagesRead) + tr.Sum(obs.KindPlan, obs.ABufferHits)
		verdict := "OK"
		if tracedIO != storageIO {
			verdict = "MISMATCH"
		}
		fmt.Printf("cross-check: trace attributes %d page fetches (%d prefetched), storage counted %d — %s\n",
			tracedIO, tr.Sum(obs.KindProbe, obs.APagesPrefetched), storageIO, verdict)
		rows = append(rows, row{
			name:      ar.name,
			da:        storageIO,
			cand:      int64(st.Candidates),
			skipped:   int64(st.SkippedLB),
			sk0:       int64(st.SkippedLB0),
			sk1:       int64(st.SkippedLB1),
			sk2:       int64(st.SkippedLB2),
			abandoned: int64(st.Abandoned),
			fp:        tr.Sum(obs.KindVerify, obs.AFalsePositives),
			matches:   len(matches),
			dur:       dur,
		})
	}

	nS := int64(db.Len())
	fmt.Printf("\n%-10s %14s %12s %12s %11s %7s %7s %7s %11s %11s %9s %12s\n",
		"algorithm", "disk accesses", "candidates", "cand ratio", "skipped lb", "lb t0", "lb t1", "lb t2", "abandoned", "false pos", "matches", "time")
	for _, r := range rows {
		ratio := 0.0
		if nS > 0 {
			ratio = float64(r.cand) / float64(nS)
		}
		fmt.Printf("%-10s %14d %12d %12.3f %11d %7d %7d %7d %11d %11d %9d %12s\n",
			r.name, r.da, r.cand, ratio, r.skipped, r.sk0, r.sk1, r.sk2, r.abandoned, r.fp, r.matches, r.dur.Round(time.Microsecond))
	}
	return nil
}

// printStages sums the filter and verify spans of an index run into the
// two stages of Algorithm 1 — the subtrees the traversal did not descend
// into (their rectangle missed the query's, or the lower bound on it
// exceeded the threshold) and the leaves it read, what it admitted, what
// the lower bound in the leaf scan dismissed (by cascade tier) and what
// it passed on, then what verification fetched, compared, abandoned and
// matched and how many coefficient terms a comparison summed — and checks
// every figure Stats also carries against the Stats the query returned. A
// scan has no filter span and prints nothing.
func printStages(tr *tsq.Trace, st tsq.Stats, matches int) {
	if tr.Sum(obs.KindFilter, obs.ANodes) == 0 { // a traversal reads its root at least
		return
	}
	admitted := tr.Sum(obs.KindFilter, obs.ACandidates)
	skipped := tr.Sum(obs.KindFilter, obs.ASkippedLB)
	sk0, sk1, sk2 := tr.Sum(obs.KindFilter, obs.ASkippedLB0), tr.Sum(obs.KindFilter, obs.ASkippedLB1), tr.Sum(obs.KindFilter, obs.ASkippedLB2)
	lb := time.Duration(tr.Sum(obs.KindFilter, obs.ALBNanos))
	fetched, compared := tr.Sum(obs.KindVerify, obs.ACandidates), tr.Sum(obs.KindVerify, obs.AComparisons)
	abandoned, matched := tr.Sum(obs.KindVerify, obs.AAbandoned), tr.Sum(obs.KindVerify, obs.AMatches)
	terms := tr.Sum(obs.KindVerify, obs.ATerms)
	nodes, leaves := tr.Sum(obs.KindFilter, obs.ANodes), tr.Sum(obs.KindFilter, obs.ALeaves)
	fmt.Printf("pruned: %d by rectangle, %d by bound; leaves read %d\n",
		tr.Sum(obs.KindFilter, obs.APruned), tr.Sum(obs.KindFilter, obs.APrunedLB), leaves)
	fmt.Printf("filter: %d admitted -> %d skipped (tier 0/1/2: %d/%d/%d) -> %d survivors, lower bound %s\n",
		admitted, skipped, sk0, sk1, sk2, admitted-skipped, lb.Round(100*time.Nanosecond))
	fmt.Printf("verify: %d fetched, %d compared, %d abandoned, %d matched, %.1f terms/comparison\n",
		fetched, compared, abandoned, matched, float64(terms)/float64(max(compared, 1)))
	verdict := "OK"
	if nodes != int64(st.DAAll) || leaves != int64(st.DALeaf) ||
		skipped != int64(st.SkippedLB) || sk0 != int64(st.SkippedLB0) || sk1 != int64(st.SkippedLB1) || sk2 != int64(st.SkippedLB2) ||
		int64(lb) != st.LBTimeNs || fetched != int64(st.Candidates) || compared != int64(st.Comparisons) ||
		abandoned != int64(st.Abandoned) || terms != int64(st.Terms) || matched != int64(matches) {
		verdict = "MISMATCH"
	}
	fmt.Printf("cross-check: stage counters against Stats — %s\n", verdict)
}

// printShardRollup aggregates the trace's probe spans by shard ordinal
// and prints one row per shard. Scatter-gather (range) probes carry the
// shard attribute only on multi-shard databases, so unsharded traces
// print nothing. Nor does an NN trace: its one probe span is the search
// over every shard, untagged, so there is nothing to roll up.
func printShardRollup(tr *tsq.Trace) {
	type agg struct {
		probes  int
		pages   int64
		hits    int64
		cand    int64
		skipped int64
		aband   int64
		matches int64
		dur     time.Duration
	}
	byShard := map[int64]*agg{}
	var order []int64
	for _, s := range tr.Spans() {
		if s.Kind() != obs.KindProbe || !s.Has(obs.AShard) {
			continue
		}
		id := s.Get(obs.AShard)
		a := byShard[id]
		if a == nil {
			a = &agg{}
			byShard[id] = a
			order = append(order, id)
		}
		a.probes++
		a.pages += s.Get(obs.APagesRead)
		a.hits += s.Get(obs.ABufferHits)
		a.cand += s.Get(obs.ACandidates)
		a.skipped += s.Get(obs.ASkippedLB)
		a.aband += s.Get(obs.AAbandoned)
		a.matches += s.Get(obs.AMatches)
		a.dur += s.Duration()
	}
	if len(byShard) == 0 {
		return
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	fmt.Printf("per-shard rollup (%d shards probed):\n", len(order))
	fmt.Printf("  %-7s %7s %11s %9s %11s %11s %10s %9s %12s\n",
		"shard", "probes", "pages_read", "buf_hits", "candidates", "skipped_lb", "abandoned", "matches", "probe time")
	for _, id := range order {
		a := byShard[id]
		fmt.Printf("  %-7d %7d %11d %9d %11d %11d %10d %9d %12s\n",
			id, a.probes, a.pages, a.hits, a.cand, a.skipped, a.aband, a.matches, a.dur.Round(time.Microsecond))
	}
}

// resolveQuery interprets the -query argument as a name or numeric id.
func resolveQuery(db *tsq.DB, names []string, arg string) (int64, error) {
	if arg == "" {
		return 0, fmt.Errorf("-query is required for range and NN queries")
	}
	for i, name := range names {
		if name == arg {
			return int64(i), nil
		}
	}
	id, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || db.Get(id) == nil {
		return 0, fmt.Errorf("no series named or numbered %q in the dataset", arg)
	}
	return id, nil
}

func printStats(st tsq.Stats) {
	fmt.Printf("stats: %d index searches, %d node accesses (%d leaf), %d candidates, %d comparisons\n",
		st.IndexSearches, st.DAAll, st.DALeaf, st.Candidates, st.Comparisons)
	if st.SkippedLB > 0 || st.Abandoned > 0 {
		fmt.Printf("pipeline: %d candidates skipped by the lower-bound cascade (tier 0/1/2: %d/%d/%d), %d verifications abandoned early\n",
			st.SkippedLB, st.SkippedLB0, st.SkippedLB1, st.SkippedLB2, st.Abandoned)
	}
}
