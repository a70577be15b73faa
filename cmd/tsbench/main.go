// Command tsbench regenerates the figures of the paper's evaluation
// (Sec. 5). Each figure prints as a table of the same series the paper
// plots; see EXPERIMENTS.md for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	tsbench -fig 5            # Query 1 time vs number of sequences
//	tsbench -fig 6            # Query 1 time vs number of transformations
//	tsbench -fig 7            # Query 2 (join) time vs number of transformations
//	tsbench -fig 8            # transformations-per-MBR sweep, MV(6..29)
//	tsbench -fig 9            # same with inverted transformations added
//	tsbench -fig 3 | -fig 4   # MBR decomposition illustrations
//	tsbench -fig all -queries 100
//	tsbench -fig 5 -json results.json       # machine-readable figure rows
//
// -json writes every measured figure point, wrapped in an envelope of run
// metadata (schema version, GOMAXPROCS, NumCPU, page size, git revision),
// to a file ("-" for stdout). Performance is not measured here: the
// throughput, verification, capture and shard sweeps this command used to
// carry were replaced by the repository benchmark (benchmark/README.md,
// BENCHMARK.json), whose rows EXPERIMENTS.md names claim by claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"tsq/internal/bench"
	"tsq/internal/obs"
	"tsq/internal/plot"
	"tsq/internal/storage"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6, 7, 8, 9 or all")
		queries   = flag.Int("queries", 20, "random query repetitions per point (paper: 100)")
		seed      = flag.Int64("seed", 1999, "random seed")
		stocks    = flag.Int("stocks", 1068, "size of the synthetic stock data set")
		length    = flag.Int("length", 128, "series length")
		paperRect = flag.Bool("paper-rect", false, "use the paper's plain eps-box query rectangle")
		outDir    = flag.String("out", "", "directory to also write figN.svg and figN.csv files into")
		jsonOut   = flag.String("json", "", "write machine-readable figure rows to this file (- for stdout)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("tsbench", obs.ReadBuildSection())
		return
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
	}
	cfg := bench.Config{
		Queries:        *queries,
		Seed:           *seed,
		StockCount:     *stocks,
		Length:         *length,
		PaperQueryRect: *paperRect,
	}
	var results []benchResult
	if err := run(*fig, cfg, *outDir, &results); err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// benchResult is one measured figure point in the machine-readable output.
type benchResult struct {
	Name      string  `json:"name"`
	NsPerOp   float64 `json:"ns_per_op,omitempty"`
	DiskReads float64 `json:"disk_reads,omitempty"`
}

// benchMeta records the run environment so result files are comparable
// across machines and toolchains.
type benchMeta struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	PageSize    int    `json:"page_size"`
	GitRevision string `json:"git_revision"`
	// Resources is the run's cumulative process resource footprint
	// (heap bytes/objects allocated, GC cycles and pause) sampled when
	// the envelope is written — a coarse "what did this run cost"
	// alongside the per-point measurements.
	Resources obs.Resources `json:"resources"`
}

// benchFile is the machine-readable output envelope. Schema 1 was a bare
// result array; 2 added the meta envelope; 3 the run's resource footprint
// in meta; 4 and 5 added rows for the capture and shard sweeps; 6 removes
// every sweep row and field with the sweeps (the repository benchmark
// measures what they did), leaving figure rows only.
type benchFile struct {
	SchemaVersion int           `json:"schema_version"`
	Meta          benchMeta     `json:"meta"`
	Results       []benchResult `json:"results"`
}

// benchSchemaVersion is the current benchFile schema.
const benchSchemaVersion = 6

// collectMeta captures the run environment. The git revision comes from
// the build info's VCS stamp, falling back to `git rev-parse HEAD`;
// "unknown" when neither is available (go run outside a repo, no git
// binary) — degraded metadata must never fail a benchmark run.
func collectMeta() benchMeta {
	return benchMeta{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		PageSize:    storage.DefaultPageSize,
		GitRevision: gitRevision(),
		Resources:   obs.ReadResources(),
	}
}

// gitRevision resolves the source revision: the build info VCS stamp
// when the binary was built from a repo, else `git rev-parse HEAD` in
// the working directory, else "unknown". All failure modes (no build
// info, no git binary, not a repository) degrade silently.
func gitRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if rev := strings.TrimSpace(string(out)); err == nil && rev != "" {
		return rev
	}
	return "unknown"
}

// writeJSON writes the collected results wrapped in the schema-2
// envelope: run metadata first, then the result array.
func writeJSON(path string, results []benchResult) error {
	if results == nil {
		results = []benchResult{} // figures with no measured rows: emit [], not null
	}
	out := benchFile{
		SchemaVersion: benchSchemaVersion,
		Meta:          collectMeta(),
		Results:       results,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// recordRangeRows converts a Fig. 5/6-style sweep into result objects.
func recordRangeRows(results *[]benchResult, figName, xName string, rows []bench.RangeRow) {
	for _, r := range rows {
		prefix := fmt.Sprintf("%s/%s=%d", figName, xName, r.X)
		*results = append(*results,
			benchResult{Name: prefix + "/seqscan", NsPerOp: r.SeqScanSec * 1e9},
			benchResult{Name: prefix + "/st-index", NsPerOp: r.STSec * 1e9, DiskReads: r.STDiskAccesses},
			benchResult{Name: prefix + "/mt-index", NsPerOp: r.MTSec * 1e9, DiskReads: r.MTDiskAccesses},
		)
	}
}

func run(fig string, cfg bench.Config, outDir string, results *[]benchResult) error {
	all := fig == "all"
	if all || fig == "3" {
		fmt.Println("=== Figure 3: MV(1..40) second-coefficient points and MBR decomposition ===")
		fmt.Println(bench.Fig3(cfg.Length))
	}
	if all || fig == "4" {
		fmt.Println("=== Figure 4: a data rectangle before and after transformation (Eq. 12) ===")
		fmt.Println(bench.Fig4(cfg.Length))
	}
	if all || fig == "5" {
		fmt.Println("=== Figure 5: Query 1 time vs number of sequences (16 MVs 10..25, synthetic) ===")
		rows, err := bench.Fig5(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%10s %14s %14s %14s %10s %12s %12s\n",
			"sequences", "seqscan(s)", "ST-index(s)", "MT-index(s)", "avg out", "ST disk", "MT disk")
		for _, r := range rows {
			fmt.Printf("%10d %14.4f %14.4f %14.4f %10.1f %12.1f %12.1f\n",
				r.X, r.SeqScanSec, r.STSec, r.MTSec, r.AvgOutput, r.STDiskAccesses, r.MTDiskAccesses)
		}
		fmt.Println()
		recordRangeRows(results, "fig5", "sequences", rows)
		if err := writeRangeFigure(outDir, "fig5", "Fig. 5: time per query vs number of sequences", "number of sequences", rows); err != nil {
			return err
		}
	}
	if all || fig == "6" {
		fmt.Println("=== Figure 6: Query 1 time vs number of transformations (stock data) ===")
		rows, err := bench.Fig6(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%10s %14s %14s %14s %10s %12s %12s\n",
			"transforms", "seqscan(s)", "ST-index(s)", "MT-index(s)", "avg out", "ST disk", "MT disk")
		for _, r := range rows {
			fmt.Printf("%10d %14.4f %14.4f %14.4f %10.1f %12.1f %12.1f\n",
				r.X, r.SeqScanSec, r.STSec, r.MTSec, r.AvgOutput, r.STDiskAccesses, r.MTDiskAccesses)
		}
		fmt.Println()
		recordRangeRows(results, "fig6", "transforms", rows)
		if err := writeRangeFigure(outDir, "fig6", "Fig. 6: time per query vs number of transformations", "number of transformations", rows); err != nil {
			return err
		}
	}
	if all || fig == "7" {
		fmt.Println("=== Figure 7: Query 2 (join, rho >= 0.99) time vs number of transformations ===")
		rows, err := bench.Fig7(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%10s %14s %14s %14s %10s\n",
			"transforms", "seqscan(s)", "ST-index(s)", "MT-index(s)", "output")
		for _, r := range rows {
			fmt.Printf("%10d %14.4f %14.4f %14.4f %10d\n",
				r.NumTransforms, r.SeqScanSec, r.STSec, r.MTSec, r.OutputSize)
		}
		fmt.Println()
		for _, r := range rows {
			prefix := fmt.Sprintf("fig7/transforms=%d", r.NumTransforms)
			*results = append(*results,
				benchResult{Name: prefix + "/seqscan", NsPerOp: r.SeqScanSec * 1e9},
				benchResult{Name: prefix + "/st-index", NsPerOp: r.STSec * 1e9},
				benchResult{Name: prefix + "/mt-index", NsPerOp: r.MTSec * 1e9},
			)
		}
		if err := writeJoinFigure(outDir, rows); err != nil {
			return err
		}
	}
	if all || fig == "8" {
		fmt.Println("=== Figure 8: transformations per MBR, MV(6..29) (time, disk accesses, Eq. 20 cost) ===")
		rows, err := bench.Fig8(cfg, nil)
		if err != nil {
			return err
		}
		printMBRRows(rows)
		recordMBRRows(results, "fig8", rows)
		if err := writeMBRFigure(outDir, "fig8", "Fig. 8: transformations per MBR, MV(6..29)", rows); err != nil {
			return err
		}
	}
	if all || fig == "9" {
		fmt.Println("=== Figure 9: transformations per MBR, MV(6..29) + inverted (two clusters) ===")
		rows, err := bench.Fig9(cfg, nil)
		if err != nil {
			return err
		}
		printMBRRows(rows)
		recordMBRRows(results, "fig9", rows)
		if err := writeMBRFigure(outDir, "fig9", "Fig. 9: transformations per MBR, two clusters", rows); err != nil {
			return err
		}
	}
	switch fig {
	case "3", "4", "5", "6", "7", "8", "9", "all":
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// recordMBRRows converts a Fig. 8/9-style sweep into result objects.
func recordMBRRows(results *[]benchResult, figName string, rows []bench.MBRRow) {
	for _, r := range rows {
		*results = append(*results, benchResult{
			Name:      fmt.Sprintf("%s/per_mbr=%d", figName, r.PerMBR),
			NsPerOp:   r.Sec * 1e9,
			DiskReads: r.DiskAccesses,
		})
	}
}

// writeRangeFigure renders a Fig. 5/6-style chart and CSV into outDir.
func writeRangeFigure(outDir, name, title, xlabel string, rows []bench.RangeRow) error {
	if outDir == "" {
		return nil
	}
	xs := make([]float64, len(rows))
	seq := make([]float64, len(rows))
	st := make([]float64, len(rows))
	mt := make([]float64, len(rows))
	var csv strings.Builder
	csv.WriteString("x,seqscan_sec,st_sec,mt_sec,avg_out,st_disk,mt_disk\n")
	for i, r := range rows {
		xs[i], seq[i], st[i], mt[i] = float64(r.X), r.SeqScanSec, r.STSec, r.MTSec
		fmt.Fprintf(&csv, "%d,%g,%g,%g,%g,%g,%g\n", r.X, r.SeqScanSec, r.STSec, r.MTSec, r.AvgOutput, r.STDiskAccesses, r.MTDiskAccesses)
	}
	chart := plot.Chart{
		Title: title, XLabel: xlabel, YLabel: "seconds per query",
		Series: []plot.Series{
			{Name: "sequential-scan", X: xs, Y: seq, Dashed: true},
			{Name: "ST-index", X: xs, Y: st},
			{Name: "MT-index", X: xs, Y: mt},
		},
	}
	return writeFigureFiles(outDir, name, chart, csv.String())
}

// writeJoinFigure renders the Fig. 7 chart and CSV.
func writeJoinFigure(outDir string, rows []bench.JoinRow) error {
	if outDir == "" {
		return nil
	}
	xs := make([]float64, len(rows))
	seq := make([]float64, len(rows))
	st := make([]float64, len(rows))
	mt := make([]float64, len(rows))
	var csv strings.Builder
	csv.WriteString("transforms,seqscan_sec,st_sec,mt_sec,output\n")
	for i, r := range rows {
		xs[i], seq[i], st[i], mt[i] = float64(r.NumTransforms), r.SeqScanSec, r.STSec, r.MTSec
		fmt.Fprintf(&csv, "%d,%g,%g,%g,%d\n", r.NumTransforms, r.SeqScanSec, r.STSec, r.MTSec, r.OutputSize)
	}
	chart := plot.Chart{
		Title: "Fig. 7: join time vs number of transformations", XLabel: "number of transformations",
		YLabel: "seconds", LogY: true,
		Series: []plot.Series{
			{Name: "sequential-scan", X: xs, Y: seq, Dashed: true},
			{Name: "ST-index", X: xs, Y: st},
			{Name: "MT-index", X: xs, Y: mt},
		},
	}
	return writeFigureFiles(outDir, "fig7", chart, csv.String())
}

// writeMBRFigure renders a Fig. 8/9-style chart and CSV.
func writeMBRFigure(outDir, name, title string, rows []bench.MBRRow) error {
	if outDir == "" {
		return nil
	}
	xs := make([]float64, len(rows))
	secs := make([]float64, len(rows))
	da := make([]float64, len(rows))
	cost := make([]float64, len(rows))
	var csv strings.Builder
	csv.WriteString("per_mbr,sec,disk_accesses,cost_fn\n")
	for i, r := range rows {
		xs[i], secs[i], da[i], cost[i] = float64(r.PerMBR), r.Sec*1000, r.DiskAccesses, r.CostFn
		fmt.Fprintf(&csv, "%d,%g,%g,%g\n", r.PerMBR, r.Sec, r.DiskAccesses, r.CostFn)
	}
	timeChart := plot.Chart{
		Title: title + " — running time", XLabel: "transformations per MBR", YLabel: "msec per query",
		Series: []plot.Series{{Name: "running time", X: xs, Y: secs}},
	}
	daChart := plot.Chart{
		Title: title + " — disk accesses and cost", XLabel: "transformations per MBR", YLabel: "per query",
		Series: []plot.Series{
			{Name: "pure disk accesses", X: xs, Y: da},
			{Name: "cost function (Eq. 20)", X: xs, Y: cost, Dashed: true},
		},
	}
	if err := writeFigureFiles(outDir, name+"-time", timeChart, csv.String()); err != nil {
		return err
	}
	return writeFigureFiles(outDir, name+"-disk", daChart, "")
}

// writeFigureFiles writes the SVG (and, when non-empty, the CSV).
func writeFigureFiles(outDir, name string, chart plot.Chart, csv string) error {
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name+".svg"), []byte(svg), 0o644); err != nil {
		return err
	}
	if csv != "" {
		return os.WriteFile(filepath.Join(outDir, name+".csv"), []byte(csv), 0o644)
	}
	return nil
}

func printMBRRows(rows []bench.MBRRow) {
	fmt.Printf("%10s %14s %16s %16s\n", "per MBR", "time(s)", "disk accesses", "cost fn (Eq.20)")
	for _, r := range rows {
		fmt.Printf("%10d %14.4f %16.1f %16.1f\n", r.PerMBR, r.Sec, r.DiskAccesses, r.CostFn)
	}
	fmt.Println()
}
