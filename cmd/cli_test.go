// Package cmd_test builds the command-line tools and exercises them end
// to end: generate a dataset, query it three ways, inspect a database
// file, regenerate a figure with charts. These are the workflows the
// README advertises.
package cmd_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// binaries are built once per test run.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tsqbin")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		for _, tool := range []string{"tsgen", "tsquery", "tsbench"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
			cmd.Dir = "." // cmd/ directory
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("building %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), bin), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestCLIGenerateAndRangeQuery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "stocks.csv")
	out := runTool(t, "tsgen", "-kind", "stocks", "-count", "200", "-length", "128", "-out", data)
	if !strings.Contains(out, "wrote 200 series") {
		t.Fatalf("tsgen output: %q", out)
	}
	out = runTool(t, "tsquery", "-data", data, "-query", "stock0007", "-pipeline", "mv(5..20)", "-rho", "0.96")
	for _, needle := range []string{"200 series of length 128", "16 transformations", "range query around stock0007", "stats:"} {
		if !strings.Contains(out, needle) {
			t.Errorf("tsquery range output missing %q:\n%s", needle, out)
		}
	}
	// All three algorithms agree on the match count.
	counts := map[string]string{}
	for _, algo := range []string{"mt", "st", "seq"} {
		o := runTool(t, "tsquery", "-data", data, "-query", "stock0007", "-pipeline", "mv(5..20)", "-rho", "0.96", "-algo", algo, "-max-print", "0")
		for _, line := range strings.Split(o, "\n") {
			if strings.Contains(line, "matches") {
				counts[algo] = line[strings.Index(line, "):"):]
			}
		}
	}
	if counts["mt"] != counts["st"] || counts["mt"] != counts["seq"] {
		t.Errorf("algorithms disagree: %v", counts)
	}
}

func TestCLIJoinNNSubseqExplain(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "stocks.csv")
	runTool(t, "tsgen", "-kind", "stocks", "-count", "120", "-length", "128", "-out", data)

	join := runTool(t, "tsquery", "-data", data, "-join", "-pipeline", "mv(5..12)", "-rho", "0.99", "-max-print", "3")
	if !strings.Contains(join, "join (MT-index") {
		t.Errorf("join output:\n%s", join)
	}
	nn := runTool(t, "tsquery", "-data", data, "-query", "7", "-pipeline", "mv(1..10)", "-nn", "3")
	if !strings.Contains(nn, "3 nearest neighbors of stock0007") {
		t.Errorf("nn output:\n%s", nn)
	}
	sub := runTool(t, "tsquery", "-data", data, "-query", "stock0003", "-subseq", "20", "-offset", "40", "-dist", "0.5")
	if !strings.Contains(sub, "subsequence search: window 20") {
		t.Errorf("subseq output:\n%s", sub)
	}
	expl := runTool(t, "tsquery", "-data", data, "-query", "stock0003", "-pipeline", "mv(5..20)", "-rho", "0.96", "-explain")
	if !strings.Contains(expl, "chosen:") || !strings.Contains(expl, "seqscan") {
		t.Errorf("explain output:\n%s", expl)
	}
	// EXPLAIN ANALYZE runs all three algorithms with tracing on and
	// cross-checks every trace against the storage counters and, for the
	// two index runs, the filter and verify stage counters summed from
	// the spans against the Stats the query returned.
	if !strings.Contains(expl, "EXPLAIN ANALYZE") {
		t.Errorf("explain output missing EXPLAIN ANALYZE section:\n%s", expl)
	}
	if got := strings.Count(expl, "storage counted") + strings.Count(expl, "stage counters against Stats"); got != 5 || strings.Count(expl, "— OK") != got {
		t.Errorf("want 3 page and 2 stage cross-check lines, all passing, got %d lines and %d passes:\n%s", got, strings.Count(expl, "— OK"), expl)
	}
	for _, needle := range []string{"filter: ", " admitted -> ", " survivors, lower bound ", "verify: ", " fetched, "} {
		if strings.Count(expl, needle) != 2 {
			t.Errorf("want the %q of a stage summary under each index run:\n%s", needle, expl)
		}
	}
	if strings.Contains(expl, "MISMATCH") {
		t.Errorf("trace/storage accounting mismatch:\n%s", expl)
	}
	for _, needle := range []string{"algorithm", "disk accesses", "cand ratio", "false pos"} {
		if !strings.Contains(expl, needle) {
			t.Errorf("explain summary table missing %q:\n%s", needle, expl)
		}
	}
	info := runTool(t, "tsquery", "-data", data, "-info")
	if !strings.Contains(info, "tree height") {
		t.Errorf("info output:\n%s", info)
	}
}

func TestCLIBenchWithCharts(t *testing.T) {
	dir := t.TempDir()
	out := runTool(t, "tsbench", "-fig", "8", "-queries", "2", "-stocks", "150", "-out", dir)
	if !strings.Contains(out, "Figure 8") {
		t.Errorf("tsbench output:\n%s", out)
	}
	for _, f := range []string{"fig8-time.svg", "fig8-disk.svg", "fig8-time.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
	svg, _ := os.ReadFile(filepath.Join(dir, "fig8-time.svg"))
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "polyline") {
		t.Error("fig8-time.svg is not a chart")
	}
	// Figures 3/4 are textual.
	out = runTool(t, "tsbench", "-fig", "3")
	if !strings.Contains(out, "mult-MBR") {
		t.Errorf("fig3 output:\n%s", out)
	}
}

// TestCLIBenchJSONEnvelope checks the machine-readable output format:
// an envelope carrying the writer's current schema version and the
// metadata that makes result files comparable across machines,
// including the run's resource footprint.
func TestCLIBenchJSONEnvelope(t *testing.T) {
	// The version is whatever tsbench declares: a schema bump is made in
	// one place and cannot leave this test behind.
	src, err := os.ReadFile(filepath.Join("tsbench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	vm := regexp.MustCompile(`(?m)^const benchSchemaVersion = (\d+)$`).FindSubmatch(src)
	if vm == nil {
		t.Fatal("tsbench/main.go no longer declares benchSchemaVersion")
	}
	wantSchema, _ := strconv.Atoi(string(vm[1]))
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	runTool(t, "tsbench", "-fig", "8", "-queries", "1", "-stocks", "120", "-json", jsonPath)
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		SchemaVersion int `json:"schema_version"`
		Meta          struct {
			GoVersion   string `json:"go_version"`
			GOMAXPROCS  int    `json:"gomaxprocs"`
			NumCPU      int    `json:"num_cpu"`
			PageSize    int    `json:"page_size"`
			GitRevision string `json:"git_revision"`
			Resources   struct {
				AllocBytes int64 `json:"alloc_bytes"`
				Mallocs    int64 `json:"mallocs"`
			} `json:"resources"`
		} `json:"meta"`
		Results []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("parsing %s: %v", jsonPath, err)
	}
	if out.SchemaVersion != wantSchema {
		t.Errorf("schema_version = %d, want %d", out.SchemaVersion, wantSchema)
	}
	if out.Meta.GoVersion == "" || out.Meta.GOMAXPROCS < 1 || out.Meta.NumCPU < 1 {
		t.Errorf("implausible run metadata: %+v", out.Meta)
	}
	if out.Meta.PageSize != 4096 {
		t.Errorf("page_size = %d, want 4096", out.Meta.PageSize)
	}
	if out.Meta.GitRevision == "" {
		t.Error("git_revision missing (expected a hash or \"unknown\")")
	}
	if out.Meta.Resources.AllocBytes <= 0 || out.Meta.Resources.Mallocs <= 0 {
		t.Errorf("schema-3 resource footprint implausible: %+v", out.Meta.Resources)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results recorded")
	}
	for _, r := range out.Results {
		if r.Name == "" || r.NsPerOp <= 0 {
			t.Errorf("implausible result row: %+v", r)
		}
	}
}

// TestCLIBundle: tsquery -bundle runs a query under full diagnostics
// and exports a support bundle that passes its own reconciliation.
func TestCLIBundle(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "stocks.csv")
	bundlePath := filepath.Join(dir, "bundle.json")
	runTool(t, "tsgen", "-kind", "stocks", "-count", "150", "-length", "128", "-out", data)
	out := runTool(t, "tsquery", "-data", data, "-query", "stock0007",
		"-pipeline", "mv(5..20)", "-rho", "0.96", "-bundle", bundlePath)
	if !strings.Contains(out, "reconciliation checks passed") {
		t.Errorf("tsquery -bundle output missing reconciliation verdict:\n%s", out)
	}

	raw, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		SchemaVersion int     `json:"schema_version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Build         struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
		Runtime struct {
			NumCPU int `json:"num_cpu"`
		} `json:"runtime"`
		Queries struct {
			Total uint64 `json:"total"`
		} `json:"queries"`
		Index struct {
			Series int `json:"series"`
		} `json:"index"`
		Reconciliation []struct {
			Name   string `json:"name"`
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		} `json:"reconciliation"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parsing %s: %v", bundlePath, err)
	}
	if b.SchemaVersion != 1 {
		t.Errorf("bundle schema_version = %d, want 1", b.SchemaVersion)
	}
	if b.UptimeSeconds <= 0 || b.Build.GoVersion == "" || b.Runtime.NumCPU < 1 {
		t.Errorf("bundle envelope implausible: uptime=%v go=%q cpus=%d",
			b.UptimeSeconds, b.Build.GoVersion, b.Runtime.NumCPU)
	}
	if b.Queries.Total != 1 {
		t.Errorf("bundle recorded %d queries, want 1", b.Queries.Total)
	}
	if b.Index.Series != 150 {
		t.Errorf("bundle index series = %d, want 150", b.Index.Series)
	}
	if len(b.Reconciliation) == 0 {
		t.Fatal("bundle has no reconciliation checks")
	}
	for _, c := range b.Reconciliation {
		if !c.OK {
			t.Errorf("reconciliation check %s failed: %s", c.Name, c.Detail)
		}
	}

	// A corrupt destination path fails loudly with nonzero status.
	cmd := exec.Command(filepath.Join(buildTools(t), "tsquery"), "-data", data,
		"-query", "stock0007", "-pipeline", "mv(5..20)", "-rho", "0.96",
		"-bundle", filepath.Join(dir, "missing", "bundle.json"))
	if err := cmd.Run(); err == nil {
		t.Error("tsquery -bundle accepted an unwritable path")
	}
}

func TestCLIInspect(t *testing.T) {
	// Build a database through the library, then inspect it as a user
	// would: tsquery -db F -info for its shape, -check for its integrity
	// (-inspect, the health report, has TestCLIInspectReport).
	dir := t.TempDir()
	data := filepath.Join(dir, "stocks.csv")
	runTool(t, "tsgen", "-kind", "stocks", "-count", "80", "-length", "64", "-out", data)

	// tsquery has no "create file" mode; drive CreateFile via a tiny
	// helper program compiled on the fly.
	helper := filepath.Join(dir, "mkdb.go")
	prog := `package main

import (
	"encoding/csv"
	"os"
	"strconv"

	"tsq"
)

func main() {
	f, err := os.Open(os.Args[1])
	if err != nil {
		panic(err)
	}
	rows, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		panic(err)
	}
	var names []string
	var ss []tsq.Series
	for _, row := range rows {
		names = append(names, row[0])
		s := make(tsq.Series, len(row)-1)
		for i, field := range row[1:] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				panic(err)
			}
			s[i] = v
		}
		ss = append(ss, s)
	}
	db, err := tsq.CreateFile(os.Args[2], ss, names, tsq.Options{})
	if err != nil {
		panic(err)
	}
	if err := db.Close(); err != nil {
		panic(err)
	}
}
`
	if err := os.WriteFile(helper, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "db.tsq")
	cmd := exec.Command("go", "run", helper, data, dbPath)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mkdb: %v\n%s", err, out)
	}

	out := runTool(t, "tsquery", "-db", dbPath, "-info")
	for _, needle := range []string{"80 series of length 64", "paged=true", "tree levels (1 = leaves):", "level 1:"} {
		if !strings.Contains(out, needle) {
			t.Errorf("tsquery -info output missing %q:\n%s", needle, out)
		}
	}
	out = runTool(t, "tsquery", "-db", dbPath, "-check")
	if !strings.Contains(out, "result: OK") {
		t.Errorf("tsquery -check on a library-built file:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	bin := buildTools(t)
	// Unknown algorithm fails loudly with nonzero status.
	cmd := exec.Command(filepath.Join(bin, "tsquery"), "-data", "/nonexistent.csv")
	if err := cmd.Run(); err == nil {
		t.Error("tsquery accepted a missing data file")
	}
	cmd = exec.Command(filepath.Join(bin, "tsgen"), "-kind", "nope")
	if err := cmd.Run(); err == nil {
		t.Error("tsgen accepted an unknown kind")
	}
	cmd = exec.Command(filepath.Join(bin, "tsquery"), "-db", "/nonexistent.tsq", "-info")
	if err := cmd.Run(); err == nil {
		t.Error("tsquery -info accepted a missing database file")
	}
}

func TestCLICheck(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "stocks.csv")
	dbPath := filepath.Join(dir, "stocks.tsq")
	runTool(t, "tsgen", "-kind", "stocks", "-count", "60", "-length", "64", "-out", data)
	runTool(t, "tsquery", "-data", data, "-save", dbPath)

	// A clean file scrubs OK.
	out := runTool(t, "tsquery", "-db", dbPath, "-check")
	for _, needle := range []string{"checksums on", "result: OK"} {
		if !strings.Contains(out, needle) {
			t.Errorf("-check output missing %q:\n%s", needle, out)
		}
	}

	// Flip a byte mid-file: -check must report CORRUPT and exit nonzero.
	f, err := os.OpenFile(dbPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xEE, 0xDD}, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(buildTools(t), "tsquery"), "-db", dbPath, "-check")
	corrupt, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("-check exited zero on a corrupt file:\n%s", corrupt)
	}
	if !strings.Contains(string(corrupt), "result: CORRUPT") {
		t.Errorf("-check output on corrupt file:\n%s", corrupt)
	}
}

func TestCLIInspectReport(t *testing.T) {
	// Acceptance: the -inspect report's tree height and total entry count
	// match ground truth on a generated Fig. 5-style workload.
	dir := t.TempDir()
	data := filepath.Join(dir, "stocks.csv")
	dbPath := filepath.Join(dir, "stocks.tsq")
	runTool(t, "tsgen", "-kind", "stocks", "-count", "300", "-length", "128", "-out", data)
	runTool(t, "tsquery", "-data", data, "-save", dbPath)

	info := runTool(t, "tsquery", "-db", dbPath, "-info")
	im := regexp.MustCompile(`tree height (\d+)`).FindStringSubmatch(info)
	if im == nil {
		t.Fatalf("no tree height in -info output:\n%s", info)
	}
	wantHeight := im[1]

	out := runTool(t, "tsquery", "-db", dbPath, "-pipeline", "mv(5..20)", "-per-mbr", "4", "-inspect")
	hm := regexp.MustCompile(`R\*-tree: height=(\d+) entries=(\d+) nodes=(\d+)`).FindStringSubmatch(out)
	if hm == nil {
		t.Fatalf("no R*-tree header in -inspect output:\n%s", out)
	}
	if hm[1] != wantHeight {
		t.Errorf("-inspect height = %s, -info reports %s", hm[1], wantHeight)
	}
	entries, _ := strconv.Atoi(hm[2])
	nodes, _ := strconv.Atoi(hm[3])
	// Ground truth: one leaf entry per series plus one internal entry per
	// non-root node.
	if want := 300 + nodes - 1; entries != want {
		t.Errorf("-inspect entries = %d with %d nodes, want %d", entries, nodes, want)
	}
	for _, needle := range []string{
		"index health: 300 series of length 128",
		"leaf occupancy",
		"heap: 300 records (300 live, 0 deleted)",
		"storage: reads=",
		"transformation groups:",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("-inspect output missing %q:\n%s", needle, out)
		}
	}
	// mv(5..20) is 16 transforms in groups of 4.
	if rows := regexp.MustCompile(`(?m)^\d+ +4 `).FindAllString(out, -1); len(rows) != 4 {
		t.Errorf("expected 4 groups of size 4 in:\n%s", out)
	}
}
