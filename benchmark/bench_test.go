package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func units(ms []manifestMetric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestManifestMatches keeps BENCHMARK.json and the code in step: same
// workloads with the same reasons, same metric names with the same units.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("BENCHMARK.json: command %v in paths %v, want run.sh of this directory", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	if got := units(m.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the benchmark %v", got, endToEndUnits)
	}
	if got := units(m.PerLayer); !reflect.DeepEqual(got, perLayerUnits) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the benchmark %v", got, perLayerUnits)
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for
// equal seeds: they count work the operation list fixes, with no clock or
// allocator in them. pages_per_op is their end-to-end counterpart.
var exactCounts = []string{
	"tsq.matches_per_op", "rtree.nodes_per_op", "rtree.leaves_per_op",
	"core.candidates_per_op", "core.comparisons_per_op",
}

// TestQuickRuns runs every workload at smoke-test scale and checks what
// the driver relies on: a correct run, exactly the listed metric names,
// counts that repeat for a seed and move with another where the seed
// generates series.
func TestQuickRuns(t *testing.T) {
	const seconds = 0.3
	for _, w := range workloads {
		w := w.quick()
		t.Run(w.name, func(t *testing.T) {
			names := func(ms map[string]metric) []string {
				out := make([]string, 0, len(ms))
				for name := range ms {
					out = append(out, name)
				}
				sort.Strings(out)
				return out
			}
			mustRun := func(seed int64, trace bool) (runInfo, result) {
				info, res, err := run(w, seed, seconds, trace, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != info.TimedOps {
					t.Fatalf("seed %d trace %v: correct=%v failed=%d attempted=%d of %d timed ops",
						seed, trace, res.Correct, res.Failed, res.Attempted, info.TimedOps)
				}
				if info.OracleOps == 0 {
					t.Fatalf("seed %d: the oracle checked no operation", seed)
				}
				return info, res
			}

			_, a := mustRun(1, false)
			_, b := mustRun(1, false)
			if got, want := names(a.Metrics), names(withUnits(nil, endToEndUnits)); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end names %v, want %v", got, want)
			}
			for name, m := range a.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if pa, pb := a.Metrics["pages_per_op"].Value, b.Metrics["pages_per_op"].Value; pa != pb {
				t.Errorf("pages_per_op: %v and %v for the same seed", pa, pb)
			}

			infoA, ta := mustRun(1, true)
			infoB, tb := mustRun(1, true)
			infoC, tc := mustRun(2, true)
			if got, want := names(ta.Metrics), names(withUnits(nil, perLayerUnits)); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer names %v, want %v", got, want)
			}
			if infoA.OpsDigest != infoB.OpsDigest || infoA.OpsDigest == infoC.OpsDigest {
				t.Errorf("ops digests: seed 1 %s and %s, seed 2 %s", infoA.OpsDigest, infoB.OpsDigest, infoC.OpsDigest)
			}
			// A workload of range queries alone asks about the same query
			// points in every seed's order, so its counts must not move with
			// the seed; held-out series come from the seed, so the others' must.
			seeded := !reflect.DeepEqual(w.block, []opKind{opRange})
			moved := false
			for _, name := range exactCounts {
				if ta.Metrics[name].Value != tb.Metrics[name].Value {
					t.Errorf("%s: %v and %v for the same seed", name, ta.Metrics[name].Value, tb.Metrics[name].Value)
				}
				if ta.Metrics[name].Value != tc.Metrics[name].Value {
					moved = true
				}
			}
			if moved != seeded {
				t.Errorf("count metrics differ between seeds 1 and 2: %v, want %v", moved, seeded)
			}
			if w.name == "range-mem" {
				for _, name := range []string{"wal.fsyncs_per_insert", "wal.checkpoints", "wal.bytes_per_insert", "heapfile.fetch_us_per_rec", "storage.writes_per_op"} {
					if v := ta.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v on a workload that bypasses the layer", name, v)
					}
				}
			}
		})
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median(append([]float64(nil), xs...)); got != 5.5 {
		t.Errorf("median of 10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20, 50, 40}, 15, 45},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(append([]float64(nil), tc.xs...))
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestRoundsAndSampling(t *testing.T) {
	for _, w := range workloads {
		per := w.roundOps(12)
		if per%len(w.block) != 0 || per == 0 {
			t.Errorf("%s: a round of %d ops is not whole blocks of %d", w.name, per, len(w.block))
		}
		if oracleEvery%len(w.block) != 0 {
			t.Errorf("%s: block length %d does not divide the oracle stride %d", w.name, len(w.block), oracleEvery)
		}
		in := generate(w.quick(), 1, 0.5)
		sampled := 0
		for i, o := range in.timed {
			if i%oracleEvery == w.oracleOffset() {
				sampled++
				if o.kind == opInsert {
					t.Errorf("%s: op %d is sampled for the oracle but is an insert", w.name, i)
				}
			}
		}
		if sampled == 0 {
			t.Errorf("%s: no op sampled", w.name)
		}
		if len(in.timed) != rounds*len(in.warm) {
			t.Errorf("%s: warm-up of %d ops is not a tenth of %d", w.name, len(in.warm), len(in.timed))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	// One range query: facade 10 > query 9 > probe 8 > filter 5 + verify 2.
	serial := wrap(kindFacade, 10e6, []span{
		{ID: 0, Parent: -1, Kind: "query", Duration: ms(9)},
		{ID: 1, Parent: 0, Kind: "probe", Duration: ms(8)},
		{ID: 2, Parent: 1, Kind: "filter", Duration: ms(5)},
		{ID: 3, Parent: 1, Kind: "verify", Duration: ms(2)},
	})
	want := map[string]int64{kindFacade: ms(1), "query": ms(1), "probe": ms(1), "filter": ms(5), "verify": ms(2)}
	if got := selfTimes(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("serial: %v, want %v", got, want)
	}
	// Two shards probed at once: only the slower one blocks the query.
	sharded := wrap(kindFacade, 10e6, []span{
		{ID: 0, Parent: -1, Kind: "query", Duration: ms(9)},
		{ID: 1, Parent: 0, Kind: "probe", Duration: ms(4), Attrs: map[string]int64{"shard": 0}},
		{ID: 2, Parent: 0, Kind: "probe", Duration: ms(7), Attrs: map[string]int64{"shard": 1}},
		{ID: 3, Parent: 2, Kind: "filter", Duration: ms(3), Attrs: nil},
	})
	want = map[string]int64{kindFacade: ms(1), "query": ms(2), "probe": ms(4), "filter": ms(3)}
	if got := selfTimes(sharded); !reflect.DeepEqual(got, want) {
		t.Errorf("sharded: %v, want %v", got, want)
	}
	var sum int64
	for _, v := range selfTimes(sharded) {
		sum += v
	}
	if sum != ms(10) {
		t.Errorf("sharded self times sum to %d, want the operation's %d", sum, ms(10))
	}
	// An insert has no inner spans: all of it is the insert layer.
	if got := selfTimes(wrap(kindInsert, 3e6, nil)); !reflect.DeepEqual(got, map[string]int64{kindInsert: ms(3)}) {
		t.Errorf("insert: %v", got)
	}
	// A child that outlasts its parent is clamped, and the audit sees it.
	tr := traced{tracedNs: ms(10), selfNs: selfTimes([]span{
		{ID: 0, Parent: -1, Kind: "query", Duration: ms(10)},
		{ID: 1, Parent: 0, Kind: "probe", Duration: ms(12)},
	})}
	if err := tr.audit(); err == nil {
		t.Error("audit accepted layer times 20% over the operation time")
	}
}
