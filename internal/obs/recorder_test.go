package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderSlowRing checks threshold classification and ring
// eviction order (oldest dropped first, snapshot oldest-first).
func TestRecorderSlowRing(t *testing.T) {
	r := NewRecorder(RecorderOptions{SlowN: 3, SampleN: 2, Threshold: time.Millisecond})
	for i := 1; i <= 5; i++ {
		r.Record("range", "q", 0, time.Duration(i)*time.Millisecond, nil, nil)
	}
	snap := r.Snapshot()
	if len(snap.Slow) != 3 {
		t.Fatalf("%d slow records, want 3", len(snap.Slow))
	}
	// Queries 1..5ms all exceed the 1ms threshold; ring keeps 3,4,5.
	for i, want := range []int64{3, 4, 5} {
		if got := snap.Slow[i].DurationNs / 1e6; got != want {
			t.Errorf("slow[%d] = %dms, want %dms", i, got, want)
		}
		if !snap.Slow[i].Slow {
			t.Errorf("slow[%d] not flagged slow", i)
		}
	}
	if snap.Total != 5 {
		t.Errorf("total = %d, want 5", snap.Total)
	}
	if snap.Slow[0].Seq >= snap.Slow[1].Seq {
		t.Error("slow ring not ordered by sequence")
	}
}

// TestRecorderReservoir checks Algorithm R invariants: the reservoir
// never exceeds capacity, fills with the first SampleN under-threshold
// queries, and holds valid records after many replacements.
func TestRecorderReservoir(t *testing.T) {
	r := NewRecorder(RecorderOptions{SlowN: 1, SampleN: 8, Threshold: time.Second})
	for i := 0; i < 1000; i++ {
		r.Record("nn", "q", 0, time.Microsecond, nil, nil)
	}
	snap := r.Snapshot()
	if len(snap.Sample) != 8 {
		t.Fatalf("reservoir size = %d, want 8", len(snap.Sample))
	}
	if snap.Sampled != 1000 {
		t.Errorf("sampled = %d, want 1000", snap.Sampled)
	}
	seen := make(map[uint64]bool)
	for _, rec := range snap.Sample {
		if rec.Seq == 0 || rec.Seq > 1000 || rec.Slow {
			t.Errorf("bad reservoir record %+v", rec)
		}
		if seen[rec.Seq] {
			t.Errorf("duplicate seq %d in reservoir", rec.Seq)
		}
		seen[rec.Seq] = true
	}
	// With 1000 queries through an 8-slot reservoir, replacement should
	// have occurred: not all survivors can be the first 8.
	all := true
	for _, rec := range snap.Sample {
		if rec.Seq > 8 {
			all = false
		}
	}
	if all {
		t.Error("reservoir never replaced a record over 1000 queries")
	}
}

// TestRecorderTraceAttrs checks attribute extraction from an attached
// trace and error capture.
func TestRecorderTraceAttrs(t *testing.T) {
	tr := New()
	root := tr.Start(KindQuery, "q")
	probe := root.Child(KindProbe, "p")
	probe.Set(ATransforms, 4)
	f := probe.Child(KindFilter, "f")
	f.Set(ACandidates, 12)
	f.End()
	v := probe.Child(KindVerify, "v")
	v.Set(AMatches, 9)
	v.End()
	probe.End()
	root.End()

	r := NewRecorder(RecorderOptions{Threshold: time.Nanosecond})
	r.Record("range", "eps=0.5", 7, time.Millisecond, errors.New("boom"), root)
	snap := r.Snapshot()
	if len(snap.Slow) != 1 {
		t.Fatalf("%d slow records, want 1", len(snap.Slow))
	}
	rec := snap.Slow[0]
	if rec.Matches != 9 || rec.Candidates != 12 || rec.Transforms != 4 {
		t.Errorf("attrs = matches=%d cands=%d transforms=%d", rec.Matches, rec.Candidates, rec.Transforms)
	}
	if rec.Err != "boom" || rec.Kind != "range" || rec.Label != "eps=0.5" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Trace == nil {
		t.Error("trace not retained")
	}
}

// TestRecorderNilAndConcurrent: a nil recorder drops records without
// panicking, and concurrent Record/Snapshot is safe (run under -race).
func TestRecorderNilAndConcurrent(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record("range", "", 0, time.Second, nil, nil)
	if snap := nilRec.Snapshot(); snap.Total != 0 {
		t.Error("nil recorder snapshot not empty")
	}

	r := NewRecorder(RecorderOptions{SlowN: 4, SampleN: 4, Threshold: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record("range", "", 0, time.Duration(g)*time.Millisecond, nil, nil)
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := r.Snapshot().Total; got != 400 {
		t.Errorf("total = %d, want 400", got)
	}
}

// TestRecorderHandler drains the recorder over HTTP as JSON.
func TestRecorderHandler(t *testing.T) {
	r := NewRecorder(RecorderOptions{Threshold: time.Nanosecond})
	r.Record("nn", "k=5", 0, time.Millisecond, nil, nil)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap RecorderSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slow) != 1 || snap.Slow[0].Kind != "nn" {
		t.Errorf("served snapshot = %+v", snap)
	}
}

// TestRecorderKeepsEachQuerysSpans: queries that share one trace, their
// spans interleaved the way a traced batch's workers create them, are
// each recorded with their own subtree and rollups.
func TestRecorderKeepsEachQuerysSpans(t *testing.T) {
	tr := New()
	roots := []*Span{tr.Start(KindQuery, "a"), tr.Start(KindQuery, "b"), tr.Start(KindQuery, "c")}
	var probes []*Span
	for i, root := range roots {
		p := root.Child(KindProbe, "p")
		p.Set(ATransforms, int64(i+1))
		probes = append(probes, p)
	}
	for i, p := range probes {
		f := p.Child(KindFilter, "f")
		f.Set(ACandidates, int64(10*(i+1)))
		f.End()
	}
	for i, p := range probes {
		v := p.Child(KindVerify, "v")
		v.Set(AMatches, int64(100*(i+1)))
		v.End()
		p.End()
		roots[i].End()
	}
	r := NewRecorder(RecorderOptions{Threshold: time.Nanosecond})
	for _, root := range roots {
		r.Record("range", root.Label(), 0, time.Millisecond, nil, root)
	}
	for i, rec := range r.Snapshot().Slow {
		n := int64(i + 1)
		spans := rec.Trace.Spans()
		if rec.Transforms != n || rec.Candidates != 10*n || rec.Matches != 100*n || len(spans) != 4 || spans[0] != roots[i] {
			t.Errorf("record %s: transforms %d, candidates %d, matches %d over %d spans; want %d, %d, %d over its own 4",
				rec.Label, rec.Transforms, rec.Candidates, rec.Matches, len(spans), n, 10*n, 100*n)
		}
		if rec.Trace.Sum(KindVerify, AMatches) != rec.Matches || !strings.HasPrefix(rec.Trace.String(), rec.Label+" ") {
			t.Errorf("record %s: its trace renders\n%s", rec.Label, rec.Trace)
		}
	}
}
