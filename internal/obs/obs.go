// Package obs is the stdlib-only observability layer of the query
// engine: a metrics registry of atomic counters and fixed-bucket
// histograms (metrics.go), context-propagated query traces with typed
// spans carrying the paper's per-phase counters (this file), and
// exporters — an EXPLAIN ANALYZE-style text tree, JSON snapshots, and an
// expvar-style HTTP handler (render.go).
//
// The tracing side is built around a nil fast path: every method on a
// nil *Trace or nil *Span is a no-op that performs zero allocations, so
// instrumented code paths cost nothing when tracing is disabled. Callers
// that build span labels with fmt.Sprintf guard on the parent being
// non-nil; everything else can call through unconditionally.
//
// A Span belongs to the goroutine that created it: attribute writes and
// End are not synchronized. Creating child spans from concurrent
// goroutines is safe (the trace's span list is mutex-protected), which
// is what the parallel MT-index group probes do — one span per group,
// each owned by its probing goroutine. Render a trace only after the
// work producing it has completed.
package obs

import (
	"context"
	"sync"
	"time"
)

// Kind types a span by query phase.
type Kind uint8

const (
	// KindQuery is a root span covering one whole query.
	KindQuery Kind = iota
	// KindPlan covers the cost-based planner (including its probe I/O).
	KindPlan
	// KindFeatures covers query featurization: normal form + DFT.
	KindFeatures
	// KindProbe covers one transformation rectangle's filter-and-verify
	// pipeline (an index traversal plus candidate verification).
	KindProbe
	// KindFilter covers the filter stage of one probe: the R*-tree
	// traversal and the lower bound it runs on the leaf entries it admits.
	KindFilter
	// KindFetch covers candidate record retrieval (heap page reads).
	KindFetch
	// KindVerify covers exact distance verification of candidates.
	KindVerify
	// KindScan covers a sequential scan of the relation.
	KindScan
)

// String names the span kind.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindPlan:
		return "plan"
	case KindFeatures:
		return "features"
	case KindProbe:
		return "probe"
	case KindFilter:
		return "filter"
	case KindFetch:
		return "fetch"
	case KindVerify:
		return "verify"
	case KindScan:
		return "scan"
	default:
		return "span"
	}
}

// Attr is a typed per-span counter. The fixed set keeps spans
// allocation-free after creation and lets cross-checks sum attributes
// over a whole trace without string keys.
type Attr uint8

const (
	// ANodes counts index nodes visited, all levels (the paper's DA_all).
	ANodes Attr = iota
	// ALeaves counts leaf nodes visited (DA_leaf).
	ALeaves
	// APruned counts internal entries a range probe did not descend into
	// because the transformed rectangle missed the query rectangle.
	APruned
	// APrunedLB counts internal entries not descended into because the
	// lower bound on the rectangle (the summed sector bound) exceeded the
	// cutoff: eps for a range probe, after the rectangle test let the
	// entry through; the k-th best distance so far for an NN probe, which
	// has no other subtree test.
	APrunedLB
	// APagesRead counts backend page reads attributed to the span.
	APagesRead
	// ABufferHits counts buffer-pool hits attributed to the span.
	ABufferHits
	// ACandidates counts candidate records: on a filter span the leaf
	// entries the traversal admitted (ACandidates - ASkippedLB of them
	// go on to verification), on every other span the records kept for
	// verification.
	ACandidates
	// AComparisons counts distance evaluations, completed or abandoned.
	AComparisons
	// AMatches counts matches produced.
	AMatches
	// AFalsePositives counts candidates that produced no match.
	AFalsePositives
	// ATransforms counts transformations covered by the span's group.
	ATransforms
	// AGroupIndex is the MT-index transformation-group ordinal a probe
	// span belongs to (not a counter — set once, used to attribute the
	// probe's candidate/false-positive counts to its group in index
	// health reports).
	AGroupIndex
	// APagesPrefetched counts pages delivered by the tail of a batched
	// run read (the first page of a run counts as APagesRead).
	APagesPrefetched
	// ASkippedLB counts candidates rejected by the DFT-prefix lower
	// bound before their record page was fetched. A range probe's bound
	// runs in the leaf scan, so the filter span carries it, with the
	// per-tier split and ALBNanos; the probe span repeats the total. An
	// NN probe has no filter span and carries all of it itself.
	ASkippedLB
	// AAbandoned counts distance evaluations cut short by the
	// early-abandoning cutoff (each still counts in AComparisons).
	AAbandoned
	// ASkippedLB0 counts the ASkippedLB dismissals decided by tier 0 of
	// the lower-bound cascade (cosine-free magnitude-gap bound).
	ASkippedLB0
	// ASkippedLB1 counts dismissals decided by tier 1 (exact first
	// coefficient, shared Sincos).
	ASkippedLB1
	// ASkippedLB2 counts dismissals that needed the full DFT-prefix
	// bound (tier 2).
	ASkippedLB2
	// ALBNanos is the wall time, in nanoseconds, a range probe's filter
	// stage spent on the lower bound: building it, then one timed pass
	// per leaf over the entries that leaf admitted. It is part of the
	// filter span's duration.
	ALBNanos
	// AAllocBytes is the heap allocation (bytes) attributed to the query
	// by the resource-attribution sampler; process-wide totals sampled
	// around the query, so concurrent queries overlap (see attr.go).
	AAllocBytes
	// AMallocs is the heap object count attributed to the query.
	AMallocs
	// AGCCycles counts GC cycles that completed during the query.
	AGCCycles
	// AGCPauseNs is the stop-the-world pause time (ns) that elapsed
	// during the query.
	AGCPauseNs
	// AShard is the shard ordinal a scatter-gather probe ran in. Only
	// set when the DB has more than one shard, so single-shard traces
	// are unchanged.
	AShard
	// ATerms counts the coefficient terms the span's AComparisons summed
	// (verify, NN probe and scan spans): n per completed full-order sum, n/2+1
	// under a symmetric transformation, fewer after an abandon.
	ATerms

	numAttrs = int(ATerms) + 1
)

// String names the attribute as rendered in the span tree.
func (a Attr) String() string {
	switch a {
	case ANodes:
		return "nodes"
	case ALeaves:
		return "leaves"
	case APruned:
		return "pruned"
	case APrunedLB:
		return "pruned_lb"
	case APagesRead:
		return "pages_read"
	case ABufferHits:
		return "buf_hits"
	case ACandidates:
		return "candidates"
	case AComparisons:
		return "comparisons"
	case AMatches:
		return "matches"
	case AFalsePositives:
		return "false_pos"
	case ATransforms:
		return "transforms"
	case AGroupIndex:
		return "group"
	case APagesPrefetched:
		return "pages_prefetched"
	case ASkippedLB:
		return "candidates_skipped_lb"
	case AAbandoned:
		return "abandoned"
	case ASkippedLB0:
		return "skipped_lb_t0"
	case ASkippedLB1:
		return "skipped_lb_t1"
	case ASkippedLB2:
		return "skipped_lb_t2"
	case ALBNanos:
		return "lb_ns"
	case AAllocBytes:
		return "alloc_bytes"
	case AMallocs:
		return "mallocs"
	case AGCCycles:
		return "gc_cycles"
	case AGCPauseNs:
		return "gc_pause_ns"
	case AShard:
		return "shard"
	case ATerms:
		return "terms"
	default:
		return "attr"
	}
}

// Trace collects the spans of one (or several) queries. The zero of the
// pointer type is valid everywhere: a nil *Trace records nothing and
// allocates nothing.
type Trace struct {
	mu    sync.Mutex
	spans []*Span
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Span is one timed phase of a query with typed counters. A nil *Span
// is valid: every method no-ops.
type Span struct {
	trace  *Trace
	id     int32
	parent int32 // -1 for a root span
	kind   Kind
	label  string
	start  time.Time
	dur    time.Duration
	done   bool
	errMsg string
	set    uint32 // bitmask of assigned attrs
	attrs  [numAttrs]int64
}

func (t *Trace) newSpan(parent int32, kind Kind, label string) *Span {
	s := &Span{trace: t, parent: parent, kind: kind, label: label, start: time.Now()}
	t.mu.Lock()
	s.id = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Start opens a root span. Nil-safe.
func (t *Trace) Start(kind Kind, label string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(-1, kind, label)
}

// Spans returns a snapshot of the recorded spans in creation order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Sum totals attribute a over every span of the given kind — the
// cross-check API: e.g. Sum(KindProbe, APagesRead) must equal the
// storage manager's read delta for the traced query.
func (t *Trace) Sum(kind Kind, a Attr) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if s.kind == kind {
			total += s.attrs[a]
		}
	}
	return total
}

// subtree returns a trace of root and its descendants, the spans of one
// query when several share t (a traced batch, two calls on one context).
// The spans are shared, not copied: ids and parents stay t's, so the
// subtree renders, sums and encodes like a trace of its own. A child is
// created after its parent, so one pass from root in creation order finds
// them all.
func (t *Trace) subtree(root *Span) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[root.id:]
	in := make([]bool, len(spans))
	sub := &Trace{}
	for i, s := range spans {
		if i == 0 || s.parent >= root.id && in[s.parent-root.id] {
			in[i] = true
			sub.spans = append(sub.spans, s)
		}
	}
	return sub
}

// Child opens a sub-span. Nil-safe.
func (s *Span) Child(kind Kind, label string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(s.id, kind, label)
}

// Set assigns attribute a. Nil-safe.
func (s *Span) Set(a Attr, v int64) {
	if s == nil {
		return
	}
	s.attrs[a] = v
	s.set |= 1 << a
}

// Add accumulates into attribute a. Nil-safe.
func (s *Span) Add(a Attr, v int64) {
	if s == nil {
		return
	}
	s.attrs[a] += v
	s.set |= 1 << a
}

// Get returns attribute a (0 when unset or s is nil).
func (s *Span) Get(a Attr) int64 {
	if s == nil {
		return 0
	}
	return s.attrs[a]
}

// Has reports whether attribute a was assigned on s. It distinguishes
// an explicit zero (e.g. group ordinal 0) from never-set.
func (s *Span) Has(a Attr) bool {
	return s != nil && s.set&(1<<a) != 0
}

// End closes the span successfully. Nil-safe; the first End wins.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span, recording err's message as its error status
// when non-nil. Nil-safe; the first close wins.
func (s *Span) EndErr(err error) {
	if s == nil || s.done {
		return
	}
	s.dur = time.Since(s.start)
	s.done = true
	if err != nil {
		s.errMsg = err.Error()
	}
}

// Done reports whether the span was closed.
func (s *Span) Done() bool { return s != nil && s.done }

// Err returns the span's error status ("" when none).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	return s.errMsg
}

// Kind returns the span's kind.
func (s *Span) Kind() Kind {
	if s == nil {
		return KindQuery
	}
	return s.kind
}

// Label returns the span's label.
func (s *Span) Label() string {
	if s == nil {
		return ""
	}
	return s.label
}

// Duration returns the span's wall time (0 until closed).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Context propagation. Traces and spans travel in a context.Context;
// absent keys yield nil, which downstream instrumentation treats as
// "tracing off".

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches tr to ctx.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the trace in ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// ContextWithSpan attaches sp to ctx as the current parent span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current parent span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
