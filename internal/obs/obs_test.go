package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tc := tr.Start("GET /x")
	if tc != nil {
		t.Fatalf("nil tracer minted a trace")
	}
	if got := tc.ID(); got != "" {
		t.Fatalf("nil trace ID = %q", got)
	}
	sp := tc.Root()
	if sp != nil {
		t.Fatalf("nil trace has a root span")
	}
	// The whole instrumented surface must be callable on nil.
	c := sp.Child(StageMondrian, "mondrian")
	if c != nil {
		t.Fatalf("nil span handed out a real child")
	}
	c.StartStage(StagePriors).End()
	c.End()
	c.SetOutcome("hit")
	if c.Outcome() != "" {
		t.Fatalf("nil span retained state")
	}
	tc.SetStatus(200)
	tc.Finish()
	var g *Stages
	g.Observe(StagePriors, time.Millisecond)
	if snap := g.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil stages snapshot = %v", snap)
	}
	if Breakdown(nil) != nil {
		t.Fatalf("nil breakdown non-nil")
	}
	var r *Ring
	r.Add(nil)
	if r.Snapshot(0, "") != nil {
		t.Fatalf("nil ring snapshot non-nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatalf("empty context produced a span")
	}
	tr := NewTracer(4)
	tc := tr.Start("POST /v1/anonymize")
	ctx := ContextWithSpan(context.Background(), tc.Root())
	if SpanFromContext(ctx) != tc.Root() {
		t.Fatalf("span did not round-trip through context")
	}
	// A nil span must not poison the context chain.
	if got := SpanFromContext(ContextWithSpan(context.Background(), nil)); got != nil {
		t.Fatalf("nil span round-tripped as %v", got)
	}
}

func TestSpanTreeAndBreakdown(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.Start("POST /v1/anonymize")
	root := tc.Root()
	p := root.Child(StageNone, "pipeline")
	p.StartStage(StagePriors).End()
	p.StartStage(StagePriors).End()
	p.StartStage(StageMondrian).End()
	p.End()
	tc.SetStatus(200)
	tc.Finish()

	bd := Breakdown(root)
	want := map[string]int64{"mondrian": 1, "priors": 2}
	if len(bd) != len(want) {
		t.Fatalf("breakdown = %+v, want stages %v", bd, want)
	}
	for _, st := range bd {
		if want[st.Stage] != st.Count {
			t.Errorf("stage %s count = %d, want %d", st.Stage, st.Count, want[st.Stage])
		}
		if st.Seconds < 0 {
			t.Errorf("stage %s has negative seconds", st.Stage)
		}
	}
	// The same passes landed in the aggregate ledger.
	snap := tr.Stages().Snapshot()
	if snap["priors"].Count != 2 || snap["mondrian"].Count != 1 {
		t.Fatalf("stages ledger = %v", snap)
	}
	if _, ok := snap["inference"]; ok {
		t.Fatalf("unobserved stage present in snapshot")
	}
}

func TestTraceIDsAreSequential(t *testing.T) {
	tr := NewTracer(4)
	a, b := tr.Start("GET /a"), tr.Start("GET /b")
	if a.ID() != "req_1" || b.ID() != "req_2" {
		t.Fatalf("ids = %q, %q, want req_1, req_2", a.ID(), b.ID())
	}
	j := tr.StartNamed("job_0000002a", "job anonymize")
	if j.ID() != "job_0000002a" {
		t.Fatalf("named id = %q", j.ID())
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Hour, histBuckets - 1}, // overflow clamps to the top bin
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	var h Hist
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Hour)
	if n := h.count.Load(); n != 3 {
		t.Fatalf("count = %d", n)
	}
	if c := h.bucket[10].Load(); c != 2 {
		t.Fatalf("millisecond bin = %d, want 2", c)
	}
}

// TestStagesConcurrent hammers one ledger from many goroutines while
// snapshotting — the -race check for the mutex-free histograms.
func TestStagesConcurrent(t *testing.T) {
	g := &Stages{}
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Observe(StagePriors, time.Duration(w*i)*time.Microsecond)
				if i%100 == 0 {
					g.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := g.Snapshot()
	if snap["priors"].Count != workers*per {
		t.Fatalf("count = %d, want %d", snap["priors"].Count, workers*per)
	}
	var inBuckets int64
	for _, b := range snap["priors"].Buckets {
		inBuckets += b.Count
	}
	if inBuckets != workers*per {
		t.Fatalf("bucket sum = %d, want %d", inBuckets, workers*per)
	}
}

// TestSpanChildrenConcurrent attaches children from many goroutines —
// the singleflight-leader and worker-pool shape — under -race.
func TestSpanChildrenConcurrent(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.Start("POST /v1/attack")
	root := tc.Root()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.StartStage(StageInference).End()
		}()
	}
	wg.Wait()
	tc.Finish()
	views := tr.Ring().Snapshot(0, "")
	if len(views) != 1 || len(views[0].Spans) != workers {
		t.Fatalf("trace view = %+v, want %d child spans", views, workers)
	}
}

func TestRingBoundAndOrder(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tc := tr.Start("GET /x")
		tc.Finish()
	}
	views := tr.Ring().Snapshot(0, "")
	if len(views) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(views))
	}
	// Newest first; the two oldest were evicted.
	if views[0].ID != "req_5" || views[2].ID != "req_3" {
		t.Fatalf("ring order = [%s %s %s]", views[0].ID, views[1].ID, views[2].ID)
	}
}

// TestShapeFlowsToReservoirAndView: a SetShape before End lands the
// (shape, duration) pair in the stage reservoir and the shape on the
// rendered span view; unannotated spans do neither.
func TestShapeFlowsToReservoirAndView(t *testing.T) {
	tr := NewTracer(4)
	tc := tr.Start("POST /v1/attack")
	sh := Shape{Rows: 1000, Profiles: 250, Dims: 4, Lanes: 2}
	sp := tc.Root().StartStage(StagePriors)
	sp.SetShape(sh)
	sp.End()
	tc.Root().StartStage(StageInference).End() // unannotated
	tc.Finish()

	got := tr.Stages().Samples(StagePriors)
	if len(got) != 1 || got[0].Shape != sh {
		t.Fatalf("priors reservoir = %+v, want one sample with %+v", got, sh)
	}
	if got[0].Micros < 0 {
		t.Fatalf("negative duration in reservoir: %+v", got[0])
	}
	if s := tr.Stages().Samples(StageInference); len(s) != 0 {
		t.Fatalf("unannotated pass entered the reservoir: %+v", s)
	}
	// Both passes still count in the histogram ledger.
	snap := tr.Stages().Snapshot()
	if snap["priors"].Count != 1 || snap["inference"].Count != 1 {
		t.Fatalf("ledger = %v", snap)
	}
	views := tr.Ring().Snapshot(0, "")
	if len(views) != 1 || len(views[0].Spans) != 2 {
		t.Fatalf("trace view = %+v", views)
	}
	if views[0].Spans[0].Shape == nil || *views[0].Spans[0].Shape != sh {
		t.Fatalf("priors span view shape = %+v, want %+v", views[0].Spans[0].Shape, sh)
	}
	if views[0].Spans[1].Shape != nil {
		t.Fatalf("unannotated span view carries a shape: %+v", views[0].Spans[1])
	}
	// Nil-safety of the new surface.
	var nilSpan *Span
	nilSpan.SetShape(sh)
	var g *Stages
	g.ObserveShaped(StagePriors, sh, time.Millisecond)
	if g.Samples(StagePriors) != nil {
		t.Fatal("nil stages returned samples")
	}
}

// TestReservoirRingEviction: past ReservoirCap samples the oldest are
// displaced, and samples() returns insertion order.
func TestReservoirRingEviction(t *testing.T) {
	g := &Stages{}
	for i := 0; i < ReservoirCap+10; i++ {
		g.ObserveShaped(StageMondrian, Shape{Rows: i + 1}, time.Microsecond)
	}
	got := g.Samples(StageMondrian)
	if len(got) != ReservoirCap {
		t.Fatalf("reservoir size = %d, want %d", len(got), ReservoirCap)
	}
	if got[0].Shape.Rows != 11 || got[len(got)-1].Shape.Rows != ReservoirCap+10 {
		t.Fatalf("window = [%d..%d], want [11..%d]",
			got[0].Shape.Rows, got[len(got)-1].Shape.Rows, ReservoirCap+10)
	}
}

// TestRingOpFilterAndFind: Snapshot's op filter narrows to one
// endpoint and Find resolves a retained id (and only a retained id).
func TestRingOpFilterAndFind(t *testing.T) {
	tr := NewTracer(8)
	tr.Start("GET /a").Finish()
	tr.Start("POST /v1/attack").Finish()
	tr.Start("GET /a").Finish()

	views := tr.Ring().Snapshot(0, "GET /a")
	if len(views) != 2 {
		t.Fatalf("op filter kept %d traces, want 2: %+v", len(views), views)
	}
	for _, v := range views {
		if v.Op != "GET /a" {
			t.Fatalf("op filter leaked %+v", v)
		}
	}
	if len(tr.Ring().Snapshot(0, "DELETE /nope")) != 0 {
		t.Fatal("unknown op matched traces")
	}

	v, ok := tr.Ring().Find("req_2")
	if !ok || v.Op != "POST /v1/attack" {
		t.Fatalf("Find(req_2) = %+v, %v", v, ok)
	}
	if _, ok := tr.Ring().Find("req_99"); ok {
		t.Fatal("Find matched an unretained id")
	}
	var r *Ring
	if _, ok := r.Find("req_1"); ok {
		t.Fatal("nil ring found a trace")
	}
}

func TestRingSlowFilter(t *testing.T) {
	tr := NewTracer(8)
	fast := tr.Start("GET /fast")
	fast.Finish()
	slow := tr.StartNamed("req_slow", "GET /slow")
	slow.Root().dur = 0 // Finish overwrites; set after
	slow.Finish()
	slow.Root().dur = 50 * time.Millisecond
	// Rebuild the view with the forced duration.
	tr.Ring().Add(slow)
	views := tr.Ring().Snapshot(10*time.Millisecond, "")
	for _, v := range views {
		if v.DurMilli < 10 {
			t.Fatalf("filter kept fast trace %+v", v)
		}
	}
	found := false
	for _, v := range views {
		if v.ID == "req_slow" {
			found = true
		}
	}
	if !found {
		t.Fatalf("filter dropped the slow trace: %+v", views)
	}
}
