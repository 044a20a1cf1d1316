package main

// The traced run's instrumentation. Every span is recorded by a wrapper
// in this package around a public interface of the program (sched.Filter,
// sched.Heuristic, server.Placement, the http.Handler, each sim.Run call);
// nothing is traced inside the program. Spans stay in memory and are
// written out when the run ends.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/workload"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin. Task/At identify the mapping decision a sched
// span belongs to (the task id and virtual arrival the HTTP response
// echoes), so serving spans can be joined to client requests after the run.
type span struct {
	ID     int64
	Parent int64
	Name   string
	Start  int64
	End    int64
	Task   int64 // -1 when the span is not part of a decision
	At     float64
}

func (s *span) dur() int64 { return s.End - s.Start }

// agg is the running total for one span name.
type agg struct {
	Count int64
	Sum   int64 // ns
}

// tracer collects spans from many goroutines. Aggregates cover every span;
// individual spans are kept up to maxStored and counted as dropped beyond.
type tracer struct {
	origin    time.Time
	ids       atomic.Int64
	maxStored int

	mu      sync.Mutex
	spans   []span
	dropped int64
	totals  map[string]*agg
	durs    map[string][]float64 // per-span durations (ms) for names that need percentiles
}

func newTracer(maxStored int, keepDurations ...string) *tracer {
	t := &tracer{origin: time.Now(), maxStored: maxStored,
		totals: map[string]*agg{}, durs: map[string][]float64{}}
	for _, n := range keepDurations {
		t.durs[n] = nil
	}
	return t
}

func (t *tracer) now() int64   { return int64(time.Since(t.origin)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record adds one finished span; store=false aggregates it without keeping
// the span itself.
func (t *tracer) record(s span, store bool) {
	t.mu.Lock()
	t.addLocked(s, store)
	t.mu.Unlock()
}

func (t *tracer) addLocked(s span, store bool) {
	a := t.totals[s.Name]
	if a == nil {
		a = &agg{}
		t.totals[s.Name] = a
	}
	a.Count++
	a.Sum += s.dur()
	if d, ok := t.durs[s.Name]; ok {
		t.durs[s.Name] = append(d, float64(s.dur())/1e6)
	}
	if !store {
		return
	}
	if len(t.spans) >= t.maxStored {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// total returns the summed duration (s) and count of one span name.
func (t *tracer) total(name string) (float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.totals[name]; a != nil {
		return float64(a.Sum) / 1e9, a.Count
	}
	return 0, 0
}

// durations returns the recorded per-span durations (ms) of one name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

// writeSpans writes a header line and then every stored span as one JSON
// object per line.
func (t *tracer) writeSpans(out io.Writer, label string) error {
	w := bufio.NewWriter(out)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	fmt.Fprintf(w, "{\"format\":\"perfbench-spans/v1\",\"label\":%q,\"stored\":%d,\"dropped\":%d}\n", label, len(spans), dropped)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d", s.ID, s.Parent, s.Name, s.Start, s.End)
		if s.Task >= 0 {
			fmt.Fprintf(w, ",\"task\":%d,\"at\":%v", s.Task, s.At)
		}
		fmt.Fprintln(w, "}")
	}
	return w.Flush()
}

// decisionTrace turns the filter and heuristic calls of one mapping
// goroutine (a simulated trial or a server shard's engine loop) into
// per-decision spans without reading the clock per candidate: a filter
// pass opens on its first Keep call and closes when the next pass, the
// heuristic's Choose, or a discard notification begins. It is confined to
// one goroutine; spans accumulate locally and reach the tracer on flush.
type decisionTrace struct {
	tr     *tracer
	parent int64
	store  bool

	ctx   *sched.Context
	stage int // index of the open filter pass, -1 when none
	start int64
	names []string

	buf []span
}

func newDecisionTrace(tr *tracer, parent int64, store bool) *decisionTrace {
	return &decisionTrace{tr: tr, parent: parent, store: store, stage: -1}
}

// enter opens filter pass idx of the decision ctx, closing any open pass.
func (d *decisionTrace) enter(ctx *sched.Context, idx int) {
	now := d.tr.now()
	d.close(now)
	d.ctx, d.stage, d.start = ctx, idx, now
}

// close ends the open filter pass at now.
func (d *decisionTrace) close(now int64) {
	if d.stage < 0 {
		return
	}
	d.add(d.names[d.stage], d.start, now)
	d.stage = -1
}

func (d *decisionTrace) add(name string, start, end int64) {
	task, at := int64(-1), 0.0
	if d.ctx != nil {
		task, at = int64(d.ctx.Task.ID), d.ctx.Now
	}
	d.buf = append(d.buf, span{Parent: d.parent, Name: name, Start: start, End: end, Task: task, At: at})
}

// discarded closes the open pass of a decision that ended without a
// heuristic choice (every candidate filtered out).
func (d *decisionTrace) discarded() { d.close(d.tr.now()) }

// flush hands the buffered spans to the tracer.
func (d *decisionTrace) flush() {
	d.tr.mu.Lock()
	for _, s := range d.buf {
		if d.store {
			s.ID = d.tr.newID()
		}
		d.tr.addLocked(s, d.store)
	}
	d.tr.mu.Unlock()
	d.buf = d.buf[:0]
}

// tracedFilter times its pass of the filter chain.
type tracedFilter struct {
	sched.Filter
	d   *decisionTrace
	idx int
}

func (f *tracedFilter) Keep(ctx *sched.Context, c *sched.Candidate) bool {
	if f.d.stage != f.idx || f.d.ctx != ctx {
		f.d.enter(ctx, f.idx)
	}
	return f.Filter.Keep(ctx, c)
}

// tracedHeuristic times Choose and closes the decision's last filter pass.
type tracedHeuristic struct {
	sched.Heuristic
	d *decisionTrace
}

func (h *tracedHeuristic) Choose(ctx *sched.Context, feasible []*sched.Candidate) *sched.Candidate {
	start := h.d.tr.now()
	h.d.close(start)
	h.d.ctx = ctx
	c := h.Heuristic.Choose(ctx, feasible)
	h.d.add("sched.choose", start, h.d.tr.now())
	return c
}

// tracedMapper returns a copy of m whose heuristic and filters report to d.
// Names, NeedsRho and decisions are unchanged, so the mapper behaves
// exactly like m.
func tracedMapper(m *sched.Mapper, d *decisionTrace) *sched.Mapper {
	out := &sched.Mapper{Heuristic: &tracedHeuristic{Heuristic: m.Heuristic, d: d}}
	d.names = make([]string, len(m.Filters))
	for i, f := range m.Filters {
		d.names[i] = "sched.filter." + f.Name()
		out.Filters = append(out.Filters, &tracedFilter{Filter: f, d: d, idx: i})
	}
	return out
}

// discardObserver forwards the one simulation event the decision trace
// needs: a task discarded because every candidate was filtered out (the
// serving engine reports its sheds the same way).
type discardObserver struct{ d *decisionTrace }

func (o discardObserver) TaskMapped(float64, workload.Task, sched.Assignment)         {}
func (o discardObserver) TaskDiscarded(float64, workload.Task)                        { o.d.discarded() }
func (o discardObserver) TaskStarted(float64, workload.Task, sched.Assignment)        {}
func (o discardObserver) TaskFinished(float64, workload.Task, sched.Assignment, bool) {}
func (o discardObserver) PStateChanged(float64, cluster.CoreID, cluster.PState)       {}
func (o discardObserver) EnergyExhausted(float64)                                     {}

// tracedPlacement times the router's shard choice.
type tracedPlacement struct {
	server.Placement
	tr *tracer
}

func (p *tracedPlacement) Choose(cands []*server.ShardCandidate) *server.ShardCandidate {
	start := p.tr.now()
	c := p.Placement.Choose(cands)
	p.tr.record(span{ID: p.tr.newID(), Name: "router.place", Start: start, End: p.tr.now(), Task: -1}, true)
	return c
}

// requestHeader carries the client request's span id to the handler
// wrapper, which removes it before the program sees the request. Untraced
// runs send no such header.
const requestHeader = "X-Perfbench-Req"

// tracedHandler times the program's HTTP handler per request.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req int64
	fmt.Sscan(r.Header.Get(requestHeader), &req)
	r.Header.Del(requestHeader)
	start := t.tr.now()
	t.h.ServeHTTP(w, r)
	t.tr.record(span{ID: t.tr.newID(), Parent: req, Name: "http.handler", Start: start, End: t.tr.now(), Task: -1}, true)
}
