package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func paperModel(t *testing.T) *serveWorld {
	t.Helper()
	w, err := newServeWorld(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStreamDeterministic: the same seed gives the same arrival schedule
// and bodies; another seed gives another schedule.
func TestStreamDeterministic(t *testing.T) {
	w := paperModel(t)
	a, err := paperStream(7, w.model, "s", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := paperStream(7, w.model, "s", 2)
	c, _ := paperStream(8, w.model, "s", 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
	if len(a) != 2*w.model.Params.WindowSize {
		t.Fatalf("two windows gave %d requests, want %d", len(a), 2*w.model.Params.WindowSize)
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("request %d due at %v before request %d at %v", i, a[i].at, i-1, a[i-1].at)
		}
	}
}

// recorder is a stand-in API that records what it receives and answers
// like the program's POST /v1/tasks.
type recorder struct {
	mu      sync.Mutex
	bodies  []string
	headers []http.Header
	stall   time.Duration // the first request waits this long
	n       int
}

func (rc *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	rc.mu.Lock()
	rc.bodies = append(rc.bodies, string(body))
	rc.headers = append(rc.headers, r.Header.Clone())
	first := rc.n == 0
	id := rc.n
	rc.n++
	rc.mu.Unlock()
	if first {
		time.Sleep(rc.stall)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "mapped", "id": id, "arrival": float64(id)})
}

func serveRecorder(t *testing.T, rc *recorder) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: rc}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// TestReplaySendsOnlyGeneratedInputs: an untraced replay delivers exactly
// the generated bodies and no benchmark header.
func TestReplaySendsOnlyGeneratedInputs(t *testing.T) {
	w := paperModel(t)
	stream, err := paperStream(3, w.model, "s", 1)
	if err != nil {
		t.Fatal(err)
	}
	stream = stream[:200]
	rc := &recorder{}
	out, err := replay(stream, replayOpts{addr: serveRecorder(t, rc), scale: 1e6, conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, s := range stream {
		want = append(want, string(s.body))
	}
	got := append([]string(nil), rc.bodies...)
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server received %d bodies differing from the %d generated", len(got), len(want))
	}
	for i, h := range rc.headers {
		if h.Get(requestHeader) != "" {
			t.Fatalf("request %d carried the trace header in an untraced replay", i)
		}
	}
	for i := range out {
		if !out[i].answered() {
			t.Fatalf("request %d not answered: status %d err %v", i, out[i].status, out[i].err)
		}
	}
}

// TestLatencyFromDueTime: a stall on the only connection delays the
// requests due behind it, and their latency counts from when they were
// due, not from when they could be sent.
func TestLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	rc := &recorder{stall: stall}
	stream := make([]streamReq, 20)
	for i := range stream {
		stream[i] = streamReq{at: float64(i) * 1e-3, body: []byte(`{"type":0}`)}
	}
	out, err := replay(stream, replayOpts{addr: serveRecorder(t, rc), scale: 1, conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := out[len(out)-1]
	if want := stall - last.due; last.latency() < want {
		t.Fatalf("request due at %v answered %v after due, want at least %v: the stall was not counted", last.due, last.latency(), want)
	}
	if last.sendLag() > 5*time.Millisecond {
		t.Fatalf("generator handed the request over %v late; it must keep its schedule while the connection is busy", last.sendLag())
	}
}

// TestPercentileRefusesThinTail: a percentile needs ten samples beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, err := percentile(s, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(s[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) was not refused")
	}
	if _, err := percentile(s[:15], 0.5); err == nil {
		t.Fatal("p50 of 15 samples (7 beyond it) was not refused")
	}
	tl, ok := tailPercentile(s[:100], 0.99)
	if !ok || tl.P != 0.9 || tl.Value != 90 || tl.N != 100 {
		t.Fatalf("tail of 100 samples = %+v, %v; want p90 = 90", tl, ok)
	}
	if _, ok := tailPercentile(s[:10], 0.99); ok {
		t.Fatal("10 samples gave a tail percentile")
	}
}

// TestTracedFiguresMatchUntraced: wrapping every sim.Run, filter and
// heuristic call changes no decision: missed deadlines and the exact work
// counts equal the experiment harness's.
func TestTracedFiguresMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figures 2-5 twice at paper scale")
	}
	plain, _, err := runFigRound(5, 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := runFigRound(5, 2, newTracer(1<<16, "sim.run"), true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.missedPerTrial() != traced.missedPerTrial() {
		t.Fatalf("missed_per_trial: untraced %v, traced %v", plain.missedPerTrial(), traced.missedPerTrial())
	}
	for i := range plain.results {
		if !slices.Equal(plain.results[i].Missed, traced.results[i].Missed) {
			t.Fatalf("%s: missed %v untraced, %v traced", plain.results[i].Label, plain.results[i].Missed, traced.results[i].Missed)
		}
	}
	if plain.counts != traced.counts {
		t.Fatalf("exact counts differ:\nuntraced %+v\ntraced   %+v", plain.counts, traced.counts)
	}
	if plain.counts.Decisions == 0 || plain.counts.RhoEvals == 0 || plain.counts.GridConvs == 0 || plain.counts.Events == 0 {
		t.Fatalf("a work count is zero: %+v", plain.counts)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// BENCHMARK.json the runs are judged by.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i := range defs {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Fatalf("%s %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	for _, w := range doc.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not one of %v", w.Name, workloads)
		}
	}
}

// TestFiguresGateCatchesBadAccounting: the figures gate rejects an
// outcome partition that does not sum to the window.
func TestFiguresGateCatchesBadAccounting(t *testing.T) {
	r, fe, err := runFigRound(5, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFigures(fe, r); err != nil {
		t.Fatalf("healthy round failed the gate: %v", err)
	}
	bad := *r.results[0]
	bad.MeanLate++
	r.results[0] = &bad
	if err := checkFigures(fe, r); err == nil {
		t.Fatal("gate accepted outcomes that do not partition the window")
	}
}
