package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveSpec describes one serving workload.
type serveSpec struct {
	name    string
	durable bool // WAL + checkpoints, behind a 2-shard router
	// limitMs is the fixed client-side p99 latency limit a ladder rung
	// must meet to count towards capacity_rps.
	limitMs float64
	// ladder is the fixed set of time scales (virtual units per wall
	// second) one window replays at, ascending; latency is reported at
	// each, and capacity_rps is the highest that meets limitMs.
	ladder []float64
	// nominal is the scale of the replays whose latency and on-time
	// fraction are the end-to-end metrics; it is one of the ladder's.
	nominal float64
	// satScale and satWindows define the saturation rung: satWindows
	// windows offered far faster than two connections can carry.
	satScale   float64
	satWindows int
}

// serveConns is the client's connection count: at most nproc (2 on the
// reference host) so client and server threads stay within the machine.
const serveConns = 2

// serveBudgetScale sizes the energy budget against ζ_max (t_avg·p_avg·1000):
// a 1000-task stream under LL+en+rob consumes about 1.4 ζ_max, so 2 ζ_max
// never halts a healthy run while the energy filter still prunes.
const serveBudgetScale = 2

// serveWorld is what every rung shares: the paper's model and the policy.
type serveWorld struct {
	model  *workload.Model
	budget float64
	seed   uint64
	outDir string
}

func newServeWorld(seed uint64, outDir string) (*serveWorld, error) {
	spec := experiment.PaperSpec()
	spec.BudgetScale = serveBudgetScale
	model, budget, err := experiment.BuildModelFromSpec(spec)
	if err != nil {
		return nil, err
	}
	return &serveWorld{model: model, budget: budget, seed: seed, outDir: outDir}, nil
}

func paperMapper() *sched.Mapper {
	return &sched.Mapper{Heuristic: sched.LightestLoad{}, Filters: sched.EnergyAndRobustness.Filters()}
}

// serveTarget is one running engine (or router) behind a loopback listener.
type serveTarget struct {
	eng    *server.Engine
	rt     *server.Router
	hs     *http.Server
	addr   string
	reg    *metrics.Registry
	traces []*decisionTrace
	served chan error
}

// startTarget builds the engine or router, wraps it in the HTTP API and
// binds a loopback listener: the work setup_s times.
func (w *serveWorld) startTarget(spec serveSpec, rc rungCfg) (*serveTarget, error) {
	tr := rc.tr
	t := &serveTarget{reg: metrics.NewRegistry(), served: make(chan error, 1)}
	cfg := server.Config{
		Model:     w.model,
		Mapper:    paperMapper(),
		Budget:    rc.budget,
		TimeScale: rc.scale,
		Metrics:   t.reg,
		Seed:      w.seed,
	}
	if rc.clock != nil {
		cfg.Clock = rc.clock
	}
	trace := func(cfg *server.Config) {
		if tr == nil {
			return
		}
		d := newDecisionTrace(tr, 0, true)
		t.traces = append(t.traces, d)
		cfg.Mapper = tracedMapper(cfg.Mapper, d)
		cfg.Observer = discardObserver{d}
	}
	var api *server.Server
	if spec.durable {
		if err := os.MkdirAll(rc.walDir, 0o755); err != nil {
			return nil, err
		}
		cfg.WALPath = filepath.Join(rc.walDir, "wal")
		cfg.CheckpointPath = filepath.Join(rc.walDir, "ckpt")
		cfg.CheckpointEvery = checkpointEvery
		var place server.Placement = &server.RoundRobinPlacement{}
		if tr != nil {
			place = &tracedPlacement{Placement: place, tr: tr}
		}
		rt, err := server.NewSharded(cfg, durableShards, server.RouterConfig{
			Placement: place,
			Metrics:   t.reg,
			Shape:     func(_ int, c *server.Config) { trace(c) },
		})
		if err != nil {
			return nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		t.rt = rt
		api = server.NewRouterServer(rt, false)
	} else {
		trace(&cfg)
		eng, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		t.eng = eng
		api = server.NewServer(eng)
	}
	var h http.Handler = api
	if tr != nil {
		h = &tracedHandler{h: api, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.addr = ln.Addr().String()
	t.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// durableShards is the serve-durable router's shard count.
const durableShards = 2

// checkpointEvery is ecserve's default checkpoint period. A checkpoint
// stalls its shard's engine loop for tens of milliseconds on the reference
// host, so a shorter period would make checkpoints, not admission, the
// latency tail.
const checkpointEvery = 5 * time.Second

// drain finishes all admitted and in-flight work, then stops the listener.
func (t *serveTarget) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if t.rt != nil {
		err = t.rt.Drain(ctx)
	} else {
		err = t.eng.Drain(ctx)
	}
	return errors.Join(err, t.stopHTTP())
}

func (t *serveTarget) stopHTTP() error {
	if t.hs == nil {
		return nil
	}
	err := t.hs.Close()
	if serr := <-t.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	t.hs = nil
	return err
}

// close abandons the target (error paths).
func (t *serveTarget) close() {
	_ = t.stopHTTP()
	if t.rt != nil {
		t.rt.Close()
	}
	if t.eng != nil {
		t.eng.Close()
	}
}

func (t *serveTarget) stats() server.Stats {
	if t.rt != nil {
		return t.rt.Stats()
	}
	return t.eng.Stats()
}

// rungCfg is how one rung runs: the time scale, the energy budget, where
// the WAL goes (serve-durable) and the tracer (traced phase only).
type rungCfg struct {
	scale  float64
	budget float64
	walDir string
	tr     *tracer
	// clock, when set, replaces the engine's RealClock: the client moves
	// it to each request's place in the stream just before sending it, so
	// the virtual workload is the stream's whatever the wall-clock pace.
	clock *server.ManualClock
}

// rung is the outcome of one replay of a stream at one time scale. The
// per-request records are summarized as soon as the replay ends, so the
// benchmark's own memory does not grow with the number of replays and
// leak into heap_peak_mb.
type rung struct {
	scale float64
	rate  float64 // offered mean rate, requests per wall second
	setup time.Duration

	sent, failed int
	noResponse   int     // requests that got no HTTP response at all
	p50, p99     float64 // latency from the due time, ms; a failure is +Inf
	lagP99       float64 // generator lag, ms
	// backlogMs is how long after the last request fell due the last
	// answer arrived: a backlog still growing at the end of the schedule
	// shows as a long tail here.
	backlogMs float64
	// answerRate is answered requests per second from the first due time
	// to the last answer.
	answerRate float64
	// heapMB is the live heap after a full collection at the end of the
	// schedule, while the engine still holds the replay's tasks.
	heapMB float64

	stats    server.Stats
	budget   float64
	snap     *metrics.Snapshot
	ops      pmf.OpCounts
	walBytes int64
	// checkpointMs is the wall time of each shard's CheckpointNow call
	// after the schedule (serve-durable).
	checkpointMs []float64
	tr           *tracer // traced phase only
}

// summarize fills the rung's request statistics from the client records.
func (r *rung) summarize(out []reqOutcome) {
	lat := make([]float64, len(out))
	lag := make([]float64, len(out))
	var lastDue, lastDone time.Duration
	for i := range out {
		o := &out[i]
		lat[i] = math.Inf(1)
		if o.answered() {
			lat[i] = float64(o.latency()) / 1e6
		} else {
			r.failed++
		}
		if o.err != nil || o.status == 0 {
			r.noResponse++
		}
		lag[i] = float64(o.sendLag()) / 1e6
		lastDue = max(lastDue, o.due)
		lastDone = max(lastDone, o.done)
	}
	r.sent = len(out)
	r.p50 = median(lat)
	r.p99 = math.Inf(1)
	if t, ok := tailPercentile(lat, 0.99); ok {
		r.p99 = t.Value
	}
	if t, ok := tailPercentile(lag, 0.99); ok {
		r.lagP99 = t.Value
	}
	r.backlogMs = float64(lastDone-lastDue) / 1e6
	r.answerRate = float64(r.sent-r.failed) / (lastDone - out[0].due).Seconds()
}

// runRung replays one stream at one scale against a fresh target.
func (w *serveWorld) runRung(spec serveSpec, stream []streamReq, rc rungCfg) (*rung, error) {
	tr, scale := rc.tr, rc.scale
	t0 := time.Now()
	t, err := w.startTarget(spec, rc)
	if err != nil {
		return nil, err
	}
	r := &rung{scale: scale, setup: time.Since(t0), budget: rc.budget, tr: tr}
	r.rate = float64(len(stream)) / (stream[len(stream)-1].at / scale)
	opsBase := pmf.ReadOpCounts()
	opts := replayOpts{addr: t.addr, scale: scale, conns: serveConns}
	var clientIDs []int64
	if tr != nil {
		clientIDs = make([]int64, len(stream))
		for i := range clientIDs {
			clientIDs[i] = tr.newID()
		}
		opts.spanID = func(i int) int64 { return clientIDs[i] }
	}
	if clk := rc.clock; clk != nil {
		var mu sync.Mutex
		opts.beforeSend = func(i int) {
			mu.Lock()
			if d := stream[i].at - clk.Now(); d > 0 {
				clk.Advance(d)
			}
			mu.Unlock()
		}
	}
	origin := time.Now()
	out, err := replay(stream, opts)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("replay at scale %g: %w", scale, err)
	}
	r.summarize(out)
	// The engine now holds the whole schedule's state. A full collection
	// measures what it retains; the live heap a background GC reports
	// would also count whatever the replay allocated while that GC ran.
	runtime.GC()
	r.heapMB = float64(readUint64(heapLiveMetric)) / (1 << 20)
	if t.rt != nil {
		// One checkpoint per shard after the schedule, outside every
		// latency window: its cost is a per-layer figure, and recovery
		// then restores a checkpoint and replays the WAL suffix.
		for _, sh := range t.rt.Shards() {
			c0 := time.Now()
			if err := sh.Engine().CheckpointNow(); err != nil {
				t.close()
				return nil, fmt.Errorf("checkpoint at scale %g: %w", scale, err)
			}
			r.checkpointMs = append(r.checkpointMs, float64(time.Since(c0))/1e6)
		}
	}
	if err := t.drain(); err != nil {
		t.close()
		return nil, fmt.Errorf("drain at scale %g: %w", scale, err)
	}
	r.ops = pmf.ReadOpCounts().Sub(opsBase)
	r.stats = t.stats()
	r.snap = t.reg.Snapshot()
	if spec.durable {
		if r.walBytes, err = walBytes(rc.walDir); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		recordClientSpans(tr, origin, out, clientIDs, t.traces)
	}
	return r, nil
}

// recordClientSpans records one span per client request (due time to
// answer) and joins the decision spans of every engine to the request
// whose response carried their task id and arrival.
func recordClientSpans(tr *tracer, origin time.Time, out []reqOutcome, ids []int64, traces []*decisionTrace) {
	base := int64(origin.Sub(tr.origin))
	type key struct {
		id int64
		at float64
	}
	parent := map[key]int64{}
	for i := range out {
		o := &out[i]
		tr.record(span{ID: ids[i], Name: "client.request", Start: base + int64(o.due), End: base + int64(o.done), Task: -1}, true)
		if o.answered() {
			parent[key{int64(o.taskID), o.arrival}] = ids[i]
		}
	}
	for _, d := range traces {
		for k := range d.buf {
			s := &d.buf[k]
			s.Parent = parent[key{s.Task, s.At}]
		}
		d.flush()
	}
}

// walBytes sums the sizes of the WAL files under dir.
func walBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "wal") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// checkRung is the serving correctness gate: every request got a
// response, the terminal accounting balances, and consumed energy stays
// within the budget.
func checkRung(r *rung) error {
	if r.noResponse > 0 {
		return fmt.Errorf("scale %g: %d of %d requests got no response", r.scale, r.noResponse, r.sent)
	}
	if !r.stats.Balanced() {
		return fmt.Errorf("scale %g: accounting does not balance: %+v", r.scale, r.stats)
	}
	if r.stats.InFlight != 0 {
		return fmt.Errorf("scale %g: %d task(s) still in flight after drain", r.scale, r.stats.InFlight)
	}
	if r.stats.Received != int64(r.sent) {
		return fmt.Errorf("scale %g: server received %d requests, client sent %d", r.scale, r.stats.Received, r.sent)
	}
	if r.stats.EnergyConsumed > r.budget*(1+1e-12) {
		return fmt.Errorf("scale %g: consumed %v exceeds budget %v", r.scale, r.stats.EnergyConsumed, r.budget)
	}
	return nil
}

// checkRecovery recovers a fresh router from the live run's WALs and
// checkpoints, drains it offline, and requires the live run's decisions.
func (w *serveWorld) checkRecovery(r *rung, walDir string) error {
	cfg := server.Config{
		Model:          w.model,
		Mapper:         paperMapper(),
		Budget:         r.budget,
		TimeScale:      r.scale,
		Seed:           w.seed,
		WALPath:        filepath.Join(walDir, "wal"),
		CheckpointPath: filepath.Join(walDir, "ckpt"),
	}
	rt, err := server.NewSharded(cfg, durableShards, server.RouterConfig{})
	if err != nil {
		return err
	}
	if _, err := rt.RecoverAll(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := rt.DrainAllNow(); err != nil {
		return fmt.Errorf("drain recovered router: %w", err)
	}
	got, live := rt.Stats(), r.stats
	if got.Mapped != live.Mapped || got.Shed != live.Shed || got.OnTime != live.OnTime {
		return fmt.Errorf("recovered mapped/shed/on-time %d/%d/%d, live run %d/%d/%d",
			got.Mapped, got.Shed, got.OnTime, live.Mapped, live.Shed, live.OnTime)
	}
	return nil
}
