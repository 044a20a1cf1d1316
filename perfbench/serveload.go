package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// The two serving workloads. Every rung replays the paper's fast/slow/fast
// 1000-task windows at one time scale (virtual time units per wall
// second), so the offered wall rate grows with the scale while the virtual
// workload stays the same.
var (
	serveWorkload = serveSpec{
		name:       "serve",
		limitMs:    5,
		ladder:     []float64{2e4, 4e4, 8e4, 1.6e5},
		nominal:    2e4,
		satScale:   3.2e5,
		satWindows: 4,
	}
	serveDurableWorkload = serveSpec{
		name:       "serve-durable",
		durable:    true,
		limitMs:    20,
		ladder:     []float64{1e4, 2e4, 4e4, 8e4},
		nominal:    1e4,
		satScale:   3.2e5,
		satWindows: 4,
	}
)

// serveSetups is the number of extra engine (router) starts timed per
// phase, on top of one per rung, for setup_s.
const serveSetups = 20

// budget sizes a rung's energy budget: serveBudgetScale·ζ_max per window at
// the nominal scale, growing with the scale above it. A rung whose schedule
// the server cannot keep lets virtual time run while requests wait, and
// that idle draw must not halt the cluster: a slower server shows as
// latency, never as a planned energy failure.
func (spec serveSpec) budget(w *serveWorld, scale float64, windows int) float64 {
	return w.budget * float64(windows) * max(1, scale/spec.nominal)
}

// servePhase is one timed pass over a serving workload.
type servePhase struct {
	setups  []float64 // s
	ladder  []*rung   // one window at every ladder scale
	sat     []*rung   // satWindows windows at satScale
	nominal []*rung   // one window each at the nominal scale
	// stealFrac is the hypervisor's share of the machine's CPU time over
	// the phase.
	stealFrac float64
}

func (ph *servePhase) rungs() []*rung {
	out := append([]*rung(nil), ph.ladder...)
	out = append(out, ph.sat...)
	return append(out, ph.nominal[1:]...) // nominal[0] is a ladder rung
}

func (w *serveWorld) runPhase(spec serveSpec, o options, traced bool, rep *report) (*servePhase, error) {
	ph := &servePhase{}
	seq := 0
	walDir := func() string {
		seq++
		return filepath.Join(w.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), seq))
	}
	for i := 0; i < serveSetups; i++ {
		d, err := w.timeSetup(spec, rungCfg{scale: spec.nominal, budget: spec.budget(w, spec.nominal, 1), walDir: walDir()})
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, d.Seconds())
	}
	run := func(label string, scale float64, windows int, recovery bool) (*rung, error) {
		stream, err := paperStream(w.seed, w.model, label, windows)
		if err != nil {
			return nil, err
		}
		rc := rungCfg{scale: scale, budget: spec.budget(w, scale, windows), walDir: walDir()}
		if scale == spec.satScale {
			// Saturation runs on a manual clock moved by the client: at a
			// real clock's pace, a server falling behind would let more
			// virtual time, and so more work, pass per request, and the
			// answer rate would feed back on itself.
			rc.clock = server.NewManualClock()
			rc.budget = spec.budget(w, spec.nominal, windows)
		}
		if traced {
			rc.tr = newTracer(1<<20, "http.handler")
		}
		defer os.RemoveAll(rc.walDir)
		r, err := w.runRung(spec, stream, rc)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, r.setup.Seconds())
		rep.gate(checkRung(r))
		if recovery && spec.durable {
			rep.gate(w.checkRecovery(r, rc.walDir))
		}
		return r, nil
	}
	sampler := startPhase()
	start := time.Now()
	err := func() error {
		for _, scale := range spec.ladder {
			r, err := run("perfbench/serve/0", scale, 1, scale == spec.nominal)
			if err != nil {
				return err
			}
			ph.ladder = append(ph.ladder, r)
			if scale == spec.nominal {
				ph.nominal = append(ph.nominal, r)
			}
		}
		// Saturation and nominal replays alternate, so a slow spell of the
		// host lands on both, and each metric is a median over replays.
		for s := 1; ; s++ {
			r, err := run(fmt.Sprintf("perfbench/serve/saturate/%d", s), spec.satScale, spec.satWindows, false)
			if err != nil {
				return err
			}
			ph.sat = append(ph.sat, r)
			if len(ph.sat) >= minReplays && len(ph.nominal) >= minReplays && time.Since(start).Seconds() >= o.seconds {
				return nil
			}
			if r, err = run(fmt.Sprintf("perfbench/serve/%d", s), spec.nominal, 1, false); err != nil {
				return err
			}
			ph.nominal = append(ph.nominal, r)
		}
	}()
	ph.stealFrac = sampler.stop()
	if err != nil {
		return nil, err
	}
	return ph, nil
}

// timeSetup starts a target and stops it at once: one setup_s sample.
func (w *serveWorld) timeSetup(spec serveSpec, rc rungCfg) (time.Duration, error) {
	defer os.RemoveAll(rc.walDir)
	t0 := time.Now()
	t, err := w.startTarget(spec, rc)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, t.drain()
}

// minReplays is the fewest nominal and saturation replays a phase makes.
const minReplays = 3

// medianOf returns the median of f over the rungs.
func medianOf(rs []*rung, f func(*rung) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return median(vs)
}

// p50 and p99 are medians over the nominal replays of each replay's
// percentile (1000 requests each, so 10 beyond its p99): a replay hit by a
// slow spell of the host moves a pooled percentile, not these.
func (ph *servePhase) p50() float64 {
	return medianOf(ph.nominal, func(r *rung) float64 { return r.p50 })
}
func (ph *servePhase) p99() float64 {
	return medianOf(ph.nominal, func(r *rung) float64 { return r.p99 })
}

// saturatedRate is the median answer rate of the saturation replays, whose
// schedule runs far beyond what two connections carry.
func (ph *servePhase) saturatedRate() float64 {
	return medianOf(ph.sat, func(r *rung) float64 { return r.answerRate })
}

// passes reports whether a rung meets the workload's latency limit with no
// failed request and no backlog left growing at the end of the schedule.
func (spec serveSpec) passes(r *rung) bool {
	return r.failed == 0 && r.p99 <= spec.limitMs && r.backlogMs <= spec.limitMs
}

// capacity is the highest ladder rate that passes.
func (spec serveSpec) capacity(ph *servePhase) float64 {
	c := 0.0
	for _, r := range ph.ladder {
		if spec.passes(r) {
			c = r.rate
		}
	}
	return c
}

func serveE2E(m map[string]float64, ph *servePhase) {
	m["setup_s"] = median(ph.setups)
	m["throughput_per_s"] = ph.saturatedRate()
	var onTime, sent float64
	for _, r := range ph.nominal {
		onTime += float64(r.stats.OnTime)
		sent += float64(r.sent)
	}
	m["ontime_frac"] = onTime / sent
	m["heap_peak_mb"] = 0
	for _, r := range ph.rungs() {
		m["heap_peak_mb"] = max(m["heap_peak_mb"], r.heapMB)
	}
}

// serveReport runs one serving workload: the untraced phase (end-to-end
// metrics and gates) and, with o.trace, the traced phase.
func serveReport(spec serveSpec, o options) (*report, error) {
	rep := newReport(spec.name)
	w, err := newServeWorld(o.seed, o.outDir)
	if err != nil {
		return nil, err
	}
	ph, err := w.runPhase(spec, o, false, rep)
	if err != nil {
		return nil, err
	}
	serveE2E(rep.e2e, ph)
	for _, r := range ph.rungs() {
		rep.attempted += r.sent
		rep.failed += r.failed
	}
	noteServe(rep, spec, ph)
	if !o.trace {
		return rep, nil
	}
	tph, err := w.runPhase(spec, o, true, rep)
	if err != nil {
		return nil, err
	}
	serveE2E(rep.tracedE2E, tph)
	serveLayers(rep.layer, spec, tph)
	// Client latency comes from the untraced phase: what a user sees.
	rep.layer["client.latency_p50_ms"] = ph.p50()
	rep.layer["client.latency_p99_ms"] = ph.p99()
	rep.layer["client.capacity_rps"] = spec.capacity(ph)
	rep.layer["host.steal_frac"] = ph.stealFrac
	rep.layer["trace.overhead_frac"] = ratio(rep.e2e["throughput_per_s"], rep.tracedE2E["throughput_per_s"]) - 1
	phases := []*servePhase{tph}
	if !spec.durable {
		// The WAL, checkpoint and router layers exist only in the durable
		// configuration; a traced serve-durable phase measures them here,
		// with its own gates, so the gated serve workload covers them.
		do := o
		do.seconds = o.seconds / 2
		dph, err := w.runPhase(serveDurableWorkload, do, true, rep)
		if err != nil {
			return nil, err
		}
		durable := map[string]float64{}
		serveLayers(durable, serveDurableWorkload, dph)
		for _, k := range durableOnlyLayers {
			rep.layer[k] = durable[k]
		}
		rep.note("serve-durable configuration, traced, for the wal.*, router.* and checkpoint metrics only:")
		noteServe(rep, serveDurableWorkload, dph)
		phases = append(phases, dph)
	}
	f, err := os.Create(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", spec.name, o.seed)))
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		for i, r := range ph.rungs() {
			if err := r.tr.writeSpans(f, fmt.Sprintf("rung %d scale %g", i, r.scale)); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return rep, f.Close()
}

// durableOnlyLayers are the per-layer metrics only the durable
// configuration produces.
var durableOnlyLayers = []string{"wal.records_per_admit", "wal.commit_calls_per_admit", "wal.bytes_per_admit",
	"router.place_us_mean", "router.failovers", "server.checkpoint_ms"}

// noteServe adds the per-rung table: requests sent, succeeded and failed,
// and latency at every rung.
func noteServe(rep *report, spec serveSpec, ph *servePhase) {
	rep.note("policy LL+en+rob, %d connection(s), open loop; energy budget %g x zeta_max per window at the nominal scale",
		serveConns, float64(serveBudgetScale))
	rep.note("%-9s %-9s %9s %6s %6s %6s %9s %9s %9s %9s %5s %9s", "rung", "scale", "rate/s", "sent", "ok", "failed", "p50 ms", "p99 ms", "lag p99", "backlog", "pass", "ans/s")
	line := func(kind string, r *rung) {
		rep.note("%-9s %-9g %9.1f %6d %6d %6d %9.3f %9.3f %9.3f %9.3f %5v %9.1f", kind, r.scale, r.rate, r.sent, r.sent-r.failed, r.failed,
			r.p50, r.p99, r.lagP99, r.backlogMs, spec.passes(r), r.answerRate)
	}
	for _, r := range ph.ladder {
		line("ladder", r)
	}
	for _, r := range ph.sat {
		line("saturate", r)
	}
	for _, r := range ph.nominal[1:] {
		line("nominal", r)
	}
	rep.note("nominal scale %g: %d replay(s) of 1000 requests, median replay p50 %.4g ms, median replay p99 %.4g ms",
		spec.nominal, len(ph.nominal), ph.p50(), ph.p99())
	var st server.Stats
	for _, r := range ph.nominal {
		st.OnTime += r.stats.OnTime
		st.Late += r.stats.Late
		st.ShedFiltered += r.stats.ShedFiltered
		st.ShedInfeasible += r.stats.ShedInfeasible
		st.ShedBrownout += r.stats.ShedBrownout
		st.ShedHalted += r.stats.ShedHalted
	}
	rep.note("nominal outcomes: on time %d, late %d, shed filtered %d, infeasible %d, brownout %d, energy-halted %d",
		st.OnTime, st.Late, st.ShedFiltered, st.ShedInfeasible, st.ShedBrownout, st.ShedHalted)
	rep.note("capacity_rps (highest ladder rate with p99 <= %g ms, no failure, backlog <= %g ms) %.4g; saturated answer rate %.4g req/s",
		spec.limitMs, spec.limitMs, spec.capacity(ph), ph.saturatedRate())
	rep.note("setup (engine/router start + listener bind) samples %d, median %.4g s", len(ph.setups), median(ph.setups))
	rep.note("hypervisor steal %.1f%% of the machine's CPU time in the timed phase", 100*ph.stealFrac)
}

// histSum returns the summed observations and count of a histogram over
// the snapshots.
func histSum(snaps []*metrics.Snapshot, name string) (sum, count float64) {
	for _, s := range snaps {
		for i := range s.Metrics {
			if mv := &s.Metrics[i]; mv.Name == name && mv.Hist != nil {
				sum += mv.Hist.Sum
				count += float64(mv.Hist.Count)
			}
		}
	}
	return sum, count
}

// serveLayers fills the per-layer metrics from the traced phase's
// nominal replays (queue depth: every rung).
func serveLayers(m map[string]float64, spec serveSpec, ph *servePhase) {
	var snaps []*metrics.Snapshot
	var handler []float64
	var rob, en, choose, place, handlerSum float64
	var placeN int64
	var admitted, shed, consumed, budget, walBytes, requests float64
	for _, r := range ph.nominal {
		snaps = append(snaps, r.snap)
		h := r.tr.durations("http.handler")
		handler = append(handler, h...)
		for _, v := range h {
			handlerSum += v / 1e3
		}
		a, _ := r.tr.total("sched.filter.rob")
		rob += a
		a, _ = r.tr.total("sched.filter.en")
		en += a
		a, _ = r.tr.total("sched.choose")
		choose += a
		a, n := r.tr.total("router.place")
		place += a
		placeN += n
		admitted += float64(r.stats.Admitted)
		shed += float64(r.stats.Shed)
		consumed += r.stats.EnergyConsumed
		budget += r.budget
		walBytes += float64(r.walBytes)
		requests += float64(r.sent)
	}
	sum := func(name string) float64 {
		t := 0.0
		for _, s := range snaps {
			t += s.SumByName(name)
		}
		return t
	}
	m["client.send_lag_ms_p99"] = medianOf(ph.nominal, func(r *rung) float64 { return r.lagP99 })
	m["http.handler_ms_p50"] = median(handler)
	if t, ok := tailPercentile(handler, 0.99); ok {
		m["http.handler_ms_p99"] = t.Value
	}
	qwSum, qwN := histSum(snaps, "server_queue_wait_seconds")
	dSum, dN := histSum(snaps, "server_decision_seconds")
	m["server.queue_wait_us_mean"] = 1e6 * ratio(qwSum, qwN)
	m["server.decide_us_mean"] = 1e6 * ratio(dSum, dN)
	m["http.other_us_mean"] = 1e6 * ratio(handlerSum-qwSum-dSum, requests)
	decisions := sum("sched_decisions_total")
	m["server.decide_other_us_mean"] = 1e6 * ratio(dSum-rob-en-choose, dN)
	for _, r := range ph.rungs() {
		m["server.queue_depth_max"] = max(m["server.queue_depth_max"], r.snap.SumByName("server_queue_depth_high_water"))
	}
	m["sched.filter_rob_us_per_decision"] = 1e6 * ratio(rob, decisions)
	m["sched.filter_en_us_per_decision"] = 1e6 * ratio(en, decisions)
	m["sched.choose_us_per_decision"] = 1e6 * ratio(choose, decisions)
	m["server.shed_frac"] = ratio(shed, admitted)
	m["energy.consumed_frac"] = ratio(consumed, budget)
	// Work counts are per nominal replay (one 1000-task window), so runs
	// that fit a different number of replays compare.
	windows := float64(len(ph.nominal))
	m["sched.decisions"] = decisions / windows
	m["sched.candidates"] = sum("sched_candidates_total") / windows
	m["robustness.rho_evals"] = sum("sched_rho_evaluations_total") / windows
	hits, misses := sum("robustness_freetime_cache_hits_total"), sum("robustness_freetime_cache_misses_total")
	m["robustness.freetime_hit_ratio"] = ratio(hits, hits+misses)
	for _, r := range ph.nominal {
		m["pmf.grid_convs"] += float64(r.ops.GridConvolutions) / windows
		m["pmf.fft_convs"] += float64(r.ops.FFTConvolutions) / windows
	}
	if spec.durable {
		m["wal.records_per_admit"] = ratio(sum("server_wal_records_total"), admitted)
		m["wal.commit_calls_per_admit"] = ratio(sum("server_wal_commits_total"), admitted)
		m["wal.bytes_per_admit"] = ratio(walBytes, admitted)
		m["router.place_us_mean"] = 1e6 * ratio(place, float64(placeN))
		m["router.failovers"] = sum("router_failovers_total")
		var ck []float64
		for _, r := range ph.nominal {
			ck = append(ck, r.checkpointMs...)
		}
		m["server.checkpoint_ms"] = median(ck)
	}
}
