package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// figTrials is the number of paper-scale trials each round runs per
// figure variant: 16 variants × 10 trial simulations take about 5 s on a
// 2-vCPU host, and ten trials average out most of the trial-to-trial cost
// difference between workload seeds.
const figTrials = 10

// figSetups is the minimum number of environment builds timed per run;
// setup_s is their median.
const figSetups = 5

// figVariant is one row of Figures 2–5: a heuristic with a filter variant.
type figVariant struct {
	h sched.Heuristic
	v sched.FilterVariant
}

func (fv figVariant) mapper() *sched.Mapper {
	return &sched.Mapper{Heuristic: fv.h, Filters: fv.v.Filters()}
}

// figVariants lists the 16 rows of Figures 2–5 in the paper's order.
func figVariants() []figVariant {
	var out []figVariant
	for _, h := range []sched.Heuristic{sched.ShortestQueue{}, sched.MinExpectedCompletionTime{},
		sched.LightestLoad{}, sched.Random{}} {
		for _, v := range sched.AllFilterVariants() {
			out = append(out, figVariant{h, v})
		}
	}
	return out
}

// figEnv is one cold environment: the paper's cluster and model, freshly
// built, plus the benchmark's trials generated from the workload seed.
type figEnv struct {
	env    *experiment.Env
	trials []*workload.Trial
}

// buildFigEnv builds the paper's 8-node environment (its own fixed model
// seed, so every workload seed runs on the same cluster) and generates n
// 1000-task trials from the workload seed.
func buildFigEnv(seed uint64, n int) (*figEnv, error) {
	spec := experiment.PaperSpec()
	spec.Trials = 1 // the benchmark supplies its own trials below
	spec.Parallelism = runtime.GOMAXPROCS(0)
	env, err := experiment.Build(spec)
	if err != nil {
		return nil, err
	}
	root := randx.NewStream(seed).Child("perfbench/figures")
	fe := &figEnv{env: env, trials: make([]*workload.Trial, n)}
	for i := range fe.trials {
		if fe.trials[i], err = workload.GenerateTrial(root.ChildN("trial", i), env.Model); err != nil {
			return nil, err
		}
	}
	return fe, nil
}

// decisionStream is the decision stream experiment.Env gives trial i.
func (fe *figEnv) decisionStream(i int) *randx.Stream {
	return randx.NewStream(fe.env.Spec.Seed).ChildN("decisions", i)
}

// figCounts are the exact work counts of one round, read from the
// program's metrics registry and pmf.ReadOpCounts.
type figCounts struct {
	Decisions, Candidates, RhoEvals float64
	FreeTimeHits, FreeTimeMisses    float64
	GridConvs, FFTConvs, Events     float64
}

func countsFrom(s *metrics.Snapshot, ops pmf.OpCounts) figCounts {
	return figCounts{
		Decisions:      s.SumByName("sched_decisions_total"),
		Candidates:     s.SumByName("sched_candidates_total"),
		RhoEvals:       s.SumByName("sched_rho_evaluations_total"),
		FreeTimeHits:   s.SumByName("robustness_freetime_cache_hits_total"),
		FreeTimeMisses: s.SumByName("robustness_freetime_cache_misses_total"),
		GridConvs:      float64(ops.GridConvolutions),
		FFTConvs:       float64(ops.FFTConvolutions),
		Events:         s.SumByName("sim_events_total"),
	}
}

// figRound is the outcome of regenerating Figures 2–5 once.
type figRound struct {
	setup     time.Duration
	sim       time.Duration // wall time of the 16 variants
	variantMs []float64     // wall time per variant
	results   []*experiment.VariantResult
	counts    figCounts
	trialsRun int
	perTrial  []*sim.Result // traced rounds only
}

// missedPerTrial is the paper's objective averaged over every variant.
func (r *figRound) missedPerTrial() float64 {
	s := 0.0
	for _, vr := range r.results {
		s += vr.Summary.Mean
	}
	return s / float64(len(r.results))
}

func (r *figRound) onTimeFrac(window int) float64 {
	s := 0.0
	for _, vr := range r.results {
		s += vr.MeanOnTime
	}
	return s / float64(len(r.results)) / float64(window)
}

// runFigRound builds a cold environment and regenerates Figures 2–5 with
// the experiment harness (tr == nil), or with the benchmark's traced
// replica of the harness's per-variant trial pool.
func runFigRound(seed uint64, trials int, tr *tracer, storeDecisions bool) (*figRound, *figEnv, error) {
	t0 := time.Now()
	fe, err := buildFigEnv(seed, trials)
	if err != nil {
		return nil, nil, err
	}
	r := &figRound{setup: time.Since(t0)}
	opsBase := pmf.ReadOpCounts()
	agg := &metrics.Snapshot{}
	simStart := time.Now()
	for _, fv := range figVariants() {
		vs := time.Now()
		var vr *experiment.VariantResult
		if tr == nil {
			vr, err = fe.env.RunWithTrials(fv.mapper(), fe.trials, fv.v.String())
		} else {
			var res []*sim.Result
			res, vr, err = runTracedVariant(fe, fv, tr, storeDecisions, agg)
			r.perTrial = append(r.perTrial, res...)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", fv.mapper().Name(), err)
		}
		r.variantMs = append(r.variantMs, float64(time.Since(vs))/1e6)
		r.results = append(r.results, vr)
		r.trialsRun += len(fe.trials)
	}
	r.sim = time.Since(simStart)
	if tr == nil {
		agg = fe.env.MetricsSnapshot()
	}
	r.counts = countsFrom(agg, pmf.ReadOpCounts().Sub(opsBase))
	return r, fe, nil
}

// runTracedVariant runs one variant's trials on GOMAXPROCS workers, the
// way experiment.Env does (trials dispatched in index order, the variant
// complete when every trial is), with every sim.Run call and every filter
// and heuristic call wrapped. It merges each trial's metrics snapshot into
// agg in trial order and aggregates the results as the harness would.
func runTracedVariant(fe *figEnv, fv figVariant, tr *tracer, store bool, agg *metrics.Snapshot) ([]*sim.Result, *experiment.VariantResult, error) {
	n := len(fe.trials)
	results := make([]*sim.Result, n)
	snaps := make([]*metrics.Snapshot, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Decision-level spans of the first trial of each variant
				// are kept; the rest only feed the aggregates.
				results[i], snaps[i], errs[i] = runTracedTrial(fe, fv, i, tr, store && i == 0)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	for _, s := range snaps {
		if err := agg.Merge(s); err != nil {
			return nil, nil, err
		}
	}
	return results, aggregateVariant(fv, results), nil
}

func runTracedTrial(fe *figEnv, fv figVariant, i int, tr *tracer, store bool) (*sim.Result, *metrics.Snapshot, error) {
	id := tr.newID()
	d := newDecisionTrace(tr, id, store)
	reg := metrics.NewRegistry()
	cfg := sim.Config{
		Model:        fe.env.Model,
		Mapper:       tracedMapper(fv.mapper(), d),
		EnergyBudget: fe.env.Budget,
		Metrics:      reg,
		Observer:     discardObserver{d},
	}
	start := tr.now()
	res, err := sim.Run(cfg, fe.trials[i], fe.decisionStream(i))
	end := tr.now()
	d.flush()
	tr.record(span{ID: id, Name: "sim.run", Start: start, End: end, Task: -1}, true)
	if err != nil {
		return nil, nil, err
	}
	return res, reg.Snapshot(), nil
}

// aggregateVariant computes the fields of experiment.VariantResult that
// the benchmark reports, from per-trial results.
func aggregateVariant(fv figVariant, results []*sim.Result) *experiment.VariantResult {
	vr := &experiment.VariantResult{Label: fv.mapper().Name(), FilterLabel: fv.v.String()}
	for _, r := range results {
		vr.Missed = append(vr.Missed, float64(r.Missed))
		vr.MeanOnTime += float64(r.OnTime)
		vr.MeanDiscarded += float64(r.Discarded)
		vr.MeanLate += float64(r.Late)
		vr.MeanUnfinished += float64(r.Unfinished)
		vr.MeanEnergy += r.EnergyConsumed
	}
	n := float64(len(results))
	vr.MeanOnTime /= n
	vr.MeanDiscarded /= n
	vr.MeanLate /= n
	vr.MeanUnfinished /= n
	vr.MeanEnergy /= n
	vr.Summary.Mean = mean(vr.Missed)
	return vr
}

// figPhase is one timed phase: cold rounds until the time is up.
type figPhase struct {
	rounds  []*figRound
	allocMB float64
	// heapMB is the median over rounds of each round's peak live heap: a
	// collection that happens to run while a round allocates fastest
	// inflates that round's peak, not the median.
	heapMB    float64
	stealFrac float64
	lastEnv   *figEnv
}

func runFigPhase(seed uint64, seconds float64, tr *tracer) (*figPhase, error) {
	ph := &figPhase{}
	sampler := startPhase()
	allocBase := heapAllocBytes()
	start := time.Now()
	var peaks []float64
	for len(ph.rounds) == 0 || time.Since(start).Seconds() < seconds {
		// Only the last round's environment is kept (for the gates): a
		// previous one still reachable would count in the next round's
		// heap.
		ph.lastEnv = nil
		r, fe, err := runFigRound(seed, figTrials, tr, len(ph.rounds) == 0)
		if err != nil {
			sampler.stop()
			return nil, err
		}
		peaks = append(peaks, sampler.cut())
		ph.rounds = append(ph.rounds, r)
		ph.lastEnv = fe
	}
	ph.allocMB = float64(heapAllocBytes()-allocBase) / (1 << 20)
	ph.stealFrac = sampler.stop()
	ph.heapMB = median(peaks)
	return ph, nil
}

func (ph *figPhase) trials() int {
	n := 0
	for _, r := range ph.rounds {
		n += r.trialsRun
	}
	return n
}

// trialsPerSec is the median over rounds of trial simulations per second
// of simulation wall time (set-up excluded).
func (ph *figPhase) trialsPerSec() float64 {
	var rates []float64
	for _, r := range ph.rounds {
		rates = append(rates, float64(r.trialsRun)/r.sim.Seconds())
	}
	return median(rates)
}

func (ph *figPhase) variantMs() []float64 {
	var out []float64
	for _, r := range ph.rounds {
		out = append(out, r.variantMs...)
	}
	return out
}

// checkDeterminism fails unless every round reproduced the first round's
// per-trial outcomes and exact work counts.
func (ph *figPhase) checkDeterminism() error {
	first := ph.rounds[0]
	for k, r := range ph.rounds[1:] {
		if r.counts != first.counts {
			return fmt.Errorf("round %d exact counts %+v differ from round 0 %+v", k+1, r.counts, first.counts)
		}
		for i := range r.results {
			if !slices.Equal(r.results[i].Missed, first.results[i].Missed) {
				return fmt.Errorf("round %d %s missed deadlines %v differ from round 0 %v",
					k+1, r.results[i].Label, r.results[i].Missed, first.results[i].Missed)
			}
		}
	}
	return nil
}

// checkFigures is the figures correctness gate, run outside the timed
// phase: per-variant outcome means partition the window and respect ζ_max,
// and one trial per variant re-runs with the exact Eq. 1/2 energy
// cross-check and must reproduce the timed run's missed count.
func checkFigures(fe *figEnv, r *figRound) error {
	window := float64(len(fe.trials[0].Tasks))
	budget := fe.env.Budget
	for i, fv := range figVariants() {
		vr := r.results[i]
		sum := vr.MeanOnTime + vr.MeanDiscarded + vr.MeanLate + vr.MeanUnfinished
		if math.Abs(sum-window) > 1e-9*window {
			return fmt.Errorf("%s: outcome means sum to %v, window %v", vr.Label, sum, window)
		}
		if vr.MeanEnergy > budget*(1+1e-12) {
			return fmt.Errorf("%s: mean energy %v exceeds ζ_max %v", vr.Label, vr.MeanEnergy, budget)
		}
		res, err := sim.Run(sim.Config{Model: fe.env.Model, Mapper: fv.mapper(), EnergyBudget: budget,
			VerifyEnergy: true}, fe.trials[0], fe.decisionStream(0))
		if err != nil {
			return fmt.Errorf("%s: verify run: %w", vr.Label, err)
		}
		if err := checkTrial(res, budget); err != nil {
			return fmt.Errorf("%s: %w", vr.Label, err)
		}
		if res.EnergyVerifyError > 1e-9*res.EnergyConsumed {
			return fmt.Errorf("%s: meter drifted %v from the exact Eq. 1/2 energy %v", vr.Label, res.EnergyVerifyError, res.EnergyConsumed)
		}
		if float64(res.Missed) != vr.Missed[0] {
			return fmt.Errorf("%s: verify run missed %d, timed run %v", vr.Label, res.Missed, vr.Missed[0])
		}
	}
	for _, res := range r.perTrial {
		if err := checkTrial(res, budget); err != nil {
			return err
		}
	}
	return nil
}

// checkTrial checks one trial's outcome accounting and energy.
func checkTrial(res *sim.Result, budget float64) error {
	parts := []int{res.OnTime, res.Late, res.Discarded, res.Cancelled, res.LostToFailure, res.Unfinished}
	sum := 0
	for _, p := range parts {
		if p < 0 {
			return fmt.Errorf("negative outcome count in %v", res)
		}
		sum += p
	}
	if sum != res.Window || res.OnTime+res.Missed != res.Window {
		return fmt.Errorf("outcomes %v do not partition the window %d", parts, res.Window)
	}
	if res.Mapped+res.Discarded > res.Window || res.OnTime+res.Late > res.Mapped {
		return fmt.Errorf("mapped %d / discarded %d inconsistent with %v", res.Mapped, res.Discarded, res)
	}
	if res.EnergyConsumed > budget*(1+1e-12) {
		return fmt.Errorf("consumed %v exceeds ζ_max %v", res.EnergyConsumed, budget)
	}
	return nil
}

// figuresReport runs the figures workload: setup samples, the untraced
// timed phase and its gates, and with o.trace the traced phase.
func figuresReport(o options) (*report, error) {
	rep := newReport("figures")
	var setups []float64
	for i := 0; i < figSetups; i++ {
		t0 := time.Now()
		if _, err := buildFigEnv(o.seed, figTrials); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph, err := runFigPhase(o.seed, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range ph.rounds {
		setups = append(setups, r.setup.Seconds())
	}
	rep.attempted = ph.trials()
	first := ph.rounds[0]
	window := len(ph.lastEnv.trials[0].Tasks)
	figE2E(rep.e2e, ph, window)
	rep.e2e["setup_s"] = median(setups)
	rep.note("figures 2-5: 16 variants x %d paper-scale trials per cold round, %d round(s), %d trial simulations", figTrials, len(ph.rounds), ph.trials())
	rep.note("missed_per_trial %.4g tasks (mean over all variants; exact for a seed)", first.missedPerTrial())
	rep.note("trials_per_s %.4g (reported as throughput_per_s); figure-variant wall time p50 %.4g ms, %s",
		rep.e2e["throughput_per_s"], median(ph.variantMs()), tailNote(ph.variantMs(), 0.99))
	rep.note("setup (experiment.Build + trial generation) samples %d, median %.4g s", len(setups), rep.e2e["setup_s"])
	rep.note("hypervisor steal %.1f%% of the machine's CPU time in the timed phase", 100*ph.stealFrac)
	rep.gate(ph.checkDeterminism())
	rep.gate(checkFigures(ph.lastEnv, ph.rounds[len(ph.rounds)-1]))
	if !o.trace {
		return rep, nil
	}

	tr := newTracer(1<<18, "sim.run")
	tph, err := runFigPhase(o.seed, o.seconds, tr)
	if err != nil {
		return nil, err
	}
	figE2E(rep.tracedE2E, tph, window)
	rep.tracedE2E["setup_s"] = rep.e2e["setup_s"]
	tfirst := tph.rounds[0]
	if tfirst.counts != first.counts || tfirst.missedPerTrial() != first.missedPerTrial() {
		rep.gate(fmt.Errorf("traced run diverged: counts %+v missed %v, untraced %+v missed %v",
			tfirst.counts, tfirst.missedPerTrial(), first.counts, first.missedPerTrial()))
	}
	rep.gate(tph.checkDeterminism())
	rep.gate(checkFigures(tph.lastEnv, tph.rounds[len(tph.rounds)-1]))
	figLayers(rep.layer, ph, tph, tr)
	f, err := os.Create(filepath.Join(o.outDir, fmt.Sprintf("figures-seed%d-spans.jsonl", o.seed)))
	if err != nil {
		return nil, err
	}
	if err := tr.writeSpans(f, "figures traced phase"); err != nil {
		f.Close()
		return nil, err
	}
	return rep, f.Close()
}

// figE2E fills the end-to-end metrics of one phase (setup_s aside).
func figE2E(m map[string]float64, ph *figPhase, window int) {
	m["throughput_per_s"] = ph.trialsPerSec()
	m["ontime_frac"] = ph.rounds[0].onTimeFrac(window)
	m["heap_peak_mb"] = ph.heapMB
}

// figLayers fills the per-layer metrics from the untraced phase ph (exact
// counts, allocations) and the traced phase tph (spans). Times are per
// round: Figures 2–5 regenerated once.
func figLayers(m map[string]float64, ph, tph *figPhase, tr *tracer) {
	rounds := float64(len(tph.rounds))
	trialS, _ := tr.total("sim.run")
	var simWall float64
	for _, r := range tph.rounds {
		simWall += r.sim.Seconds()
	}
	var builds []float64
	for _, r := range tph.rounds {
		builds = append(builds, r.setup.Seconds())
	}
	m["workload.build_s"] = median(builds)
	m["experiment.busy_frac"] = ratio(trialS, simWall*float64(runtime.GOMAXPROCS(0)))
	tms := tr.durations("sim.run")
	m["sim.trial_ms_p50"] = median(tms)
	if t, ok := tailPercentile(tms, 0.99); ok {
		m["sim.trial_ms_p99"] = t.Value
	}
	rob, _ := tr.total("sched.filter.rob")
	en, _ := tr.total("sched.filter.en")
	choose, _ := tr.total("sched.choose")
	m["sim.self_s"] = (trialS - rob - en - choose) / rounds
	m["sched.filter_rob_s"] = rob / rounds
	m["sched.filter_en_s"] = en / rounds
	m["sched.choose_s"] = choose / rounds
	m["alloc_mb_per_trial"] = ph.allocMB / float64(ph.trials())
	c := ph.rounds[0].counts
	m["sched.decisions"] = c.Decisions
	m["sched.candidates"] = c.Candidates
	m["robustness.rho_evals"] = c.RhoEvals
	m["robustness.freetime_hit_ratio"] = ratio(c.FreeTimeHits, c.FreeTimeHits+c.FreeTimeMisses)
	m["pmf.grid_convs"] = c.GridConvs
	m["pmf.fft_convs"] = c.FFTConvs
	m["sim.events"] = c.Events
	m["host.steal_frac"] = ph.stealFrac
	m["trace.overhead_frac"] = ratio(ph.trialsPerSec(), tph.trialsPerSec()) - 1
}

// tailNote renders the tail estimate with its percentile and sample count.
func tailNote(samples []float64, want float64) string {
	t, ok := tailPercentile(samples, want)
	if !ok {
		return fmt.Sprintf("no tail percentile (n=%d)", len(samples))
	}
	return fmt.Sprintf("p%.4g %.4g ms (n=%d)", 100*t.P, t.Value, t.N)
}
