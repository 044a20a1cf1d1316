package experiment

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/trace"
)

// RunReport is the observability summary of everything an environment has
// executed: per-phase wall-clock timings, the merged per-trial metrics
// snapshot, pmf hot-path operation counts, and headline derived figures
// (convolution volume, robustness-cache hit ratio, filter rejections).
// It serializes to JSON for tooling and renders human-readably for CLIs.
type RunReport struct {
	// Seed, Trials, Window identify the experimental setup.
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	Window int    `json:"window"`
	// SpecHash is the journal-compatible identity of the spec (see
	// Spec.Hash): reports with equal hashes describe the same experiment.
	SpecHash string `json:"specHash"`
	// Incomplete marks a report flushed from an interrupted or failing
	// run: the aggregates cover only the work finished before the
	// shutdown, and Reason says why. A resumed run that finishes cleanly
	// reports Incomplete=false like any other.
	Incomplete bool   `json:"incomplete,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// Phases is the accumulated wall-clock per harness phase.
	Phases []metrics.PhaseTiming `json:"phases"`
	// PMF is the pmf-layer operation tally over the environment lifetime.
	// Like Phases and Harness it measures work performed, not results: a
	// resumed run reports fewer operations than an uninterrupted one while
	// producing identical Metrics and Derived figures.
	PMF pmf.OpCounts `json:"pmf"`
	// Derived are the headline figures extracted from Metrics.
	Derived DerivedStats `json:"derived"`
	// Metrics is the full merged snapshot (all registered series).
	Metrics *metrics.Snapshot `json:"metrics"`
	// Harness is the runner's own lifecycle counters (trials run /
	// resumed / panicked / retried / timed out / cancelled / quarantined).
	// Kept separate from Metrics so resumed runs still reproduce the
	// simulation aggregate bit for bit.
	Harness *metrics.Snapshot `json:"harness,omitempty"`
	// Calibration is the observe→predict→calibrate comparison, present
	// when a CalibrationStudy ran in this environment.
	Calibration *trace.Calibration `json:"calibration,omitempty"`
}

// MarkIncomplete flags the report as a partial flush from an interrupted
// run, recording why.
func (r *RunReport) MarkIncomplete(reason string) {
	r.Incomplete = true
	r.Reason = reason
}

// DerivedStats are the headline numbers pulled out of the merged snapshot
// so report consumers need not know metric names.
type DerivedStats struct {
	MappingDecisions      int64            `json:"mappingDecisions"`
	CandidatesEnumerated  int64            `json:"candidatesEnumerated"`
	FreeTimeCacheHits     int64            `json:"freeTimeCacheHits"`
	FreeTimeCacheMisses   int64            `json:"freeTimeCacheMisses"`
	FreeTimeCacheHitRatio float64          `json:"freeTimeCacheHitRatio"`
	RhoEvaluations        int64            `json:"rhoEvaluations"`
	GridRhoKernels        int64            `json:"gridRhoKernels"`
	FilterRejections      map[string]int64 `json:"filterRejections"`
	TasksFilteredToEmpty  int64            `json:"tasksFilteredToEmpty"`
	EventsProcessed       int64            `json:"eventsProcessed"`
	EnergyConsumed        float64          `json:"energyConsumed"`
	HeapDepthHighWater    int64            `json:"heapDepthHighWater"`
}

// Report assembles the environment's RunReport from everything executed so
// far. Call it after the figures/variants of interest have run.
func (e *Env) Report() *RunReport {
	snap := e.MetricsSnapshot()
	r := &RunReport{
		Seed:     e.Spec.Seed,
		Trials:   e.Spec.Trials,
		Window:   e.Spec.Workload.WindowSize,
		SpecHash: e.specHash(),
		Phases:   e.Phases(),
		PMF:      e.PMFOpCounts(),
		Metrics:  snap,
		Harness:  e.HarnessSnapshot(),
	}
	e.optMu.Lock()
	r.Calibration = e.calib
	e.optMu.Unlock()
	d := &r.Derived
	d.MappingDecisions = int64(snap.SumByName("sched_decisions_total"))
	d.CandidatesEnumerated = int64(snap.SumByName("sched_candidates_total"))
	d.FreeTimeCacheHits = int64(snap.SumByName("robustness_freetime_cache_hits_total"))
	d.FreeTimeCacheMisses = int64(snap.SumByName("robustness_freetime_cache_misses_total"))
	if total := d.FreeTimeCacheHits + d.FreeTimeCacheMisses; total > 0 {
		d.FreeTimeCacheHitRatio = float64(d.FreeTimeCacheHits) / float64(total)
	}
	d.RhoEvaluations = int64(snap.SumByName("sched_rho_evaluations_total"))
	d.GridRhoKernels = int64(snap.SumByName("robustness_grid_rho_total"))
	d.TasksFilteredToEmpty = int64(snap.SumByName("sched_filtered_to_empty_total"))
	d.EventsProcessed = int64(snap.SumByName("sim_events_total"))
	d.EnergyConsumed = snap.SumByName("energy_meter_consumed")
	d.HeapDepthHighWater = int64(snap.SumByName("sim_event_heap_high_water"))
	d.FilterRejections = make(map[string]int64)
	for i := range snap.Metrics {
		mv := &snap.Metrics[i]
		if mv.Name != "sched_filter_rejections_total" {
			continue
		}
		for _, l := range mv.Labels {
			if l.Key == "filter" {
				d.FilterRejections[l.Value] += int64(mv.Value)
			}
		}
	}
	return r
}

// JSON serializes the report as indented, deterministic JSON.
func (r *RunReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render returns the human-readable report block.
func (r *RunReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report (seed %d, %d trials × %d tasks, spec %s)\n", r.Seed, r.Trials, r.Window, r.SpecHash)
	if r.Incomplete {
		fmt.Fprintf(&b, "  INCOMPLETE: %s\n", r.Reason)
	}
	b.WriteString("  phases:\n")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "    %-10s %8.3fs  (%d intervals)\n", p.Name, p.Seconds, p.Count)
	}
	d := &r.Derived
	fmt.Fprintf(&b, "  scheduler: %d decisions, %d candidates enumerated, %d ρ evaluations\n",
		d.MappingDecisions, d.CandidatesEnumerated, d.RhoEvaluations)
	fmt.Fprintf(&b, "  free-time cache: %d hits / %d misses (%.1f%% hit ratio)\n",
		d.FreeTimeCacheHits, d.FreeTimeCacheMisses, 100*d.FreeTimeCacheHitRatio)
	if len(d.FilterRejections) > 0 {
		names := make([]string, 0, len(d.FilterRejections))
		for n := range d.FilterRejections {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  filter rejections:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, d.FilterRejections[n])
		}
		fmt.Fprintf(&b, "; %d tasks filtered to empty\n", d.TasksFilteredToEmpty)
	}
	fmt.Fprintf(&b, "  pmf: %d convolutions (%d bucketed), %d compactions dropping %d impulses\n",
		r.PMF.Convolutions, r.PMF.BucketedConvolutions, r.PMF.Compactions, r.PMF.ImpulsesCompacted)
	if r.PMF.GridConvolutions > 0 || d.GridRhoKernels > 0 {
		fmt.Fprintf(&b, "  pmf grid: %d lattice convolutions (%d via FFT), %d ρ prefix-sum evaluations\n",
			r.PMF.GridConvolutions, r.PMF.FFTConvolutions, d.GridRhoKernels)
	}
	fmt.Fprintf(&b, "  simulator: %d events processed, heap high-water %d, energy consumed %.4g\n",
		d.EventsProcessed, d.HeapDepthHighWater, d.EnergyConsumed)
	if c := r.Calibration; c != nil {
		fmt.Fprintf(&b, "  calibration: %d tasks, ECE %.4f, p50 coverage %.3f (ideal .500), p99 coverage %.3f (ideal .990), %d groups\n",
			c.Tasks, c.ECE, c.P50Coverage, c.P99Coverage, len(c.Groups))
	}
	if h := r.Harness; h != nil {
		ran := h.SumByName("experiment_trials_run_total")
		resumed := h.SumByName("experiment_trials_resumed_total")
		panicked := h.SumByName("experiment_trials_panicked_total")
		retried := h.SumByName("experiment_trials_retried_total")
		timedout := h.SumByName("experiment_trials_timedout_total")
		cancelled := h.SumByName("experiment_trials_cancelled_total")
		quarantined := h.SumByName("experiment_trials_quarantined_total")
		if ran+resumed+panicked+retried+timedout+cancelled+quarantined > 0 {
			fmt.Fprintf(&b, "  harness: %.0f trials run, %.0f resumed from journal, %.0f panicked, %.0f retried, %.0f timed out, %.0f cancelled, %.0f quarantined\n",
				ran, resumed, panicked, retried, timedout, cancelled, quarantined)
		}
	}
	return b.String()
}
