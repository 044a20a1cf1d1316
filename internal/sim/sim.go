// Package sim is the discrete-event simulator that executes one trial of
// the paper's experiment: tasks arrive dynamically, the configured mapper
// assigns each to a (core, P-state) immediately on arrival (or discards
// it), cores execute their FIFO queues, idle cores drop to the deepest
// P-state, and a live energy meter halts the cluster the instant the energy
// constraint ζ_max is exhausted (everything not completed by then counts as
// missed).
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config configures one simulation run.
type Config struct {
	// Model is the fixed workload model (cluster + pmf tables).
	Model *workload.Model
	// Mapper is the heuristic+filter policy under test.
	Mapper *sched.Mapper
	// EnergyBudget is ζ_max; math.Inf(1) disables the constraint.
	EnergyBudget float64
	// IdlePState is the state idle cores are parked in. The paper's cores
	// cannot be turned off (§III-A); parking them in the deepest P-state is
	// the resource manager's only lever on idle power. Defaults to P4.
	IdlePState cluster.PState
	// VerifyEnergy records full P-state transition lists and cross-checks
	// the meter against the exact Eq. 1/Eq. 2 computation at the end of the
	// run (test and debugging aid; costs memory).
	VerifyEnergy bool
	// Trace records a per-task outcome log in the result.
	Trace bool
	// CancelOverdueWaiting is an extension beyond the paper (§VIII future
	// work): when true, waiting tasks whose deadline has already passed are
	// dropped from the queue instead of being executed to completion. The
	// paper's model always executes mapped tasks as a best effort; leave
	// this false to reproduce the paper.
	CancelOverdueWaiting bool
	// Observer, when non-nil, receives every simulation event as it
	// happens (see the Observer interface). Used by the trace package to
	// build event logs and core timelines. Compose several observers with
	// Multi; nil means no observation (the engine substitutes NopObserver).
	Observer Observer
	// Metrics, when non-nil, receives hot-path instrumentation for the
	// run: events processed, heap depth high-water, backlog histogram,
	// task outcomes, scheduler candidate/filter/cache counters, and energy
	// meter activity. Attaching a registry never changes simulation
	// results; a registry must not be shared between concurrent runs
	// unless the caller wants their counts blended.
	Metrics *metrics.Registry
	// PowerCV is a §VIII extension ("use full probability distributions to
	// represent power consumption"): when positive, each task execution
	// draws its actual power from a gamma distribution with mean μ(i,π) and
	// this coefficient of variation instead of the constant μ(i,π). The
	// heuristics still plan with the mean (EEC is unchanged), so this
	// studies how power uncertainty erodes the energy budget. Incompatible
	// with VerifyEnergy (the Eq. 1 replay knows only table powers). Zero
	// reproduces the paper.
	PowerCV float64
	// Park is a §VIII extension ("more energy-conserving techniques ...
	// power gating"): idle cores are power-gated after a timeout and pay a
	// wake latency when work next arrives. The zero value (disabled)
	// reproduces the paper, whose oversubscription rules parking out.
	Park ParkPolicy
	// CentralQueue, when non-nil, replaces immediate-mode mapping entirely
	// (§VIII "reschedule" direction): arriving tasks wait in one
	// cluster-wide pool and the policy assigns them to cores only when the
	// core is ready to execute. Mutually exclusive with Mapper.
	CentralQueue PullPolicy
	// Faults configures failure injection: stochastic transient-core and
	// permanent-node failure processes plus scripted fault traces, with a
	// recovery policy for stranded tasks (see internal/fault). The zero
	// value (no faults) reproduces the paper's never-failing cluster and
	// costs nothing on the hot path. Incompatible with VerifyEnergy: a
	// downed core draws zero watts via a power override, which the Eq. 1
	// transition replay cannot represent.
	Faults fault.Spec
	// Brownout, when non-empty, replaces the all-or-nothing halt at ζ_max
	// with staged degradation: as consumed energy crosses each stage's
	// fraction of the budget, the admission filter's ζ_mul tightens, new
	// dispatches are floored at deep P-states, and (optionally) idle cores
	// are power-gated. The hard halt at 100% is unchanged. See
	// energy.BrownoutStage / energy.DefaultBrownoutStages. Requires a
	// finite EnergyBudget; nil reproduces the paper.
	Brownout []energy.BrownoutStage
}

// ParkPolicy configures the power-gating extension.
type ParkPolicy struct {
	// Enabled turns parking on.
	Enabled bool
	// Timeout is how long a core must sit idle before it parks.
	Timeout float64
	// WakeLatency delays the start of the first task mapped to a parked
	// core; the latency interval is charged at the task's P-state power (a
	// deliberate simplification — real gate-up current is implementation
	// specific).
	WakeLatency float64
	// PowerFrac is the parked power as a fraction of the node's P4 power
	// (e.g. 0.05 ≈ deep gating with retention).
	PowerFrac float64
}

// Validate reports whether the policy is usable.
func (p ParkPolicy) Validate() error {
	if !p.Enabled {
		return nil
	}
	if p.Timeout < 0 || p.WakeLatency < 0 {
		return fmt.Errorf("sim: park timeout %v and wake latency %v must be >= 0", p.Timeout, p.WakeLatency)
	}
	if p.PowerFrac < 0 || p.PowerFrac > 1 {
		return fmt.Errorf("sim: parked power fraction %v outside [0,1]", p.PowerFrac)
	}
	return nil
}

// Observer receives simulation events in time order. Implementations must
// not retain the engine's internal state; all arguments are values.
// Callbacks run synchronously on the simulation goroutine.
type Observer interface {
	// TaskMapped fires when an arriving task receives an assignment.
	TaskMapped(t float64, task workload.Task, a sched.Assignment)
	// TaskDiscarded fires when filters eliminate every assignment.
	TaskDiscarded(t float64, task workload.Task)
	// TaskStarted fires when a core begins executing a task.
	TaskStarted(t float64, task workload.Task, a sched.Assignment)
	// TaskFinished fires at completion; onTime reports deadline success.
	TaskFinished(t float64, task workload.Task, a sched.Assignment, onTime bool)
	// PStateChanged fires on every core P-state transition.
	PStateChanged(t float64, core cluster.CoreID, ps cluster.PState)
	// EnergyExhausted fires once if ζ_max runs out; the run halts.
	EnergyExhausted(t float64)
}

// Outcome classifies what happened to one task.
type Outcome int

// Task outcomes.
const (
	// OutcomeOnTime: completed at or before its deadline.
	OutcomeOnTime Outcome = iota
	// OutcomeLate: completed, but after its deadline.
	OutcomeLate
	// OutcomeDiscarded: every assignment was filtered out at arrival.
	OutcomeDiscarded
	// OutcomeUnfinished: mapped but not completed when the run halted
	// (energy exhaustion), or never arrived before the halt.
	OutcomeUnfinished
	// OutcomeCancelled: dropped by the CancelOverdueWaiting extension.
	OutcomeCancelled
	// OutcomeFailed: lost to a core/node failure — killed or stranded by a
	// fault and not recovered (dropped, or retries exhausted).
	OutcomeFailed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOnTime:
		return "on-time"
	case OutcomeLate:
		return "late"
	case OutcomeDiscarded:
		return "discarded"
	case OutcomeUnfinished:
		return "unfinished"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeFailed:
		return "failed"
	}
	return "unknown"
}

// TaskTrace records one task's fate (populated when Config.Trace is set).
type TaskTrace struct {
	Task       workload.Task
	Outcome    Outcome
	Assignment sched.Assignment // zero value when discarded/not arrived
	Mapped     bool
	Start      float64
	Finish     float64
}

// Result summarizes one simulation run. The headline metric of the paper's
// figures is Missed: tasks of the window that did not complete by their
// individual deadline within the energy constraint.
type Result struct {
	// Window is the number of tasks in the trial.
	Window int
	// OnTime counts tasks completed by their deadlines.
	OnTime int
	// Missed = Window − OnTime (the paper's box-plot metric).
	Missed int
	// Late counts tasks completed after their deadlines.
	Late int
	// Discarded counts tasks whose feasible set was emptied by filters.
	Discarded int
	// Cancelled counts tasks dropped by the CancelOverdueWaiting extension.
	Cancelled int
	// Unfinished counts tasks mapped but not completed (plus tasks that
	// never arrived) when the run halted.
	Unfinished int
	// Mapped counts assignments issued. Without fault injection this equals
	// the number of tasks mapped; with requeue recovery a task counts once
	// per (re-)assignment.
	Mapped int

	// EnergyConsumed is the actual wall energy drawn (Eqs. 1–2).
	EnergyConsumed float64
	// EnergyExhausted reports whether ζ_max ran out before the workload
	// finished; ExhaustedAt is the halt instant when it did.
	EnergyExhausted bool
	ExhaustedAt     float64
	// EnergyEstimateLeft is the heuristic-side estimate ζ(t_end) at the end
	// of the run (§V-F); it drifts from the meter because it ignores idle
	// power and uses expected rather than actual execution times.
	EnergyEstimateLeft float64
	// Makespan is the time of the last processed event.
	Makespan float64
	// AvgQueueDepthTime is the time-averaged per-core queue depth over the
	// run (diagnostic; the filters use the instantaneous depth).
	AvgQueueDepthTime float64
	// WeightedOnTime is the priority-weighted on-time value (extension;
	// equals OnTime when all priorities are 1).
	WeightedOnTime float64
	// Wakeups counts parked-core wakeups (parking extension only).
	Wakeups int
	// ParkedTime is the total core-time spent parked (parking extension).
	ParkedTime float64
	// Faults counts injected failures (fault injection only); TasksKilled
	// counts running tasks killed mid-execution by them, Retries counts
	// requeue dispatch attempts, and LostToFailure counts tasks that ended
	// OutcomeFailed (dropped or retries exhausted). A killed task that a
	// retry later completes is NOT lost — it lands in OnTime/Late.
	Faults        int
	TasksKilled   int
	Retries       int
	LostToFailure int
	// DownTime is the total core-time spent failed (summed over cores).
	DownTime float64
	// BrownoutStage is the deepest degradation stage reached (0 = nominal;
	// brownout controller only).
	BrownoutStage int
	// EnergyVerifyError is |meter − exact Eq.1/2| when VerifyEnergy is set.
	EnergyVerifyError float64

	// Traces is the per-task log (only when Config.Trace is set), indexed
	// by task ID.
	Traces []TaskTrace
}

// engine is one simulation run: the trial driver around a Kernel.
type engine struct {
	cfg       Config
	ctx       context.Context
	processed int // events handled, for periodic cancellation checks
	trial     *workload.Trial
	calc      *robustness.Calculator
	meter     *energy.Meter
	rand      *randx.Stream
	k         *Kernel

	energyLeft    float64 // heuristic estimate ζ(t_l)
	depthIntegral float64 // ∫ inSystem dt
	lastT         float64

	powerRand *randx.Stream // per-execution power draws (PowerCV extension)
	parked    []bool
	idleGen   []int // invalidates stale park events
	parkedAt  []float64

	arrived  int         // arrival events processed, for requeue T_left
	attempts map[int]int // fault requeues consumed per task ID; nil without faults
	// Cached context decorations so fault-enabled dispatch does not
	// allocate per arrival; nil when faults are disabled.
	coreUpFn func(int) bool
	availFn  func(int) float64

	// Central-queue mode (Config.CentralQueue set): the cluster-wide pool
	// of unassigned tasks and the idle cores waiting on it. The fault
	// handlers keep both consistent with core up/down state.
	policy PullPolicy
	pool   []workload.Task
	idle   map[int]bool

	pendingReq int // requeue events in flight, for fault-loop termination

	met  simMetrics       // all-nil handles when Config.Metrics is nil
	eobs EnergyObserver   // non-nil when the observer wants energy samples
	fobs FaultObserver    // non-nil when the observer wants fault events
	dobs DecisionObserver // non-nil when the observer audits decisions

	res *Result
}

// Run executes one trial under the configuration. decisions seeds the
// Random heuristic's draws (and any other stochastic policy choice); runs
// with equal (cfg, trial, decisions) are bit-identical.
func Run(cfg Config, trial *workload.Trial, decisions *randx.Stream) (*Result, error) {
	return RunContext(context.Background(), cfg, trial, decisions)
}

// RunContext is Run with cooperative cancellation: the event loop polls
// ctx between batches of events and aborts with an error wrapping
// ctx.Err() when the context is cancelled or its deadline passes. A
// cancelled run returns no Result — partial simulation state is never
// observable, so callers cannot mistake an aborted trial for a short one.
// A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, cfg Config, trial *workload.Trial, decisions *randx.Stream) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Model == nil {
		return nil, errors.New("sim: Config.Model is nil")
	}
	if err := validateCentral(cfg); err != nil {
		return nil, err
	}
	if cfg.CentralQueue == nil && (cfg.Mapper == nil || cfg.Mapper.Heuristic == nil) {
		return nil, errors.New("sim: Config.Mapper is nil or has no heuristic")
	}
	if trial == nil || len(trial.Tasks) == 0 {
		return nil, errors.New("sim: empty trial")
	}
	if decisions == nil {
		return nil, errors.New("sim: nil decision stream")
	}
	if cfg.PowerCV < 0 {
		return nil, fmt.Errorf("sim: PowerCV %v must be >= 0", cfg.PowerCV)
	}
	if err := cfg.Park.Validate(); err != nil {
		return nil, err
	}
	if cfg.VerifyEnergy && (cfg.PowerCV > 0 || cfg.Park.Enabled) {
		return nil, errors.New("sim: VerifyEnergy is incompatible with the PowerCV/Park extensions (Eq. 1 replay knows only P-state table powers)")
	}
	faultsOn := cfg.Faults.Enabled()
	if cfg.VerifyEnergy && faultsOn {
		return nil, errors.New("sim: VerifyEnergy is incompatible with fault injection (downed cores draw zero watts via power overrides)")
	}
	for _, st := range cfg.Brownout {
		if st.ParkIdle && cfg.VerifyEnergy {
			return nil, errors.New("sim: VerifyEnergy is incompatible with brownout idle parking (power overrides)")
		}
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}

	e := &engine{
		cfg:   cfg,
		ctx:   ctx,
		trial: trial,
		calc:  robustness.NewCalculator(cfg.Model),
		rand:  decisions,
		met:   newSimMetrics(cfg.Metrics),
		res: &Result{
			Window: len(trial.Tasks),
		},
	}
	kc := KernelConfig{
		Model:        cfg.Model,
		Calc:         e.calc,
		Budget:       cfg.EnergyBudget,
		IdlePState:   cfg.IdlePState,
		VerifyEnergy: cfg.VerifyEnergy,
		Observer:     cfg.Observer,
		Faults:       cfg.Faults,
		Brownout:     cfg.Brownout,
	}
	if faultsOn {
		kc.FaultStreams = NewFaultStreams(decisions.Child("fault"))
	}
	kc.HeapHighWater = e.met.heapHW
	k, err := NewKernel(kc)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e.k, e.meter, e.energyLeft = k, k.Meter(), k.Meter().Budget()
	e.eobs, _ = cfg.Observer.(EnergyObserver)
	e.fobs, _ = cfg.Observer.(FaultObserver)
	e.dobs, _ = cfg.Observer.(DecisionObserver)
	if cfg.Metrics != nil {
		var filters []sched.Filter
		if cfg.Mapper != nil {
			filters = cfg.Mapper.Filters
		}
		e.met.sched = sched.NewCounters(cfg.Metrics, filters)
		e.met.sched.InstrumentFreeTimes(e.k.FreeTimes())
		e.calc.Instrument(
			cfg.Metrics.Counter("robustness_freetime_evals_total"),
			cfg.Metrics.Counter("robustness_completion_evals_total"))
		e.meter.Instrument(
			cfg.Metrics.Counter("energy_meter_advances_total"),
			cfg.Metrics.Counter("energy_pstate_transitions_total"),
			cfg.Metrics.Gauge("energy_meter_consumed"))
	}
	if cfg.Trace {
		e.res.Traces = make([]TaskTrace, len(trial.Tasks))
		for i, t := range trial.Tasks {
			e.res.Traces[i] = TaskTrace{Task: t, Outcome: OutcomeUnfinished}
		}
	}
	if cfg.PowerCV > 0 {
		e.powerRand = decisions.Child("power")
	}
	n := e.k.NumCores()
	if cfg.Park.Enabled {
		e.parked = make([]bool, n)
		e.idleGen = make([]int, n)
		e.parkedAt = make([]float64, n)
		// Every core is idle at t=0; schedule the initial park checks.
		for i := 0; i < n; i++ {
			e.k.Push(Event{Time: cfg.Park.Timeout, Kind: EvPark, Idx: i})
		}
	}
	if faultsOn {
		e.initFaults()
	}
	for i, t := range trial.Tasks {
		e.k.Push(Event{Time: t.Arrival, Kind: EvArrival, Idx: i})
	}
	if cfg.CentralQueue != nil {
		e.policy = cfg.CentralQueue
		e.idle = make(map[int]bool, n)
		for i := 0; i < n; i++ {
			e.idle[i] = true
		}
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	e.finalize()
	return e.res, nil
}

// cancelCheckMask throttles context polls to one per 64 processed events:
// cheap enough for the hot path, responsive enough that a cancelled trial
// aborts within microseconds of simulated work.
const cancelCheckMask = 63

// checkCancelled polls the run context once every cancelCheckMask+1 events
// and converts a cancellation into the run-aborting error.
func (e *engine) checkCancelled() error {
	if e.processed&cancelCheckMask == 0 {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("sim: run cancelled at t=%.1f after %d events: %w", e.lastT, e.processed, err)
		}
	}
	e.processed++
	return nil
}

func (e *engine) loop() error {
	for e.k.Pending() > 0 {
		if err := e.checkCancelled(); err != nil {
			return err
		}
		ev := e.k.Pop()
		if ev.Kind == EvFault && !e.faultWorkRemains() {
			// Trailing fault beyond the last resolvable task: dropping it
			// (before the meter advances) is what lets the loop drain — the
			// stochastic processes otherwise reschedule forever.
			continue
		}
		backlog := e.k.InSystem() + len(e.pool)
		e.depthIntegral += float64(backlog) * (ev.Time - e.lastT)
		if e.advance(ev.Time) {
			return nil
		}
		e.met.events[ev.Kind].Inc()
		e.met.backlog.Observe(float64(backlog))
		switch ev.Kind {
		case EvArrival:
			e.arrived++
			e.arrive(ev.Time, ev.Idx)
		case EvCompletion:
			if e.k.Current(ev) {
				e.complete(ev.Time, ev.Idx)
			}
		case EvPark:
			e.park(ev.Idx, ev.Gen)
		case EvFault:
			e.handleFault(ev.Time, ev.Idx)
		case EvRepair:
			e.handleRepair(ev.Time, ev.Idx)
		case EvRequeue:
			e.handleRequeue(ev.Time, ev.Idx)
		}
		e.res.Makespan = ev.Time
	}
	return nil
}

// advance moves the meter to an event instant, forwarding the energy
// sample, and reports whether ζ_max ran out on the way (the run halts at
// the exhaustion instant). Otherwise the brownout automaton catches up.
func (e *engine) advance(t float64) bool {
	e.lastT = t
	at, exhausted := e.meter.Advance(t)
	if e.eobs != nil {
		e.eobs.EnergySample(at, e.meter.Consumed(), e.meter.Rate())
	}
	if exhausted {
		e.res.EnergyExhausted = true
		e.res.ExhaustedAt = at
		e.res.Makespan = at
		e.met.exhausted.Inc()
		e.cfg.Observer.EnergyExhausted(at)
		return true
	}
	if stage, changed := e.k.UpdateBrownout(at); changed {
		e.res.BrownoutStage = stage
		e.met.brownoutTrans.Inc()
		e.met.brownoutGauge.Set(float64(stage))
	}
	return false
}

// arrive maps one task in immediate mode, or pools it in central mode.
func (e *engine) arrive(now float64, taskIdx int) {
	task := e.trial.Tasks[taskIdx]
	if e.policy != nil {
		e.pool = append(e.pool, task)
		e.dispatch(now)
		return
	}
	chosen := e.decide(now, task, len(e.trial.Tasks)-taskIdx-1)
	if chosen == nil {
		e.res.Discarded++
		e.met.discarded.Inc()
		if e.cfg.Trace {
			e.res.Traces[taskIdx].Outcome = OutcomeDiscarded
		}
		e.cfg.Observer.TaskDiscarded(now, task)
		return
	}
	e.place(now, task, chosen)
}

// decide runs the mapper for one task (an arrival, or a fault retry) and
// returns its choice, nil when the filters emptied the feasible set. With
// every core down the candidate set is empty; Mapper.Map expects a
// non-empty set when it reaches the heuristic, so that is nil directly.
func (e *engine) decide(now float64, task workload.Task, tasksLeft int) *sched.Candidate {
	ctx := &sched.Context{
		Now:           now,
		Task:          task,
		Model:         e.cfg.Model,
		Calc:          e.calc,
		EnergyLeft:    e.energyLeft,
		TasksLeft:     tasksLeft,
		AvgQueueDepth: float64(e.k.InSystem()) / float64(e.k.NumCores()),
		Rand:          e.rand,
		Counters:      e.met.sched,
	}
	e.k.Decorate(ctx)
	if e.coreUpFn != nil {
		// Down cores drop out of candidate enumeration; availability
		// discounts ρ for the reliability filter.
		ctx.CoreUp = e.coreUpFn
		ctx.Availability = e.availFn
	}
	cands := sched.BuildCandidates(ctx, e.k)
	if len(cands) == 0 {
		return nil
	}
	return e.cfg.Mapper.Map(ctx, cands)
}

// place commits a mapping decision: it charges the energy estimate, audits
// the decision, and enqueues the task, starting it on an idle core. A
// fault retry counts as a fresh mapping and charges the estimate again
// (the first attempt's joules are genuinely gone), matching the central
// engine where a requeued task re-enters the pool.
func (e *engine) place(now float64, task workload.Task, chosen *sched.Candidate) {
	e.res.Mapped++
	e.met.mapped.Inc()
	e.energyLeft -= chosen.EEC
	// Predict() convolves against the queue snapshot captured by
	// BuildCandidates, so the decision must be audited before the chosen
	// task is enqueued (which mutates the free-time chain).
	if e.dobs != nil {
		e.dobs.TaskDecision(now, task, chosen.Assignment, chosen.Predict(), chosen.EEC)
	}
	if e.cfg.Trace {
		tr := &e.res.Traces[task.ID]
		tr.Mapped = true
		tr.Assignment = chosen.Assignment
		tr.Outcome = OutcomeUnfinished // a retry is pending again until it completes
	}
	actual := e.cfg.Model.ActualExecTime(task, chosen.Core.Node, chosen.PState)
	if e.k.Enqueue(now, chosen.Assignment, Queued{Task: task, PState: chosen.PState, Actual: actual}) {
		e.start(now, chosen.CoreIdx)
	}
}

// start begins executing the head of the core's queue, waking a parked
// core first (the wake latency delays the completion) and drawing the
// execution's power under the PowerCV extension.
func (e *engine) start(now float64, coreIdx int) {
	wake := 0.0
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++ // invalidate any pending park check
		if e.parked[coreIdx] {
			e.parked[coreIdx] = false
			e.res.ParkedTime += now - e.parkedAt[coreIdx]
			e.res.Wakeups++
			wake = e.cfg.Park.WakeLatency
		}
	}
	head := e.k.Start(now, coreIdx, wake)
	if e.cfg.PowerCV > 0 {
		node := e.cfg.Model.Cluster.Node(e.k.CoreID(coreIdx))
		factor := e.powerRand.GammaMeanCV(1, e.cfg.PowerCV)
		e.meter.SetPower(coreIdx, node.Power[head.PState]*factor)
	}
	if e.cfg.Trace {
		e.res.Traces[head.Task.ID].Start = now
	}
}

// park power-gates a core if it is still idle and the check is current.
func (e *engine) park(coreIdx, gen int) {
	if !e.cfg.Park.Enabled || e.parked[coreIdx] || gen != e.idleGen[coreIdx] || len(e.k.Tasks(coreIdx)) > 0 {
		return
	}
	if e.k.Down(coreIdx) {
		return // a failed core already draws nothing; keep the 0 W override
	}
	e.parked[coreIdx] = true
	e.parkedAt[coreIdx] = e.meter.Now()
	node := e.cfg.Model.Cluster.Node(e.k.CoreID(coreIdx))
	e.meter.SetPower(coreIdx, e.cfg.Park.PowerFrac*node.Power[cluster.P4])
}

// schedulePark arms the parking extension's idle timeout for a core that
// just went idle.
func (e *engine) schedulePark(now float64, coreIdx int) {
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++
		e.k.Push(Event{Time: now + e.cfg.Park.Timeout, Kind: EvPark, Idx: coreIdx, Gen: e.idleGen[coreIdx]})
	}
}

// complete retires the head of the core's queue and starts the next task
// (or idles the core).
func (e *engine) complete(now float64, coreIdx int) {
	head, onTime := e.k.Retire(now, coreIdx)
	if onTime {
		e.res.OnTime++
		e.res.WeightedOnTime += head.Task.Priority
		e.met.onTime.Inc()
	} else {
		e.res.Late++
		e.met.late.Inc()
	}
	if e.cfg.Trace {
		tr := &e.res.Traces[head.Task.ID]
		tr.Outcome = OutcomeLate
		if onTime {
			tr.Outcome = OutcomeOnTime
		}
		tr.Finish = now
	}
	if e.cfg.CancelOverdueWaiting {
		for q := e.k.Tasks(coreIdx); len(q) > 0 && q[0].Task.Deadline < now; q = e.k.Tasks(coreIdx) {
			e.k.SetTasks(coreIdx, q[1:])
			e.res.Cancelled++
			e.met.cancelled.Inc()
			if e.cfg.Trace {
				e.res.Traces[q[0].Task.ID].Outcome = OutcomeCancelled
			}
		}
	}
	if len(e.k.Tasks(coreIdx)) > 0 {
		e.start(now, coreIdx)
		return
	}
	e.k.Idle(now, coreIdx)
	e.schedulePark(now, coreIdx)
	if e.policy != nil {
		e.idle[coreIdx] = true
		e.dispatch(now)
	}
}

func (e *engine) finalize() {
	r := e.res
	r.Missed = r.Window - r.OnTime
	r.Unfinished = r.Window - r.OnTime - r.Late - r.Discarded - r.Cancelled - r.LostToFailure
	r.DownTime = e.k.DownTime(e.meter.Now())
	if e.cfg.Park.Enabled {
		for i, p := range e.parked {
			if p {
				r.ParkedTime += e.meter.Now() - e.parkedAt[i]
			}
		}
	}
	r.EnergyConsumed = e.meter.Consumed()
	r.EnergyEstimateLeft = e.energyLeft
	if r.Makespan > 0 {
		r.AvgQueueDepthTime = e.depthIntegral / (r.Makespan * float64(e.k.NumCores()))
	}
	if e.cfg.VerifyEnergy {
		if diff, err := e.meter.Verify(); err == nil {
			r.EnergyVerifyError = diff
		}
	}
	e.met.makespan.Observe(r.Makespan)
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("result{window=%d onTime=%d missed=%d late=%d discarded=%d unfinished=%d energy=%.3g exhausted=%v}",
		r.Window, r.OnTime, r.Missed, r.Late, r.Discarded, r.Unfinished, r.EnergyConsumed, r.EnergyExhausted)
}
