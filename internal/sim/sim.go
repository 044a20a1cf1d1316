// Package sim is the discrete-event simulator that executes one trial of
// the paper's experiment: tasks arrive dynamically, the configured mapper
// assigns each to a (core, P-state) immediately on arrival (or discards
// it), cores execute their FIFO queues, idle cores drop to the deepest
// P-state, and a live energy meter halts the cluster the instant the energy
// constraint ζ_max is exhausted (everything not completed by then counts as
// missed).
package sim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

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

// queued is one task occupying a core.
type queued struct {
	task    workload.Task
	pstate  cluster.PState
	actual  float64 // realized execution time, fixed at map time
	started bool
	startAt float64
}

// event kinds, in tie-break priority order at equal times: completions
// free cores before a simultaneous arrival is mapped, and a core is handed
// work before a simultaneous park fires. The fault kinds sort after the
// paper's kinds so that, at equal times, normal progress happens before the
// failure strikes, a repair lands after the fault that caused it, and a
// requeued task re-enters the mapper last.
const (
	evCompletion = iota
	evArrival
	evPark
	evFault
	evRepair
	evRequeue
	numEventKinds
)

type event struct {
	time float64
	kind int
	idx  int // task index for arrivals/requeues, core index for completions/
	// parks/repairs, fault-source index for faults
	gen int // generation: stale park and (post-failure) completion events
	// are ignored
	seq int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// engine is the run state; it implements sched.SystemView.
type engine struct {
	cfg       Config
	ctx       context.Context
	processed int // events handled, for periodic cancellation checks
	trial     *workload.Trial
	calc      *robustness.Calculator
	ftc       *robustness.FreeTimeEngine
	meter     *energy.Meter
	rand      *randx.Stream
	cores     []cluster.CoreID
	queues    [][]queued
	events    eventHeap
	seq       int

	// Per-decision scratch: the scheduler arena and per-core queue-snapshot
	// buffers Queue() reuses. Safe because snapshots are decision-scoped —
	// their only consumers, the candidate shares, are overwritten before
	// the next decision reads them.
	arena *sched.Arena
	qbuf  sched.QueueSnapshots

	energyLeft    float64 // heuristic estimate ζ(t_l)
	inSystem      int     // mapped, not yet completed
	depthIntegral float64 // ∫ inSystem dt
	lastT         float64

	powerRand *randx.Stream // per-execution power draws (PowerCV extension)
	parked    []bool
	idleGen   []int // invalidates stale park events
	parkedAt  []float64

	arrived int           // arrival events processed, for requeue T_left
	flt     *faultRuntime // nil when fault injection is disabled
	bro     *energy.Brownout
	// Cached context decorations so fault-enabled dispatch does not
	// allocate per arrival; nil when faults are disabled.
	coreUpFn func(int) bool
	availFn  func(int) float64

	// Central-queue hooks, set only in central mode: the shared fault
	// handlers call them so pool accounting and the idle-core set stay
	// consistent with core up/down state.
	onDown     func(coreIdx int)
	onUp       func(now float64, coreIdx int)
	redispatch func(now float64, task workload.Task)
	poolLen    func() int

	pendingReq int // requeue events in flight, for fault-loop termination

	met  *simMetrics    // nil when Config.Metrics is nil
	eobs EnergyObserver // non-nil when the observer wants energy samples
	fobs FaultObserver  // non-nil when the observer wants fault events
	bobs BrownoutObserver
	dobs DecisionObserver // non-nil when the observer audits decisions

	res *Result
}

var _ sched.SystemView = (*engine)(nil)

// NumCores implements sched.SystemView.
func (e *engine) NumCores() int { return len(e.cores) }

// CoreID implements sched.SystemView.
func (e *engine) CoreID(idx int) cluster.CoreID { return e.cores[idx] }

// Queue implements sched.SystemView: a snapshot of the core's occupancy,
// built into a reusable per-core buffer (snapshots are decision-scoped).
func (e *engine) Queue(idx int) robustness.CoreQueue {
	q := e.queues[idx]
	cq := robustness.CoreQueue{Node: e.cores[idx].Node}
	if len(q) == 0 {
		return cq
	}
	cq.Tasks = e.qbuf.Take(idx, len(q))
	for i, t := range q {
		cq.Tasks[i] = robustness.QueuedTask{
			Type:     t.task.Type,
			PState:   t.pstate,
			Deadline: t.task.Deadline,
			Started:  t.started,
			StartAt:  t.startAt,
		}
	}
	return cq
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
	if cfg.IdlePState == 0 {
		cfg.IdlePState = cluster.P4
	}
	if !cfg.IdlePState.Valid() {
		return nil, fmt.Errorf("sim: invalid idle P-state %d", cfg.IdlePState)
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
	if faultsOn {
		if err := cfg.Faults.Validate(cfg.Model.Cluster.TotalCores(), cfg.Model.Cluster.N()); err != nil {
			return nil, err
		}
		if cfg.VerifyEnergy {
			return nil, errors.New("sim: VerifyEnergy is incompatible with fault injection (downed cores draw zero watts via power overrides)")
		}
	}
	if len(cfg.Brownout) > 0 {
		if err := energy.ValidateBrownoutStages(cfg.Brownout); err != nil {
			return nil, err
		}
		for _, st := range cfg.Brownout {
			if st.ParkIdle && cfg.VerifyEnergy {
				return nil, errors.New("sim: VerifyEnergy is incompatible with brownout idle parking (power overrides)")
			}
		}
	}
	budget := cfg.EnergyBudget
	if budget == 0 {
		budget = math.Inf(1)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("sim: energy budget %v must be positive (use +Inf to disable)", budget)
	}
	if len(cfg.Brownout) > 0 && math.IsInf(budget, 1) {
		return nil, errors.New("sim: brownout requires a finite energy budget")
	}
	meter, err := energy.NewMeter(cfg.Model.Cluster, cfg.IdlePState, budget, cfg.VerifyEnergy)
	if err != nil {
		return nil, err
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}

	e := &engine{
		cfg:        cfg,
		ctx:        ctx,
		trial:      trial,
		calc:       robustness.NewCalculator(cfg.Model),
		meter:      meter,
		rand:       decisions,
		cores:      cfg.Model.Cluster.Cores(),
		queues:     make([][]queued, cfg.Model.Cluster.TotalCores()),
		energyLeft: budget,
		res: &Result{
			Window: len(trial.Tasks),
		},
	}
	e.ftc = robustness.NewFreeTimeEngine(e.calc, len(e.queues))
	e.arena = sched.NewArena()
	e.qbuf = sched.NewQueueSnapshots(len(e.queues))
	if eo, ok := cfg.Observer.(EnergyObserver); ok {
		e.eobs = eo
	}
	if fo, ok := cfg.Observer.(FaultObserver); ok {
		e.fobs = fo
	}
	if bo, ok := cfg.Observer.(BrownoutObserver); ok {
		e.bobs = bo
	}
	if do, ok := cfg.Observer.(DecisionObserver); ok {
		e.dobs = do
	}
	if cfg.Metrics != nil {
		var filters []sched.Filter
		if cfg.Mapper != nil {
			filters = cfg.Mapper.Filters
		}
		e.met = newSimMetrics(cfg.Metrics)
		e.met.sched = sched.NewCounters(cfg.Metrics, filters)
		e.met.sched.InstrumentFreeTimes(e.ftc)
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
	if cfg.Park.Enabled {
		e.parked = make([]bool, len(e.queues))
		e.idleGen = make([]int, len(e.queues))
		e.parkedAt = make([]float64, len(e.queues))
		// Every core is idle at t=0; schedule the initial park checks.
		for i := range e.queues {
			e.push(event{time: cfg.Park.Timeout, kind: evPark, idx: i, gen: 0})
		}
	}
	if faultsOn {
		e.initFaults(decisions)
	}
	if len(cfg.Brownout) > 0 {
		// Validated above; NewBrownout re-checks but cannot fail here.
		e.bro, _ = energy.NewBrownout(cfg.Brownout)
	}
	for i, t := range trial.Tasks {
		e.push(event{time: t.Arrival, kind: evArrival, idx: i})
	}
	if cfg.CentralQueue != nil {
		ce := &centralEngine{engine: e, policy: cfg.CentralQueue, idle: make(map[int]bool, len(e.queues))}
		for i := range e.queues {
			ce.idle[i] = true
		}
		if faultsOn {
			e.onDown = func(coreIdx int) { delete(ce.idle, coreIdx) }
			e.onUp = func(now float64, coreIdx int) {
				ce.idle[coreIdx] = true
				ce.dispatch(now)
			}
			e.redispatch = func(now float64, task workload.Task) {
				ce.pool = append(ce.pool, task)
				ce.dispatch(now)
			}
			e.poolLen = func() int { return len(ce.pool) }
		}
		if err := ce.loopCentral(); err != nil {
			return nil, err
		}
		ce.finalize()
		return ce.res, nil
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	e.finalize()
	return e.res, nil
}

func (e *engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
	e.met.heapDepth(e.events.Len())
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
	for e.events.Len() > 0 {
		if err := e.checkCancelled(); err != nil {
			return err
		}
		ev := heap.Pop(&e.events).(event)
		if ev.kind == evFault && !e.faultWorkRemains() {
			// Trailing fault beyond the last resolvable task: dropping it
			// (before the meter advances) is what lets the loop drain — the
			// stochastic processes otherwise reschedule forever.
			continue
		}
		e.depthIntegral += float64(e.inSystem) * (ev.time - e.lastT)
		e.lastT = ev.time
		at, exhausted := e.meter.Advance(ev.time)
		e.sampleEnergy(at)
		if exhausted {
			e.res.EnergyExhausted = true
			e.res.ExhaustedAt = at
			e.res.Makespan = at
			e.met.energyExhausted()
			e.cfg.Observer.EnergyExhausted(at)
			return nil
		}
		e.checkBrownout(at)
		e.met.event(ev.kind, e.inSystem)
		switch ev.kind {
		case evArrival:
			e.arrived++
			e.arrive(ev.time, ev.idx)
		case evCompletion:
			if !e.staleCompletion(ev) {
				e.complete(ev.time, ev.idx)
			}
		case evPark:
			e.park(ev.idx, ev.gen)
		case evFault:
			e.handleFault(ev.time, ev.idx)
		case evRepair:
			e.handleRepair(ev.time, ev.idx)
		case evRequeue:
			e.handleRequeue(ev.time, ev.idx)
		}
		e.res.Makespan = ev.time
	}
	return nil
}

// staleCompletion reports whether a completion event refers to an execution
// that a failure already killed (the core's run generation moved on).
func (e *engine) staleCompletion(ev event) bool {
	return e.flt != nil && ev.gen != e.flt.runGen[ev.idx]
}

// sampleEnergy forwards one energy-meter trajectory point to the observer
// if it asked for them.
func (e *engine) sampleEnergy(t float64) {
	if e.eobs != nil {
		e.eobs.EnergySample(t, e.meter.Consumed(), e.meter.Rate())
	}
}

// arrive maps one task in immediate mode.
func (e *engine) arrive(now float64, taskIdx int) {
	task := e.trial.Tasks[taskIdx]
	ctx := &sched.Context{
		Now:           now,
		Task:          task,
		Model:         e.cfg.Model,
		Calc:          e.calc,
		EnergyLeft:    e.energyLeft,
		TasksLeft:     len(e.trial.Tasks) - taskIdx - 1,
		AvgQueueDepth: float64(e.inSystem) / float64(len(e.cores)),
		Rand:          e.rand,
		Counters:      e.met.schedCounters(),
	}
	e.decorateCtx(ctx)
	cands := sched.BuildCandidates(ctx, e)
	// With every core down the candidate set is empty; Mapper.Map expects a
	// non-empty set when it reaches the heuristic, so discard directly.
	var chosen *sched.Candidate
	if len(cands) > 0 {
		chosen = e.cfg.Mapper.Map(ctx, cands)
	}
	if chosen == nil {
		e.res.Discarded++
		e.met.taskDiscarded()
		if e.cfg.Trace {
			e.res.Traces[taskIdx].Outcome = OutcomeDiscarded
		}
		e.cfg.Observer.TaskDiscarded(now, task)
		return
	}
	e.res.Mapped++
	e.met.taskMapped()
	e.energyLeft -= chosen.EEC
	// Predict() convolves against the queue snapshot captured by
	// BuildCandidates, so the decision must be audited before the chosen
	// task is enqueued (which mutates the free-time chain).
	if e.dobs != nil {
		e.dobs.TaskDecision(now, task, chosen.Assignment, chosen.Predict(), chosen.EEC)
	}
	actual := e.cfg.Model.ActualExecTime(task, chosen.Core.Node, chosen.PState)
	q := queued{task: task, pstate: chosen.PState, actual: actual}
	idx := chosen.CoreIdx
	e.queues[idx] = append(e.queues[idx], q)
	e.ftc.OnEnqueue(idx, chosen.Core.Node, task.Type, chosen.PState, len(e.queues[idx]))
	e.inSystem++
	if e.cfg.Trace {
		tr := &e.res.Traces[taskIdx]
		tr.Mapped = true
		tr.Assignment = chosen.Assignment
	}
	e.cfg.Observer.TaskMapped(now, task, chosen.Assignment)
	if len(e.queues[idx]) == 1 {
		e.start(now, idx)
	}
}

// start begins executing the head of the core's queue: the core (idle at
// this instant) transitions to the task's P-state and a completion event is
// scheduled at the realized finish time.
func (e *engine) start(now float64, coreIdx int) {
	e.ftc.Invalidate(coreIdx) // the head gains Started/StartAt
	head := &e.queues[coreIdx][0]
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
	e.setPState(now, coreIdx, head.pstate)
	if e.cfg.PowerCV > 0 {
		node := e.cfg.Model.Cluster.Node(e.cores[coreIdx])
		factor := e.powerRand.GammaMeanCV(1, e.cfg.PowerCV)
		e.meter.SetPower(coreIdx, node.Power[head.pstate]*factor)
	}
	head.started = true
	head.startAt = now
	if e.cfg.Trace {
		e.res.Traces[head.task.ID].Start = now
	}
	e.cfg.Observer.TaskStarted(now, head.task, e.assignment(coreIdx, head.pstate))
	gen := 0
	if e.flt != nil {
		gen = e.flt.runGen[coreIdx]
	}
	e.push(event{time: now + wake + head.actual, kind: evCompletion, idx: coreIdx, gen: gen})
}

// park power-gates a core if it is still idle and the check is current.
func (e *engine) park(coreIdx, gen int) {
	if !e.cfg.Park.Enabled || e.parked[coreIdx] || gen != e.idleGen[coreIdx] || len(e.queues[coreIdx]) > 0 {
		return
	}
	if e.coreDown(coreIdx) {
		return // a failed core already draws nothing; keep the 0 W override
	}
	e.parked[coreIdx] = true
	e.parkedAt[coreIdx] = e.meter.Now()
	node := e.cfg.Model.Cluster.Node(e.cores[coreIdx])
	e.meter.SetPower(coreIdx, e.cfg.Park.PowerFrac*node.Power[cluster.P4])
}

// setPState changes a core's P-state through the meter and notifies the
// observer of real transitions only. When a power override is active the
// meter call must happen even at an unchanged P-state, so the override is
// cleared and the core charges table power again (previously the early
// return left e.g. a parked core's retention power active while it
// executed a task at the idle P-state).
func (e *engine) setPState(now float64, coreIdx int, ps cluster.PState) {
	changed := e.meter.PStateOf(coreIdx) != ps
	if !changed && !e.meter.Overridden(coreIdx) {
		return
	}
	e.meter.SetPState(coreIdx, ps)
	if changed {
		e.cfg.Observer.PStateChanged(now, e.cores[coreIdx], ps)
	}
}

// assignment reconstructs the sched.Assignment of a core's current task.
func (e *engine) assignment(coreIdx int, ps cluster.PState) sched.Assignment {
	return sched.Assignment{Core: e.cores[coreIdx], CoreIdx: coreIdx, PState: ps}
}

// complete retires the head of the core's queue and starts the next task
// (or parks the core in the idle P-state).
func (e *engine) complete(now float64, coreIdx int) {
	q := e.queues[coreIdx]
	head := q[0]
	e.queues[coreIdx] = q[1:]
	// One version bump covers the head pop and any overdue-waiting drops
	// below: no free-time query can run before the queue settles.
	e.ftc.Invalidate(coreIdx)
	e.inSystem--
	onTime := now <= head.task.Deadline
	if onTime {
		e.res.OnTime++
		e.res.WeightedOnTime += head.task.Priority
		if e.cfg.Trace {
			e.res.Traces[head.task.ID].Outcome = OutcomeOnTime
		}
	} else {
		e.res.Late++
		if e.cfg.Trace {
			e.res.Traces[head.task.ID].Outcome = OutcomeLate
		}
	}
	e.met.taskFinished(onTime)
	e.cfg.Observer.TaskFinished(now, head.task, e.assignment(coreIdx, head.pstate), onTime)
	if e.cfg.Trace {
		e.res.Traces[head.task.ID].Finish = now
	}
	if e.cfg.CancelOverdueWaiting {
		for len(e.queues[coreIdx]) > 0 && e.queues[coreIdx][0].task.Deadline < now {
			dropped := e.queues[coreIdx][0]
			e.queues[coreIdx] = e.queues[coreIdx][1:]
			e.inSystem--
			e.res.Cancelled++
			e.met.taskCancelled()
			if e.cfg.Trace {
				e.res.Traces[dropped.task.ID].Outcome = OutcomeCancelled
			}
		}
	}
	if len(e.queues[coreIdx]) > 0 {
		e.start(now, coreIdx)
	} else {
		e.setPState(now, coreIdx, e.cfg.IdlePState)
		e.applyIdlePower(coreIdx)
		if e.cfg.Park.Enabled {
			e.idleGen[coreIdx]++
			e.push(event{time: now + e.cfg.Park.Timeout, kind: evPark, idx: coreIdx, gen: e.idleGen[coreIdx]})
		}
	}
}

func (e *engine) finalize() {
	r := e.res
	r.Missed = r.Window - r.OnTime
	r.Unfinished = r.Window - r.OnTime - r.Late - r.Discarded - r.Cancelled - r.LostToFailure
	if e.flt != nil {
		for i, down := range e.flt.down {
			if down {
				r.DownTime += e.meter.Now() - e.flt.downAt[i]
			}
		}
	}
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
		r.AvgQueueDepthTime = e.depthIntegral / (r.Makespan * float64(len(e.cores)))
	}
	if e.cfg.VerifyEnergy {
		if diff, err := e.meter.Verify(); err == nil {
			r.EnergyVerifyError = diff
		}
	}
	e.met.finish(r.Makespan)
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("result{window=%d onTime=%d missed=%d late=%d discarded=%d unfinished=%d energy=%.3g exhausted=%v}",
		r.Window, r.OnTime, r.Missed, r.Late, r.Discarded, r.Unfinished, r.EnergyConsumed, r.EnergyExhausted)
}
