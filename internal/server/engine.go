// Package server turns the paper's immediate-mode allocator into a
// long-lived online allocation service: tasks arrive over HTTP instead of
// from a pre-generated trial, the mapper assigns each to a (core, P-state)
// the moment it is admitted, and a full overload-robustness kit — bounded
// admission queue with backpressure, deadline-aware load shedding,
// per-request timeouts, per-node circuit breakers fed by fault injection,
// staged energy brownout that also gates admission, and graceful
// stop-drain-flush shutdown — keeps the service degrading predictably
// instead of collapsing when offered more work than the energy budget or
// the cluster can absorb.
//
// The paper's discard decision (§V-A: a task whose feasible set is empty
// is dropped) generalizes here to a four-stage admission pipeline; see
// DESIGN.md §8. The engine runs everything on one goroutine against a
// virtual clock, so a serving run with a ManualClock is as deterministic
// as a batch simulation.
package server

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Shed reasons: why an admitted task was rejected without an assignment.
const (
	// ShedFiltered: the configured filter chain emptied the feasible set —
	// the paper's discard decision verbatim.
	ShedFiltered = "filtered"
	// ShedInfeasible: the deadline was already unreachable even in the
	// best case (fastest node, fastest P-state, empty queue), so the task
	// was rejected before any mapping work was spent on it.
	ShedInfeasible = "infeasible-deadline"
	// ShedBrownout: a brownout stage with ShedAdmission was active.
	ShedBrownout = "brownout"
	// ShedHalted: the energy budget was exhausted; the cluster is down.
	ShedHalted = "energy-exhausted"
)

// Fail reasons: why a mapped task never completed.
const (
	// FailFault: lost to a core/node failure (dropped, or retries
	// exhausted).
	FailFault = "fault"
	// FailHalted: in flight when the energy budget ran out.
	FailHalted = "energy-exhausted"
	// FailDrainTimeout: still in flight when the drain grace expired.
	FailDrainTimeout = "drain-timeout"
	// FailShardKilled: in flight when the owning shard fail-stopped.
	FailShardKilled = "shard-killed"
)

// DecisionStatus classifies the outcome of one admitted task request.
type DecisionStatus int

// Decision statuses.
const (
	// StatusMapped: the task received an assignment.
	StatusMapped DecisionStatus = iota
	// StatusShed: the task was rejected by the admission pipeline.
	StatusShed
	// StatusTimedOut: the request waited in the admission queue past the
	// per-request timeout and was never mapped.
	StatusTimedOut
)

// String names the status.
func (s DecisionStatus) String() string {
	switch s {
	case StatusMapped:
		return "mapped"
	case StatusShed:
		return "shed"
	case StatusTimedOut:
		return "timed-out"
	}
	return fmt.Sprintf("DecisionStatus(%d)", int(s))
}

// MarshalJSON emits the status by name — the wire format is part of the
// API, and "mapped" survives reordering the constants where 0 would not.
func (s DecisionStatus) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON restores a status from its name.
func (s *DecisionStatus) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, v := range []DecisionStatus{StatusMapped, StatusShed, StatusTimedOut} {
		if v.String() == name {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("server: unknown decision status %q", name)
}

// AssignmentView is the client-visible slice of a mapping decision.
type AssignmentView struct {
	Node   int    `json:"node"`
	Core   string `json:"core"`
	PState string `json:"pstate"`
	// ETA is the expected completion time (virtual), §V-A's ECT.
	ETA float64 `json:"eta"`
}

// Decision is the engine's verdict on one admitted task.
type Decision struct {
	Status     DecisionStatus  `json:"status"`
	Reason     string          `json:"reason,omitempty"`
	TaskID     int             `json:"id"`
	Arrival    float64         `json:"arrival"`
	Deadline   float64         `json:"deadline"`
	Assignment *AssignmentView `json:"assignment,omitempty"`
	// QueueWait is the wall time the request spent in the admission queue.
	QueueWait time.Duration `json:"-"`
}

// ErrRejected is returned by Submit for requests refused before admission
// (backpressure, draining, brownout, energy exhaustion). Reason mirrors
// the shed vocabulary; RetryAfter suggests a client backoff.
type ErrRejected struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *ErrRejected) Error() string { return "server: rejected: " + e.Reason }

// Rejection reasons (pre-admission).
const (
	RejectQueueFull  = "queue-full"
	RejectDraining   = "draining"
	RejectRecovering = "recovering"
	// RejectShardDown: the engine shard that would have decided this request
	// fail-stopped. The router retries survivors before surfacing this.
	RejectShardDown = "shard-down"
	// RejectNoShard: every shard was down or without headroom (router-level).
	RejectNoShard = "no-shard"
)

// statusShardKilled is the internal sentinel a fail-stopping engine uses to
// answer queued-but-undecided requests: Submit converts it back into an
// *ErrRejected{RejectShardDown} and unwinds the admission accounting, so the
// router can re-route the task to a surviving shard with the dead shard's
// admitted = mapped + shed + timed-out ledger still balanced. Never
// serialized; never escapes Submit.
const statusShardKilled DecisionStatus = -1

// Config configures an Engine.
type Config struct {
	// Model is the fixed workload model (cluster + pmf tables).
	Model *workload.Model
	// Mapper is the immediate-mode policy (heuristic + filter chain).
	Mapper *sched.Mapper
	// Budget is ζ_max; 0 or +Inf disables the energy constraint.
	Budget float64
	// IdlePState parks idle cores; defaults to P4.
	IdlePState cluster.PState
	// Clock is the virtual time source; nil uses a RealClock at TimeScale.
	Clock Clock
	// TimeScale is virtual time units per wall second for the default
	// RealClock (ignored when Clock is set); defaults to 1000.
	TimeScale float64
	// QueueCap bounds the admission queue; defaults to 256. Requests
	// arriving at a full queue are rejected with backpressure (429).
	QueueCap int
	// RequestTimeout bounds the wall time a request may wait in the
	// admission queue before it is answered 504; defaults to 5s.
	RequestTimeout time.Duration
	// Horizon is the serving-mode stand-in for the batch run's T_left in
	// the energy filter's fair share ζ_mul·ζ/T_left: an open-ended server
	// has no fixed window, so it budgets energy as if Horizon tasks were
	// still to come. Defaults to the model's window size.
	Horizon int
	// Faults injects live failures (virtual-time processes); zero = none.
	Faults fault.Spec
	// Brownout is the staged energy-degradation schedule; stages with
	// ShedAdmission additionally close the admission gate. Requires a
	// finite Budget.
	Brownout []energy.BrownoutStage
	// Breaker tunes the per-node circuit breakers (only armed when Faults
	// is enabled).
	Breaker BreakerConfig
	// Metrics receives serving-path instrumentation; nil disables.
	Metrics *metrics.Registry
	// Observer receives simulation events (trace recording); nil disables.
	// If it also implements TaskShed(t, task, reason), shed decisions are
	// recorded too.
	Observer sim.Observer
	// Seed drives every stochastic choice (Random heuristic, execution
	// quantiles, fault processes).
	Seed uint64
	// DrainGrace bounds the wall time Drain may spend fast-forwarding
	// in-flight work; defaults to 10s.
	DrainGrace time.Duration
	// NoShedInfeasible disables deadline-aware admission shedding (tasks
	// with hopeless deadlines then run the full filter chain instead).
	NoShedInfeasible bool
	// WALPath enables the write-ahead admission log: every state transition
	// is appended to `<WALPath>.<incarnation>` and made durable (group
	// commit: flush+fsync) before the client sees the decision. Empty
	// disables durability. See wal.go and DESIGN.md §11.
	WALPath string
	// CheckpointPath is where engine checkpoints land (atomic
	// tmp+fsync+rename). Recovery is checkpoint + WAL-suffix replay; with
	// no checkpoint the whole WAL incarnation is replayed from genesis.
	CheckpointPath string
	// CheckpointEvery is the wall-clock period between automatic
	// checkpoints; 0 disables the timer (CheckpointNow still works).
	CheckpointEvery time.Duration
	// Tenants tunes multi-tenant admission control: per-tenant token-bucket
	// rate limits, bounded queue shares, and the abuse detector. nil runs
	// tenancy with pure defaults — tagged requests are still tracked,
	// class-weighted brownout shedding and abuse quarantine still apply, but
	// no tenant has a quota. Untagged requests bypass tenancy entirely.
	Tenants *TenantConfig
}

// shedObserver is implemented by observers (trace.EventLog) that want
// serving-mode shed events.
type shedObserver interface {
	TaskShed(t float64, task workload.Task, reason string)
}

// pending is one admitted request waiting for the engine's decision.
type pending struct {
	req    TaskRequest
	wallAt time.Time
	resp   chan Decision // buffered(1); the engine always answers exactly once
	ts     *tenantState  // queue-share slot to release on decision (nil untagged)
	probe  bool          // this request is a half-open quarantine probe
}

// queued is one task occupying a core.
type queued struct {
	task     workload.Task
	pstate   cluster.PState
	actual   float64
	attempts int // fault requeue attempts consumed
	started  bool
	startAt  float64
}

// Event kinds, in tie-break priority order at equal virtual times
// (completions free cores before the failure strikes; repairs land after
// the fault that caused them; requeues re-enter the mapper last).
const (
	evCompletion = iota
	evFault
	evRepair
	evRequeue
)

// Fault event sources (event.idx for evFault).
const (
	srcTransient = iota
	srcPermanent
	srcScript // srcScript+n is scripted entry n
)

type event struct {
	time float64
	kind int
	idx  int // core for completions/repairs, source for faults, slot for requeues
	gen  int // run generation; stale completions are ignored
	seq  int
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

// requeueEntry is a fault-stranded task waiting for its retry dispatch.
type requeueEntry struct {
	task     workload.Task
	attempts int
	fireAt   float64 // absolute virtual dispatch time (for checkpoints)
}

// ackPair is one decided request whose reply is held back until the
// decision's WAL records are durable (group commit).
type ackPair struct {
	p *pending
	d Decision
}

// Engine is the live allocation core: one goroutine owns the cluster
// state, the event heap, and every admission decision; HTTP handlers (and
// tests) talk to it through Submit.
type Engine struct {
	cfg   Config
	clock Clock
	model *workload.Model
	calc  *robustness.Calculator
	ftc   *robustness.FreeTimeEngine
	meter *energy.Meter
	bro   *energy.Brownout
	brk   *breakers
	rand  *randx.Stream
	// Independent fault-process streams, mirroring internal/sim's layout so
	// adding draws to one process never perturbs another.
	transientRng *randx.Stream
	permanentRng *randx.Stream
	targetRng    *randx.Stream
	quantRn      *randx.Stream

	tenants *tenancy

	cores  []cluster.CoreID
	queues [][]queued
	// Per-decision scratch: the scheduler arena and per-core queue-snapshot
	// buffers Queue() reuses (snapshots are decision-scoped, and the event
	// loop is single-goroutine).
	arena  *sched.Arena
	qbuf   sched.QueueSnapshots
	runGen []int
	down   []bool
	alive  []bool // per node, false after a permanent failure
	minEET []float64

	events   eventHeap
	seq      int
	inSystem int
	nextID   int
	requeues map[int]requeueEntry
	reqSeq   int

	// Fault-process schedule, mirrored out of the event heap so checkpoints
	// can rebuild it: absolute next firing per stochastic source (0 = none)
	// and which scripted entries have already fired.
	repairAt      []float64 // absolute repair event time per core (0 = none)
	nextTransient float64
	nextPermanent float64
	scriptFired   []bool

	// Durability (zero-valued when Config.WALPath is unset).
	wal          *wal
	walDead      bool // engine goroutine: commit failed, durability disabled
	incarnation  uint64
	decided      int64 // decide() outcomes == admit records written (cumulative)
	rejectedBase int64 // rejected count carried over from prior incarnations
	acks         []ackPair
	brkScratch   []brkSnapshot
	lastEnergyEN float64 // consumed at the last periodic wkEnergy record
	lastCkpt     time.Time
	ckptCh       chan chan error
	needSchedule bool // Start must seed the fault processes (fresh boot)

	admit    chan *pending
	drainCh  chan chan error
	syncCh   chan chan struct{}
	budgetCh chan budgetReq
	killCh   chan struct{}
	stopCh   chan struct{}
	doneCh   chan struct{}

	// Handler-visible state (read outside the engine goroutine).
	recovering atomic.Bool // true from Prepare until Start: replay in progress
	draining   atomic.Bool
	halted     atomic.Bool
	killed     atomic.Bool // fail-stopped via Kill (chaos or router verdict)
	shedGate   atomic.Bool // brownout stage with ShedAdmission active
	stage      atomic.Int32
	virtualAt  atomic.Uint64 // last processed virtual time (float bits)
	consumed   atomic.Uint64 // energy consumed (float bits); the meter itself
	// is confined to the engine goroutine, so Stats reads this mirror
	budgetBits atomic.Uint64 // meter budget (float bits); mirrors the meter
	// because AdjustBudget makes the budget mutable at runtime

	avail float64 // steady-state availability estimate for the rel filter
	// idleWindow is how long (virtual time) the idle cluster draw alone
	// takes to exhaust the budget — the service's maximum lifetime, fixed at
	// construction. +Inf when unconstrained.
	idleWindow float64

	counters *sched.Counters
	met      *serverMetrics
	shedObs  shedObserver
	fobs     sim.FaultObserver
	dobs     sim.DecisionObserver
	st       stats
	started  time.Time
}

// stats is the engine's atomically-updated accounting; Stats() snapshots
// it. The drain invariant is Admitted == Mapped + Shed + TimedOut and
// Mapped == Completed + Failed (+ InFlight while running).
type stats struct {
	received  atomic.Int64
	rejected  atomic.Int64
	admitted  atomic.Int64
	mapped    atomic.Int64
	shed      atomic.Int64
	timedout  atomic.Int64
	onTime    atomic.Int64
	late      atomic.Int64
	failed    atomic.Int64
	faults    atomic.Int64
	retries   atomic.Int64
	inflight  atomic.Int64
	assigned  atomic.Int64 // assignments issued incl. retries
	brkOpens  atomic.Int64
	shedByRsn [4]atomic.Int64 // filtered, infeasible, brownout, halted
}

func shedIdx(reason string) int {
	switch reason {
	case ShedFiltered:
		return 0
	case ShedInfeasible:
		return 1
	case ShedBrownout:
		return 2
	default:
		return 3
	}
}

// Stats is a point-in-time accounting snapshot for /v1/stats and tests.
type Stats struct {
	Received     int64 `json:"received"`
	Rejected     int64 `json:"rejected"`
	Admitted     int64 `json:"admitted"`
	Mapped       int64 `json:"mapped"`
	Shed         int64 `json:"shed"`
	TimedOut     int64 `json:"timedOut"`
	OnTime       int64 `json:"onTime"`
	Late         int64 `json:"late"`
	Failed       int64 `json:"failed"`
	InFlight     int64 `json:"inFlight"`
	Assigned     int64 `json:"assigned"`
	Faults       int64 `json:"faults"`
	Retries      int64 `json:"retries"`
	BreakerOpens int64 `json:"breakerOpens"`

	ShedFiltered   int64 `json:"shedFiltered"`
	ShedInfeasible int64 `json:"shedInfeasible"`
	ShedBrownout   int64 `json:"shedBrownout"`
	ShedHalted     int64 `json:"shedHalted"`

	EnergyConsumed float64  `json:"energyConsumed"`
	EnergyBudget   float64  `json:"energyBudget,omitempty"`
	BrownoutStage  int      `json:"brownoutStage"`
	VirtualNow     float64  `json:"virtualNow"`
	Draining       bool     `json:"draining"`
	Halted         bool     `json:"halted"`
	Breakers       []string `json:"breakers,omitempty"`
}

// Balanced reports whether the terminal accounting adds up: every admitted
// task reached exactly one decision, and every mapped task reached exactly
// one completion state (modulo the still-in-flight ones).
func (s Stats) Balanced() bool {
	return s.Admitted == s.Mapped+s.Shed+s.TimedOut &&
		s.Mapped == s.OnTime+s.Late+s.Failed+s.InFlight
}

// New validates the configuration, builds the engine, and starts its
// goroutine. Callers must eventually Drain (graceful) or Close (abrupt).
func New(cfg Config) (*Engine, error) {
	e, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	return e, nil
}

// Prepare validates the configuration and builds the engine without
// starting it: no fault processes are seeded, no WAL is created, and the
// engine goroutine does not run. Until Start, the engine reports itself as
// recovering — Submit rejects, readyz answers 503 — which lets a server
// bind its API before RecoverFrom replays the log. Follow with RecoverFrom
// (optional) and then Start.
func Prepare(cfg Config) (*Engine, error) {
	if cfg.Model == nil {
		return nil, errors.New("server: Config.Model is nil")
	}
	if cfg.Mapper == nil || cfg.Mapper.Heuristic == nil {
		return nil, errors.New("server: Config.Mapper is nil or has no heuristic")
	}
	if cfg.IdlePState == 0 {
		cfg.IdlePState = cluster.P4
	}
	if !cfg.IdlePState.Valid() {
		return nil, fmt.Errorf("server: invalid idle P-state %d", cfg.IdlePState)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1000
	}
	if cfg.TimeScale < 0 || math.IsNaN(cfg.TimeScale) || math.IsInf(cfg.TimeScale, 0) {
		return nil, fmt.Errorf("server: TimeScale %v must be positive and finite", cfg.TimeScale)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 256
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("server: QueueCap %d must be >= 1", cfg.QueueCap)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: RequestTimeout %v must be >= 0", cfg.RequestTimeout)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = cfg.Model.Params.WindowSize
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("server: Horizon %d must be >= 1", cfg.Horizon)
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 10 * time.Second
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = math.Inf(1)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("server: budget %v must be positive (use 0 or +Inf to disable)", budget)
	}
	if len(cfg.Brownout) > 0 {
		if err := energy.ValidateBrownoutStages(cfg.Brownout); err != nil {
			return nil, err
		}
		if math.IsInf(budget, 1) {
			return nil, errors.New("server: brownout requires a finite energy budget")
		}
	}
	if cfg.Tenants != nil {
		if err := cfg.Tenants.validate(); err != nil {
			return nil, err
		}
	}
	faultsOn := cfg.Faults.Enabled()
	if faultsOn {
		if err := cfg.Faults.Validate(cfg.Model.Cluster.TotalCores(), cfg.Model.Cluster.N()); err != nil {
			return nil, err
		}
	}
	meter, err := energy.NewMeter(cfg.Model.Cluster, cfg.IdlePState, budget, false)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = NewRealClock(cfg.TimeScale)
	}

	root := randx.NewStream(cfg.Seed)
	faultRn := root.Child("faults")
	e := &Engine{
		cfg:          cfg,
		clock:        clock,
		model:        cfg.Model,
		calc:         robustness.NewCalculator(cfg.Model),
		meter:        meter,
		rand:         root.Child("decisions"),
		transientRng: faultRn.Child("transient"),
		permanentRng: faultRn.Child("permanent"),
		targetRng:    faultRn.Child("target"),
		quantRn:      root.Child("quantiles"),
		cores:        cfg.Model.Cluster.Cores(),
		requeues:     make(map[int]requeueEntry),
		admit:        make(chan *pending, cfg.QueueCap),
		drainCh:      make(chan chan error, 1),
		syncCh:       make(chan chan struct{}),
		ckptCh:       make(chan chan error),
		budgetCh:     make(chan budgetReq),
		killCh:       make(chan struct{}),
		stopCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
		avail:        cfg.Faults.Availability(),
		met:          newServerMetrics(cfg.Metrics),
		started:      time.Now(),
	}
	e.queues = make([][]queued, len(e.cores))
	e.ftc = robustness.NewFreeTimeEngine(e.calc, len(e.cores))
	e.arena = sched.NewArena()
	e.qbuf = sched.NewQueueSnapshots(len(e.cores))
	e.runGen = make([]int, len(e.cores))
	e.down = make([]bool, len(e.cores))
	e.repairAt = make([]float64, len(e.cores))
	e.scriptFired = make([]bool, len(cfg.Faults.Script))
	e.alive = make([]bool, cfg.Model.Cluster.N())
	for i := range e.alive {
		e.alive[i] = true
	}
	e.minEET = bestCaseEET(cfg.Model)
	e.budgetBits.Store(math.Float64bits(budget))
	e.tenants = newTenancy(cfg.Tenants, cfg.QueueCap, cfg.Model.TAvg(), cfg.Metrics)
	e.idleWindow = math.Inf(1)
	if !math.IsInf(budget, 1) && meter.Rate() > 0 {
		e.idleWindow = budget / meter.Rate()
	}
	if cfg.Metrics != nil {
		e.counters = sched.NewCounters(cfg.Metrics, cfg.Mapper.Filters)
		e.counters.InstrumentFreeTimes(e.ftc)
		e.meter.Instrument(
			cfg.Metrics.Counter("energy_meter_advances_total"),
			cfg.Metrics.Counter("energy_pstate_transitions_total"),
			cfg.Metrics.Gauge("energy_meter_consumed"))
	}
	if len(cfg.Brownout) > 0 {
		e.bro, _ = energy.NewBrownout(cfg.Brownout)
	}
	if faultsOn {
		e.brk = newBreakers(cfg.Breaker, cfg.Model.Cluster.N(), cfg.Faults.RepairTime, cfg.Model.TAvg())
		e.needSchedule = true
	}
	if cfg.Observer == nil {
		e.cfg.Observer = sim.NopObserver{}
	}
	if so, ok := e.cfg.Observer.(shedObserver); ok {
		e.shedObs = so
	}
	if fo, ok := e.cfg.Observer.(sim.FaultObserver); ok {
		e.fobs = fo
	}
	if do, ok := e.cfg.Observer.(sim.DecisionObserver); ok {
		e.dobs = do
	}
	e.recovering.Store(true)
	return e, nil
}

// Start seeds the fault processes (fresh boot only — RecoverFrom restores
// the schedule instead), opens the WAL when configured, clears the
// recovering flag, and launches the engine goroutine.
func (e *Engine) Start() error {
	if e.needSchedule {
		e.scheduleFaults()
		e.needSchedule = false
	}
	if e.cfg.WALPath != "" && e.wal == nil {
		// Fresh boot with durability: this service's history starts now.
		// A stale checkpoint or WAL incarnation left by a previous process
		// must not survive to confuse a later -recover, so both are cleared.
		if e.cfg.CheckpointPath != "" {
			if err := os.Remove(e.cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("server: clear stale checkpoint: %w", err)
			}
		}
		if old, err := filepath.Glob(e.cfg.WALPath + ".*"); err == nil {
			for _, p := range old {
				_ = os.Remove(p)
			}
		}
		e.incarnation = 1
		w, err := createWAL(e.cfg.WALPath, e.walHeader())
		if err != nil {
			return err
		}
		e.wal = w
	}
	e.lastCkpt = time.Now()
	e.recovering.Store(false)
	go e.loop()
	return nil
}

// walHeader builds the header for this engine's current incarnation.
func (e *Engine) walHeader() walHeader {
	budget := e.meter.Budget()
	if math.IsInf(budget, 1) {
		budget = -1
	}
	return walHeader{
		Format:      walFormat,
		ModelHash:   e.model.Hash(),
		Seed:        e.cfg.Seed,
		Policy:      e.cfg.Mapper.Name(),
		Budget:      budget,
		Incarnation: e.incarnation,
	}
}

// bestCaseEET precomputes, per task type, the smallest expected execution
// time over all nodes at the fastest P-state — the optimistic bound the
// deadline-aware shed check compares against. Using a lower bound means
// the check never sheds a task some assignment could still finish.
func bestCaseEET(m *workload.Model) []float64 {
	out := make([]float64, m.Params.TaskTypes)
	for ty := range out {
		best := math.Inf(1)
		for n := 0; n < m.Cluster.N(); n++ {
			if eet := m.ExecPMF(ty, n, cluster.P0).Mean(); eet < best {
				best = eet
			}
		}
		out[ty] = best
	}
	return out
}

// Stats snapshots the accounting.
func (e *Engine) Stats() Stats {
	s := Stats{
		Received:     e.st.received.Load(),
		Rejected:     e.st.rejected.Load(),
		Admitted:     e.st.admitted.Load(),
		Mapped:       e.st.mapped.Load(),
		Shed:         e.st.shed.Load(),
		TimedOut:     e.st.timedout.Load(),
		OnTime:       e.st.onTime.Load(),
		Late:         e.st.late.Load(),
		Failed:       e.st.failed.Load(),
		InFlight:     e.st.inflight.Load(),
		Assigned:     e.st.assigned.Load(),
		Faults:       e.st.faults.Load(),
		Retries:      e.st.retries.Load(),
		BreakerOpens: e.st.brkOpens.Load(),

		ShedFiltered:   e.st.shedByRsn[0].Load(),
		ShedInfeasible: e.st.shedByRsn[1].Load(),
		ShedBrownout:   e.st.shedByRsn[2].Load(),
		ShedHalted:     e.st.shedByRsn[3].Load(),

		EnergyConsumed: math.Float64frombits(e.consumed.Load()),
		BrownoutStage:  int(e.stage.Load()),
		VirtualNow:     math.Float64frombits(e.virtualAt.Load()),
		Draining:       e.draining.Load(),
		Halted:         e.halted.Load(),
	}
	if b := e.Budget(); !math.IsInf(b, 1) {
		s.EnergyBudget = b
	}
	if e.brk != nil {
		s.Breakers = make([]string, len(e.brk.nodes))
		for n := range e.brk.nodes {
			s.Breakers[n] = e.brk.stateOf(n)
		}
	}
	return s
}

// Budget returns the engine's current energy budget — the boot-time carve,
// or the controller's latest AdjustBudget. Safe off the engine goroutine:
// it reads the atomic mirror, not the meter.
func (e *Engine) Budget() float64 { return math.Float64frombits(e.budgetBits.Load()) }

// EnergyConsumed returns the energy consumed so far (atomic mirror).
func (e *Engine) EnergyConsumed() float64 { return math.Float64frombits(e.consumed.Load()) }

// VirtualNow returns the last processed virtual time (atomic mirror).
func (e *Engine) VirtualNow() float64 { return math.Float64frombits(e.virtualAt.Load()) }

// Killed reports whether the engine fail-stopped via Kill.
func (e *Engine) Killed() bool { return e.killed.Load() }

// IdleEnergyWindow returns the virtual time the idle cluster draw alone
// takes to exhaust ζ_max — an upper bound on the service's lifetime, and
// the number operators should size -scale and -budget against. +Inf when
// the budget is unconstrained.
func (e *Engine) IdleEnergyWindow() float64 { return e.idleWindow }

// QueueDepth returns the current admission-queue occupancy.
func (e *Engine) QueueDepth() int { return len(e.admit) }

// QueueCap returns the admission-queue capacity.
func (e *Engine) QueueCap() int { return e.cfg.QueueCap }

// Accepting reports whether new submissions can currently be admitted.
func (e *Engine) Accepting() bool {
	return !e.recovering.Load() && !e.draining.Load() && !e.halted.Load() && !e.shedGate.Load()
}

// Recovering reports whether the engine is still replaying its log
// (between Prepare and Start).
func (e *Engine) Recovering() bool { return e.recovering.Load() }

// Submit runs one task request through the admission pipeline and blocks
// until the engine decides (mapped, shed, or timed out). Pre-admission
// rejections (queue full, draining, brownout gate, energy exhausted)
// return *ErrRejected immediately — the backpressure path.
func (e *Engine) Submit(req TaskRequest) (Decision, error) {
	e.st.received.Add(1)
	e.met.requests.Inc()
	if e.recovering.Load() {
		// Replay in progress: the engine's state is mid-reconstruction and
		// the WAL may be mid-rotation, so nothing is logged here — these
		// rejections live only in this process's counters.
		e.st.rejected.Add(1)
		e.met.rejectedRecovering.Inc()
		return Decision{}, &ErrRejected{Reason: RejectRecovering, RetryAfter: time.Second}
	}
	if e.killed.Load() {
		// Fail-stopped shard: the WAL is closed or closing, so like the
		// recovering path this rejection lives only in this process's
		// counters. The router routes around dead shards; this is the
		// belt-and-suspenders answer for requests that raced the verdict.
		e.st.rejected.Add(1)
		e.met.rejectedShardDown.Inc()
		return Decision{}, &ErrRejected{Reason: RejectShardDown, RetryAfter: time.Second}
	}
	var ts *tenantState
	if req.Tenant != "" {
		ts = e.tenants.state(req.Tenant)
	}
	reject := func(rej *ErrRejected, met *metrics.Counter) (Decision, error) {
		e.st.rejected.Add(1)
		met.Inc()
		if ts != nil {
			ts.rejected.Add(1)
			ts.rejectedC.Inc()
		}
		e.walReject(rej.Reason, req.Tenant)
		return Decision{}, rej
	}
	if e.draining.Load() {
		return reject(&ErrRejected{Reason: RejectDraining}, e.met.rejectedDraining)
	}
	if e.halted.Load() {
		return reject(&ErrRejected{Reason: ShedHalted}, e.met.rejectedHalted)
	}
	if e.shedGate.Load() {
		return reject(&ErrRejected{Reason: ShedBrownout, RetryAfter: 5 * time.Second}, e.met.rejectedBrownout)
	}
	probe := false
	if ts != nil {
		ts.setClass(req.Class())
		// Weighted brownout gate: at stage s, classes ranked below s are
		// turned away before they can occupy a queue slot — bronze at
		// stage >= 1, silver at >= 2, gold at >= 3. Untagged traffic is
		// untouched here; only the legacy ShedAdmission gate above sees it.
		if stg := int(e.stage.Load()); stg > int(req.Class()) {
			return reject(&ErrRejected{Reason: ShedBrownout, RetryAfter: 5 * time.Second}, e.met.rejectedBrownout)
		}
		var rej *ErrRejected
		probe, rej = ts.admitGate(e.now(), e.cfg.TimeScale)
		if rej != nil {
			return reject(rej, e.met.rejectedTenantBy(rej.Reason))
		}
	}
	p := &pending{req: req, wallAt: time.Now(), resp: make(chan Decision, 1), ts: ts, probe: probe}
	select {
	case e.admit <- p:
	default:
		if ts != nil {
			ts.release()
			if probe {
				ts.probing.Store(false)
			}
		}
		return reject(&ErrRejected{Reason: RejectQueueFull, RetryAfter: time.Second}, e.met.rejectedQueueFull)
	}
	e.st.admitted.Add(1)
	e.met.admitted.Inc()
	if ts != nil {
		ts.admitted.Add(1)
		ts.admittedC.Inc()
	}
	e.met.queueHigh.Observe(float64(len(e.admit)))
	d := <-p.resp
	if d.Status == statusShardKilled {
		// The shard fail-stopped with this request still queued-undecided.
		// Nothing durable claims the task (admit records are written at
		// decision time), so unwind the admission accounting and surface a
		// retryable rejection — the router re-routes it to a survivor.
		e.st.admitted.Add(-1)
		e.st.rejected.Add(1)
		e.met.rejectedShardDown.Inc()
		if ts != nil {
			ts.admitted.Add(-1)
			ts.rejected.Add(1)
			ts.rejectedC.Inc()
		}
		return Decision{}, &ErrRejected{Reason: RejectShardDown, RetryAfter: time.Second}
	}
	return d, nil
}

// Drain gracefully shuts the engine down: new submissions are rejected,
// everything already admitted is decided (mapped or shed), and in-flight
// work is fast-forwarded in virtual time until it completes — bounded by
// DrainGrace, after which stragglers are failed, never orphaned. Drain is
// idempotent; concurrent calls share one drain.
func (e *Engine) Drain(ctx context.Context) error {
	if e.draining.Swap(true) {
		<-e.doneCh
		return nil
	}
	done := make(chan error, 1)
	e.drainCh <- done
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Sync blocks until the engine goroutine has processed every event due at
// the current virtual time — the barrier tests use with a ManualClock to
// make assertions deterministic. It must not be called after Drain/Close.
func (e *Engine) Sync() {
	ch := make(chan struct{})
	e.syncCh <- ch
	<-ch
}

// Close stops the engine goroutine without draining (tests and error
// paths). Admitted-but-undecided requests are answered as timed out.
func (e *Engine) Close() {
	if e.draining.Swap(true) {
		<-e.doneCh
		return
	}
	close(e.stopCh)
	<-e.doneCh
}

// budgetReq asks the engine loop to reset the meter's budget.
type budgetReq struct {
	budget float64
	resp   chan error
}

// AdjustBudget resets the engine's energy budget from outside the engine
// goroutine — the router's budget controller reclaiming a dead shard's
// headroom or rebalancing sub-budgets toward observed consumption. The new
// budget must be at least the energy already consumed (enforced by the
// meter); the change is WAL-logged (wkBudget) so recovery restores the
// adjusted budget, not the boot-time carve. Fails once the engine has
// stopped.
func (e *Engine) AdjustBudget(b float64) error {
	req := budgetReq{budget: b, resp: make(chan error, 1)}
	select {
	case e.budgetCh <- req:
		return <-req.resp
	case <-e.doneCh:
		return errors.New("server: engine is not running")
	}
}

// applyBudget installs a new budget on the engine goroutine: meter, atomic
// mirror, WAL record, and a brownout re-evaluation (the stage is a function
// of consumed/budget, so moving the denominator can cross a threshold).
func (e *Engine) applyBudget(b float64) error {
	if err := e.meter.SetBudget(b); err != nil {
		return err
	}
	e.budgetBits.Store(math.Float64bits(b))
	e.walAppend(&walRecord{K: wkBudget, T: e.meter.Now(), BG: b})
	e.updateBrownout(e.meter.Now())
	return nil
}

// Kill fail-stops the engine: in-flight work fails as FailShardKilled,
// queued-but-undecided requests are bounced back for re-routing, the WAL is
// flushed and closed, and the loop exits. The chaos kill switch and the
// router's dead-shard verdict both land here. Idempotent; safe alongside
// Drain/Close (first caller wins).
func (e *Engine) Kill() {
	e.killed.Store(true)
	if e.draining.Swap(true) {
		<-e.doneCh
		return
	}
	close(e.killCh)
	<-e.doneCh
}

// failStop is Kill's engine-goroutine half: the orderly fail-stop.
func (e *Engine) failStop() {
	at := math.Float64frombits(e.virtualAt.Load())
	n := 0
	for idx := range e.queues {
		for _, q := range e.queues[idx] {
			e.fail(q.task, FailShardKilled)
			n++
		}
		e.queues[idx] = nil
		e.ftc.Invalidate(idx)
	}
	for _, r := range e.requeues {
		e.fail(r.task, FailShardKilled)
		n++
	}
	e.requeues = make(map[int]requeueEntry)
	e.inSystem = 0
	e.updInflight()
	e.events = nil
	if n > 0 {
		// One atomic record for the wholesale clear, like halt and the
		// drain flush: replay fails N tasks in a single step.
		e.walAppend(&walRecord{K: wkFlush, T: at, Rsn: FailShardKilled, N: n})
	}
	// Queued-but-undecided requests have no admit record yet (walAdmit
	// happens at decision time), so bouncing them is WAL-consistent: the
	// durable stream never heard of them, and Submit unwinds the in-memory
	// admission counts when it sees the sentinel.
	for {
		select {
		case p := <-e.admit:
			if p.ts != nil {
				p.ts.release()
				if p.probe {
					p.ts.probing.Store(false)
				}
			}
			p.resp <- Decision{Status: statusShardKilled}
		default:
			return
		}
	}
}

// now reads the clock, clamped monotone against the last processed event
// (a real clock can only move forward, but event fast-forwarding during
// drain may have advanced virtual time past the wall mapping).
func (e *Engine) now() float64 {
	t := e.clock.Now()
	if last := math.Float64frombits(e.virtualAt.Load()); last > t {
		return last
	}
	return t
}

// loop is the engine goroutine: admission decisions and timed events. Every
// iteration ends in commit(): the iteration's WAL records become durable in
// one flush+fsync and only then are the deferred Decision replies released
// — the group-commit discipline that makes "acked means durable" hold.
func (e *Engine) loop() {
	defer func() {
		e.commit()
		if e.wal != nil {
			_ = e.wal.close()
		}
		close(e.doneCh)
	}()
	for {
		e.runDue(e.now())
		e.commit()
		e.maybeCheckpoint()
		var timer <-chan struct{}
		if len(e.events) > 0 {
			timer = e.clock.WaitUntil(e.events[0].time)
		}
		select {
		case p := <-e.admit:
			e.decide(p)
			// Group commit: decide everything else already queued, so one
			// fsync covers the whole burst.
		batch:
			for i := 1; i < e.cfg.QueueCap; i++ {
				select {
				case q := <-e.admit:
					e.decide(q)
				default:
					break batch
				}
			}
			e.commit()
		case <-timer:
			// Loop back around; runDue processes everything now due.
		case ch := <-e.syncCh:
			e.runDue(e.now())
			e.commit()
			ch <- struct{}{}
		case ch := <-e.ckptCh:
			e.runDue(e.now())
			e.commit()
			ch <- e.writeCheckpointNow()
		case req := <-e.budgetCh:
			e.runDue(e.now())
			req.resp <- e.applyBudget(req.budget)
			e.commit()
		case done := <-e.drainCh:
			done <- e.drain()
			return
		case <-e.killCh:
			e.failStop()
			return
		case <-e.stopCh:
			e.abortPending()
			return
		}
	}
}

// reply releases one decision to its waiting handler — immediately when no
// WAL is armed, or deferred into the current commit batch when one is: the
// client must not observe a decision the log has not made durable.
func (e *Engine) reply(p *pending, d Decision) {
	if !e.walOn() {
		p.resp <- d
		return
	}
	e.acks = append(e.acks, ackPair{p: p, d: d})
}

// commit makes the iteration's WAL records durable and releases the
// deferred replies. On a WAL write/sync failure durability is disabled —
// loudly, once — and the engine keeps serving: the operator chose -wal for
// crash recovery, not for turning disk failures into an outage.
func (e *Engine) commit() {
	if e.walOn() {
		if err := e.wal.commit(); err != nil {
			fmt.Fprintf(os.Stderr, "server: WAL disabled, recovery will lose this incarnation's tail: %v\n", err)
			e.met.walErrors.Inc()
			e.walDead = true
		} else {
			e.met.walCommits.Inc()
		}
	}
	for i := range e.acks {
		e.acks[i].p.resp <- e.acks[i].d
	}
	e.acks = e.acks[:0]
}

// maybeCheckpoint writes a periodic checkpoint when one is due.
func (e *Engine) maybeCheckpoint() {
	if !e.walOn() || e.cfg.CheckpointPath == "" || e.cfg.CheckpointEvery <= 0 {
		return
	}
	if time.Since(e.lastCkpt) < e.cfg.CheckpointEvery {
		return
	}
	if err := e.writeCheckpointNow(); err != nil {
		fmt.Fprintln(os.Stderr, "server: checkpoint failed:", err)
	}
}

// writeCheckpointNow snapshots the engine and persists the checkpoint
// atomically. Engine goroutine only.
func (e *Engine) writeCheckpointNow() error {
	if !e.walOn() || e.cfg.CheckpointPath == "" {
		return errors.New("server: checkpointing requires an armed WAL and a checkpoint path")
	}
	// Pin the stream to the snapshot's exact meter coordinates first: the
	// meter may have advanced silently since the last record (quiet
	// stretches emit energy records only at budget/1024 granularity), and
	// the checkpoint must not know more than the WAL prefix it names — or
	// checkpoint+suffix replay and pure-WAL replay of the same records
	// would reconstruct different meters.
	e.walAppend(&walRecord{K: wkEnergy, T: e.meter.Now()})
	e.lastEnergyEN = e.meter.Consumed()
	e.commit()
	cut, rejects, tnRejects := e.wal.cut()
	if err := writeCheckpoint(e.cfg.CheckpointPath, e.snapshotCheckpoint(cut, rejects, tnRejects)); err != nil {
		return err
	}
	e.lastCkpt = time.Now()
	e.met.checkpoints.Inc()
	return nil
}

// CheckpointNow forces a checkpoint from outside the engine goroutine and
// returns once it is durable. It must not be called after Drain/Close.
func (e *Engine) CheckpointNow() error {
	ch := make(chan error, 1)
	e.ckptCh <- ch
	return <-ch
}

// HasPendingEvents reports whether any timed event is waiting in the heap.
// Engine-goroutine only while the loop runs; the multi-shard orchestrator
// calls it on stopped (recovered, loop-less) engines to find the shard with
// the earliest event.
func (e *Engine) HasPendingEvents() bool { return len(e.events) > 0 }

// PeekNextEventTime returns the virtual time of the earliest pending event,
// or +Inf when the heap is empty. Same confinement rules as
// HasPendingEvents.
func (e *Engine) PeekNextEventTime() float64 {
	if len(e.events) == 0 {
		return math.Inf(1)
	}
	return e.events[0].time
}

// ProcessNextEvent pops and handles exactly one event — the unit step the
// engine loop, the drain fast-forward, and the shared-clock multi-shard
// orchestrator are all built from. While draining, fault events are
// consumed without effect (no new failures strike work that is being
// flushed). Must not be called on an empty heap.
func (e *Engine) ProcessNextEvent() {
	ev := heap.Pop(&e.events).(event)
	if ev.kind == evFault && e.draining.Load() {
		return
	}
	e.handle(ev)
}

// runDue processes every heap event with time <= vt, advancing the meter
// exactly to each event instant.
func (e *Engine) runDue(vt float64) {
	for e.HasPendingEvents() && e.PeekNextEventTime() <= vt && !e.halted.Load() {
		e.ProcessNextEvent()
	}
	e.advance(vt)
}

// advance moves the meter (and the brownout automaton) to virtual time t.
func (e *Engine) advance(t float64) {
	if e.halted.Load() || t < e.meter.Now() {
		return
	}
	at, exhausted := e.meter.Advance(t)
	e.virtualAt.Store(math.Float64bits(at))
	e.consumed.Store(math.Float64bits(e.meter.Consumed()))
	e.met.consumed.Set(e.meter.Consumed())
	if exhausted {
		e.halt(at)
		return
	}
	// Periodic energy-debit record: every record carries absolute meter
	// coordinates, but a long quiet stretch (no admissions, no events) would
	// otherwise leave the durable consumed-energy reading arbitrarily stale.
	// ~budget/1024 granularity bounds the post-crash energy regression to
	// <0.1% of ζ_max without flooding the log.
	if e.walOn() && !math.IsInf(e.meter.Budget(), 1) {
		if en := e.meter.Consumed(); en-e.lastEnergyEN >= e.meter.Budget()/1024 {
			e.lastEnergyEN = en
			e.walAppend(&walRecord{K: wkEnergy, T: at})
		}
	}
	e.updateBrownout(at)
}

// updateBrownout re-evaluates the brownout automaton against the current
// consumed/budget ratio — on every meter advance, and after a budget
// adjustment moves the denominator.
func (e *Engine) updateBrownout(at float64) {
	if e.bro == nil || math.IsInf(e.meter.Budget(), 1) {
		return
	}
	stage, changed := e.bro.Update(e.meter.Consumed() / e.meter.Budget())
	if changed {
		e.stage.Store(int32(stage))
		e.met.stage.Set(float64(stage))
		cur := e.bro.Current()
		e.shedGate.Store(cur != nil && cur.ShedAdmission)
		e.walAppend(&walRecord{K: wkBrownout, T: at, Stage: stage, Gate: cur != nil && cur.ShedAdmission})
		if bo, ok := e.cfg.Observer.(sim.BrownoutObserver); ok {
			bo.BrownoutStageChanged(at, stage, e.meter.Consumed()/e.meter.Budget())
		}
	}
}

// halt is the hard stop at ζ_max: every in-flight task fails, the event
// heap is dropped, and the engine only answers shed from here on.
func (e *Engine) halt(at float64) {
	e.halted.Store(true)
	e.cfg.Observer.EnergyExhausted(at)
	failed := 0
	for idx := range e.queues {
		for _, q := range e.queues[idx] {
			e.fail(q.task, FailHalted)
			failed++
		}
		e.queues[idx] = nil
		e.ftc.Invalidate(idx)
	}
	for _, r := range e.requeues {
		e.fail(r.task, FailHalted)
		failed++
	}
	e.requeues = make(map[int]requeueEntry)
	e.inSystem = 0
	e.updInflight()
	e.events = nil
	// One atomic record for the wholesale clear: replay fails N tasks and
	// empties every structure in a single step, so a torn tail can never
	// leave the counters half-applied.
	e.walAppend(&walRecord{K: wkHalt, T: at, N: failed})
}

// pendingWork counts tasks mapped but not yet terminal: occupying core
// queues or stranded awaiting a fault retry.
func (e *Engine) pendingWork() int { return e.inSystem + len(e.requeues) }

// updInflight republishes the in-flight count after any change.
func (e *Engine) updInflight() {
	n := int64(e.pendingWork())
	e.st.inflight.Store(n)
	e.met.inflight.Set(float64(n))
}

// handle dispatches one due event.
func (e *Engine) handle(ev event) {
	e.advance(ev.time)
	if e.halted.Load() {
		return
	}
	switch ev.kind {
	case evCompletion:
		if ev.gen == e.runGen[ev.idx] {
			e.complete(ev.time, ev.idx)
		}
	case evFault:
		e.handleFault(ev.time, ev.idx)
	case evRepair:
		e.handleRepair(ev.time, ev.idx)
	case evRequeue:
		e.handleRequeue(ev.time, ev.idx)
	}
}

func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
}

// decide runs one admitted request through the decision stages. The admit
// record — full task identity plus the post-draw quantile stream state —
// goes to the WAL before any outcome, so a crash that loses the outcome
// still lets recovery re-decide the task from its admit record alone.
func (e *Engine) decide(p *pending) {
	if p.ts != nil {
		p.ts.release() // the request's queue-share slot frees as it leaves the queue
	}
	wait := time.Since(p.wallAt)
	e.met.queueWait.Observe(wait.Seconds())
	now := e.now()
	e.runDue(now)
	now = math.Max(now, math.Float64frombits(e.virtualAt.Load()))

	task := e.buildTask(now, p.req)
	e.decided++
	e.walAdmit(now, task, p.req.MaxEnergy)
	e.reply(p, e.decideTask(now, task, p.req.MaxEnergy, wait, true))
}

// decideTask is the admission pipeline shared by live decisions and
// recovery re-decides (which skip the wall-clock request timeout — the
// request was already durably admitted; there is no client left to answer).
func (e *Engine) decideTask(now float64, task workload.Task, maxEnergy *float64, wait time.Duration, timeoutEligible bool) Decision {
	d := e.admitPipeline(now, task, maxEnergy, wait, timeoutEligible)
	e.tenantOutcome(now, task, d)
	return d
}

// admitPipeline is the decision pipeline proper; decideTask wraps it with
// the per-tenant accounting and abuse-detector feed so live decisions and
// recovery re-decides drive tenancy identically.
func (e *Engine) admitPipeline(now float64, task workload.Task, maxEnergy *float64, wait time.Duration, timeoutEligible bool) Decision {
	if e.halted.Load() {
		return e.shed(now, task, ShedHalted, wait)
	}
	if timeoutEligible && e.cfg.RequestTimeout > 0 && wait > e.cfg.RequestTimeout {
		e.st.timedout.Add(1)
		e.met.timedout.Inc()
		e.walAppend(&walRecord{K: wkTimeout, T: now, ID: task.ID, TN: task.Tenant})
		if e.shedObs != nil {
			e.shedObs.TaskShed(now, task, "request-timeout")
		}
		return Decision{Status: StatusTimedOut, TaskID: task.ID, Arrival: task.Arrival,
			Deadline: task.Deadline, QueueWait: wait}
	}
	if cur := e.currentStage(); cur != nil && cur.ShedAdmission {
		return e.shed(now, task, ShedBrownout, wait)
	}
	// Weighted shedding: deeper brownout stages drop lower SLO classes
	// first — bronze at stage >= 1, silver at >= 2, gold at >= 3. Purely
	// additive on top of the legacy uniform ShedAdmission gate, and a pure
	// function of restored engine state (stage) plus the task's own class,
	// so recovery re-decides reproduce it bit-identically.
	if task.Tenant != "" && int(e.stage.Load()) > int(task.Class) {
		return e.shed(now, task, ShedBrownout, wait)
	}
	if !e.cfg.NoShedInfeasible && task.Deadline < now+e.minEET[task.Type] {
		return e.shed(now, task, ShedInfeasible, wait)
	}
	start := time.Now()
	snap := e.brkSnap()
	chosen := e.mapTask(now, task, maxEnergy)
	e.met.decideTime.Observe(time.Since(start).Seconds())
	var d Decision
	if chosen == nil {
		d = e.shed(now, task, ShedFiltered, wait)
	} else {
		// The candidate's lazily computed scores read the pre-enqueue
		// queue snapshot, so take the ETA before placing the task.
		eta := chosen.ECT()
		e.place(now, task, chosen, 0)
		e.st.mapped.Add(1)
		e.met.mapped.Inc()
		d = Decision{
			Status:   StatusMapped,
			TaskID:   task.ID,
			Arrival:  task.Arrival,
			Deadline: task.Deadline,
			Assignment: &AssignmentView{
				Node:   chosen.Core.Node,
				Core:   chosen.Core.String(),
				PState: chosen.PState.String(),
				ETA:    eta,
			},
			QueueWait: wait,
		}
	}
	e.walBreakerDiff(now, snap)
	return d
}

// buildTask materializes the workload.Task for a request arriving now.
func (e *Engine) buildTask(now float64, req TaskRequest) workload.Task {
	id := e.nextID
	e.nextID++
	u := e.quantRn.Float64()
	if u <= 0 {
		u = 1e-12
	}
	if req.U != nil {
		u = *req.U
	}
	cls := req.Class()
	deadline := now + e.model.TypeMeanExec(req.Type) + e.model.Params.LoadFactorMult*e.model.TAvg()
	switch {
	case req.Deadline != nil:
		deadline = *req.Deadline
	case req.Slack != nil:
		deadline = now + *req.Slack
	case req.SLO != nil:
		// Class-tiered deadline tightness, only when the request opted in by
		// naming its class and left the deadline to the server: gold buys
		// tighter deadlines, bronze gets looser ones. Untagged requests keep
		// the paper's formula bit-for-bit.
		deadline = now + e.model.TypeMeanExec(req.Type) +
			e.model.Params.LoadFactorMult*e.model.TAvg()*cls.SlackMult()
	}
	priority := 1.0
	if req.Priority != nil {
		priority = *req.Priority
	}
	return workload.Task{ID: id, Type: req.Type, Arrival: now, Deadline: deadline, U: u,
		Priority: priority, Tenant: req.Tenant, Class: cls}
}

// currentStage returns the active brownout stage's measures (nil nominal).
func (e *Engine) currentStage() *energy.BrownoutStage {
	if e.bro == nil {
		return nil
	}
	return e.bro.Current()
}

// shed records one shed decision.
func (e *Engine) shed(now float64, task workload.Task, reason string, wait time.Duration) Decision {
	e.st.shed.Add(1)
	e.st.shedByRsn[shedIdx(reason)].Add(1)
	e.met.shedBy(reason).Inc()
	e.walShed(now, task.ID, reason, task.Tenant)
	if e.shedObs != nil {
		e.shedObs.TaskShed(now, task, reason)
	} else {
		e.cfg.Observer.TaskDiscarded(now, task)
	}
	return Decision{Status: StatusShed, Reason: reason, TaskID: task.ID,
		Arrival: task.Arrival, Deadline: task.Deadline, QueueWait: wait}
}

// mapTask runs the full immediate-mode mapping for one task: candidate
// enumeration honoring down cores, breakers, and brownout floors, then the
// configured filter chain (plus the request's own energy cap), then the
// heuristic's choice.
func (e *Engine) mapTask(now float64, task workload.Task, maxEnergy *float64) *sched.Candidate {
	ctx := &sched.Context{
		Now:           now,
		Task:          task,
		Model:         e.model,
		Calc:          e.calc,
		EnergyLeft:    e.meter.Remaining(),
		TasksLeft:     e.cfg.Horizon,
		AvgQueueDepth: float64(e.inSystem) / float64(len(e.cores)),
		Rand:          e.rand,
		Counters:      e.counters,
		FreeTimes:     e.ftc,
		Arena:         e.arena,
		CoreUp:        e.coreUp(now),
	}
	if e.brk != nil {
		ctx.Availability = func(coreIdx int) float64 {
			if e.down[coreIdx] {
				return 0
			}
			return e.avail
		}
	}
	if cur := e.currentStage(); cur != nil {
		ctx.PStateFloor = cur.PStateFloor
		if cur.ZetaMul > 0 {
			ctx.ZetaMulOverride = cur.ZetaMul
		}
	}
	cands := sched.BuildCandidates(ctx, e)
	if len(cands) == 0 {
		return nil
	}
	mapper := e.cfg.Mapper
	if maxEnergy != nil {
		capped := *mapper
		capped.Filters = append([]sched.Filter{sched.EECCapFilter{Cap: *maxEnergy}}, mapper.Filters...)
		mapper = &capped
	}
	return mapper.Map(ctx, cands)
}

// coreUp builds the candidate-eligibility predicate for time now: the core
// is physically up and its node's circuit breaker admits traffic.
func (e *Engine) coreUp(now float64) func(int) bool {
	return func(idx int) bool {
		if e.down[idx] {
			return false
		}
		if e.brk != nil && !e.brk.allows(e.cores[idx].Node, now) {
			return false
		}
		return true
	}
}

// place enqueues a mapped task on its core and starts it if the core is
// free. attempts carries the fault-retry count for requeued tasks.
func (e *Engine) place(now float64, task workload.Task, chosen *sched.Candidate, attempts int) {
	// Audit the decision (first mapping or fault retry) before enqueueing:
	// Predict() convolves against the queue snapshot the mapper saw.
	if e.dobs != nil {
		e.dobs.TaskDecision(now, task, chosen.Assignment, chosen.Predict(), chosen.EEC)
	}
	actual := e.model.ActualExecTime(task, chosen.Core.Node, chosen.PState)
	idx := chosen.CoreIdx
	e.walMap(now, task, idx, chosen.PState, actual, attempts)
	e.queues[idx] = append(e.queues[idx], queued{task: task, pstate: chosen.PState, actual: actual, attempts: attempts})
	e.ftc.OnEnqueue(idx, chosen.Core.Node, task.Type, chosen.PState, len(e.queues[idx]))
	e.inSystem++
	e.st.assigned.Add(1)
	e.updInflight()
	if e.brk != nil {
		e.brk.onMapped(chosen.Core.Node)
	}
	e.cfg.Observer.TaskMapped(now, task, chosen.Assignment)
	if len(e.queues[idx]) == 1 {
		e.start(now, idx)
	}
}

// start begins executing the head of a core's queue.
func (e *Engine) start(now float64, coreIdx int) {
	e.ftc.Invalidate(coreIdx) // the head gains Started/StartAt
	head := &e.queues[coreIdx][0]
	e.setPState(now, coreIdx, head.pstate)
	head.started = true
	head.startAt = now
	e.walAppend(&walRecord{K: wkStart, T: now, ID: head.task.ID, Core: coreIdx, PS: int(head.pstate)})
	e.cfg.Observer.TaskStarted(now, head.task, e.assignment(coreIdx, head.pstate))
	e.push(event{time: now + head.actual, kind: evCompletion, idx: coreIdx, gen: e.runGen[coreIdx]})
}

// setPState transitions a core through the meter, clearing any down-state
// power override, and notifies the observer of real transitions.
func (e *Engine) setPState(now float64, coreIdx int, ps cluster.PState) {
	changed := e.meter.PStateOf(coreIdx) != ps
	if !changed && !e.meter.Overridden(coreIdx) {
		return
	}
	e.meter.SetPState(coreIdx, ps)
	if changed {
		e.cfg.Observer.PStateChanged(now, e.cores[coreIdx], ps)
	}
}

func (e *Engine) assignment(coreIdx int, ps cluster.PState) sched.Assignment {
	return sched.Assignment{Core: e.cores[coreIdx], CoreIdx: coreIdx, PState: ps}
}

// complete retires the head of a core's queue.
func (e *Engine) complete(now float64, coreIdx int) {
	q := e.queues[coreIdx]
	head := q[0]
	e.queues[coreIdx] = q[1:]
	e.ftc.Invalidate(coreIdx)
	e.inSystem--
	e.updInflight()
	onTime := now <= head.task.Deadline
	if onTime {
		e.st.onTime.Add(1)
		e.met.completedOn.Inc()
	} else {
		e.st.late.Add(1)
		e.met.completedLate.Inc()
	}
	e.tenantCompleted(head.task, onTime)
	e.walAppend(&walRecord{K: wkFinish, T: now, ID: head.task.ID, Core: coreIdx, OK: onTime})
	if e.brk != nil {
		snap := e.brkSnap()
		e.brk.onSuccess(e.cores[coreIdx].Node)
		e.walBreakerDiff(now, snap)
	}
	e.cfg.Observer.TaskFinished(now, head.task, e.assignment(coreIdx, head.pstate), onTime)
	if len(e.queues[coreIdx]) > 0 {
		e.start(now, coreIdx)
	} else {
		e.setPState(now, coreIdx, e.cfg.IdlePState)
	}
}

// fail records one mapped task lost before completion.
func (e *Engine) fail(task workload.Task, reason string) {
	e.st.failed.Add(1)
	e.met.failed.Inc()
	e.tenantFailed(task)
	if e.shedObs != nil {
		e.shedObs.TaskShed(math.Float64frombits(e.virtualAt.Load()), task, reason)
	}
}

// abortPending answers every queued request after an abrupt Close.
func (e *Engine) abortPending() {
	for {
		select {
		case p := <-e.admit:
			if p.ts != nil {
				p.ts.release()
				p.ts.timedout.Add(1)
			}
			e.st.timedout.Add(1)
			e.met.timedout.Inc()
			p.resp <- Decision{Status: StatusTimedOut}
		default:
			return
		}
	}
}

// drain is the graceful shutdown path, run on the engine goroutine:
// decide everything still queued, then fast-forward virtual time through
// the event heap until no task is in flight. Returns an error when the
// grace expired and stragglers had to be failed.
func (e *Engine) drain() error {
	// Phase 1: every admitted-but-undecided request gets its decision.
	// Mapping is still allowed — these tasks were accepted before the
	// drain began and deserve their shot; the fast-forward below will
	// complete them.
	for {
		select {
		case p := <-e.admit:
			e.decide(p)
		default:
			goto flush
		}
	}
flush:
	e.commit() // phase-1 decisions become durable before fast-forwarding
	// Phase 2: fast-forward in-flight work. Virtual time jumps straight
	// to each event; the wall-clock grace bounds the loop. Fault events
	// are consumed without effect (ProcessNextEvent, draining).
	deadline := time.Now().Add(e.cfg.DrainGrace)
	for e.pendingWork() > 0 && !e.halted.Load() {
		if !e.HasPendingEvents() {
			// No completion can ever fire for the remaining tasks — a
			// bug guard, not an expected path.
			break
		}
		if time.Now().After(deadline) {
			break
		}
		e.ProcessNextEvent()
	}
	return e.drainFinish()
}

// drainFinish is the drain epilogue: fail stragglers that outlived the
// grace, answer every still-queued request, and commit. Shared by the
// single-engine drain and the router's multi-shard orchestrated drain.
func (e *Engine) drainFinish() error {
	var err error
	if n := e.pendingWork(); n > 0 && !e.halted.Load() {
		for idx := range e.queues {
			for _, q := range e.queues[idx] {
				e.fail(q.task, FailDrainTimeout)
			}
			e.queues[idx] = nil
			e.ftc.Invalidate(idx)
		}
		for _, r := range e.requeues {
			e.fail(r.task, FailDrainTimeout)
		}
		e.requeues = make(map[int]requeueEntry)
		err = fmt.Errorf("server: drain grace %v expired with %d task(s) in flight (failed, not orphaned)", e.cfg.DrainGrace, n)
		e.inSystem = 0
		e.updInflight()
		// Like halt: one atomic record for the wholesale clear.
		e.walAppend(&walRecord{K: wkFlush, T: e.now(), Rsn: FailDrainTimeout, N: n})
	}
	// Any request that raced into the queue between the draining flag and
	// the channel drain above still gets an answer.
	e.abortPending()
	e.commit()
	return err
}
