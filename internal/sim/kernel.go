package sim

// The event kernel: the mechanics the simulator and the serving engine
// share. One Kernel owns a cluster's event heap, its per-core FIFO queues
// with their start/complete/P-state transitions, the fault fencing (down,
// run-generation and node-dead state, the fault pickers, strike and repair,
// the requeue backoff) and the brownout stage measures. A driver owns time
// and policy: the simulator feeds it a trial's arrivals and keeps the
// Result; internal/server feeds it HTTP admissions and keeps the WAL,
// breakers and tenancy. Kernel calls return what changed — the retired
// head, the stranded queue of a downed core, a retry's firing time — so
// each driver accounts for it (and logs it) at the point it happens.
//
// The kernel is not safe for concurrent use; each driver runs it on one
// goroutine.

import (
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

// Event kinds, in tie-break priority order at equal times: completions
// free cores before a simultaneous arrival is mapped, and a core is handed
// work before a simultaneous park fires. The fault kinds sort after the
// paper's kinds so that, at equal times, normal progress happens before the
// failure strikes, a repair lands after the fault that caused it, and a
// requeued task re-enters the mapper last.
const (
	EvCompletion = iota
	EvArrival
	EvPark
	EvFault
	EvRepair
	EvRequeue
	numEventKinds
)

// Fault sources carried in EvFault events: the two stochastic processes,
// then the scripted entries (scripted fault i has source SrcScript+i).
const (
	SrcTransient = 0
	SrcPermanent = 1
	SrcScript    = 2
)

// Event is one scheduled kernel event.
type Event struct {
	Time float64
	Kind int
	// Idx is the core for completions, parks and repairs, the fault source
	// for faults, and the driver's task handle for arrivals and requeues.
	Idx int
	// Gen is the run generation of a completion (stale after a fault) or
	// the driver's idle generation of a park check.
	Gen int
	seq int
}

// eventHeap is a binary min-heap over (Time, Kind, seq). seq makes the
// order total, so the pop sequence does not depend on the heap layout.
type eventHeap []Event

func (h eventHeap) less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	if h[i].Kind != h[j].Kind {
		return h[i].Kind < h[j].Kind
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Queued is one task occupying a core's FIFO queue.
type Queued struct {
	Task   workload.Task
	PState cluster.PState
	// Actual is the realized execution time, fixed at map time.
	Actual float64
	// Attempts counts the fault requeues the task has consumed.
	Attempts int
	Started  bool
	StartAt  float64
}

// Strike is one failure a fault event delivers.
type Strike struct {
	Kind fault.Kind
	// Core is the struck core (transient; -1 for a permanent strike), Node
	// the failed node (permanent; -1 for a transient strike).
	Core, Node int
	// Repair is a transient strike's down interval.
	Repair float64
}

// FaultStreams are the fault processes' random streams: inter-failure
// times of the transient and permanent processes, and victim picks.
// Separate streams mean adding draws to one process never perturbs
// another.
type FaultStreams struct {
	Transient, Permanent, Target *randx.Stream
}

// NewFaultStreams derives the three streams from a driver-chosen parent, so
// each driver keeps its own stream layout.
func NewFaultStreams(parent *randx.Stream) FaultStreams {
	return FaultStreams{
		Transient: parent.Child("transient"),
		Permanent: parent.Child("permanent"),
		Target:    parent.Child("target"),
	}
}

// KernelConfig configures a Kernel.
type KernelConfig struct {
	Model *workload.Model
	Calc  *robustness.Calculator
	// Budget is ζ_max; 0 or +Inf leaves the energy unconstrained.
	Budget float64
	// IdlePState is the state a core drops to when its queue empties; 0
	// means P4.
	IdlePState cluster.PState
	// VerifyEnergy makes the meter record its transitions for the exact
	// Eq. 1 cross-check.
	VerifyEnergy bool
	// Observer receives every kernel transition; it must be non-nil.
	Observer Observer
	// Faults is the failure-injection spec (zero: none), drawing from
	// FaultStreams (unused when Faults is disabled).
	Faults       fault.Spec
	FaultStreams FaultStreams
	// Brownout is the staged-degradation schedule (nil: none); it needs a
	// finite Budget.
	Brownout []energy.BrownoutStage
	// HeapHighWater, when non-nil, tracks the event heap's depth.
	HeapHighWater *metrics.Max
}

// Kernel is the shared queue/event/fault core; it implements
// sched.SystemView over its queues.
type Kernel struct {
	meter  *energy.Meter
	idle   cluster.PState
	obs    Observer
	fobs   FaultObserver
	bobs   BrownoutObserver
	cores  []cluster.CoreID
	queues [][]Queued
	// inSystem counts tasks occupying core queues.
	inSystem int
	events   eventHeap
	seq      int
	heapHW   *metrics.Max

	ftc *robustness.FreeTimeEngine
	// Per-decision scratch: the scheduler arena and the per-core
	// queue-snapshot buffers Queue() reuses. Safe because snapshots are
	// decision-scoped — their only consumers, the candidate shares, are
	// overwritten before the next decision reads them.
	arena *sched.Arena
	qbuf  sched.QueueSnapshots
	bro   *energy.Brownout

	spec     fault.Spec
	rng      FaultStreams
	down     []bool    // per flat core index
	downAt   []float64 // valid while down
	downTime float64   // core-time down, repaired cores
	nodeDead []bool    // per node index
	runGen   []int     // bumped on failure
}

var _ sched.SystemView = (*Kernel)(nil)

// NewKernel validates the configuration both drivers share — the idle
// P-state, the energy budget, the brownout schedule (which needs a finite
// budget) and the fault spec — and builds a kernel over the cluster with
// its energy meter: empty queues, every core up, no events scheduled.
func NewKernel(cfg KernelConfig) (*Kernel, error) {
	c := cfg.Model.Cluster
	if cfg.IdlePState == 0 {
		cfg.IdlePState = cluster.P4
	}
	if !cfg.IdlePState.Valid() {
		return nil, fmt.Errorf("invalid idle P-state %d", cfg.IdlePState)
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = math.Inf(1)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("energy budget %v must be positive (use 0 or +Inf to disable)", budget)
	}
	if len(cfg.Brownout) > 0 {
		if err := energy.ValidateBrownoutStages(cfg.Brownout); err != nil {
			return nil, err
		}
		if math.IsInf(budget, 1) {
			return nil, errors.New("brownout requires a finite energy budget")
		}
	}
	if cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(c.TotalCores(), c.N()); err != nil {
			return nil, err
		}
	}
	meter, err := energy.NewMeter(c, cfg.IdlePState, budget, cfg.VerifyEnergy)
	if err != nil {
		return nil, err
	}
	n := c.TotalCores()
	k := &Kernel{
		meter:    meter,
		idle:     cfg.IdlePState,
		obs:      cfg.Observer,
		cores:    c.Cores(),
		queues:   make([][]Queued, n),
		heapHW:   cfg.HeapHighWater,
		ftc:      robustness.NewFreeTimeEngine(cfg.Calc, n),
		arena:    sched.NewArena(),
		qbuf:     sched.NewQueueSnapshots(n),
		spec:     cfg.Faults,
		rng:      cfg.FaultStreams,
		down:     make([]bool, n),
		downAt:   make([]float64, n),
		nodeDead: make([]bool, c.N()),
		runGen:   make([]int, n),
	}
	k.fobs, _ = cfg.Observer.(FaultObserver)
	k.bobs, _ = cfg.Observer.(BrownoutObserver)
	if len(cfg.Brownout) > 0 {
		// Validated above; NewBrownout re-checks but cannot fail here.
		k.bro, _ = energy.NewBrownout(cfg.Brownout)
	}
	return k, nil
}

// Meter returns the kernel's energy meter. Drivers advance it to each
// event instant; the kernel changes its P-states and power overrides.
func (k *Kernel) Meter() *energy.Meter { return k.meter }

// IdlePState returns the state idle cores drop to.
func (k *Kernel) IdlePState() cluster.PState { return k.idle }

// NumCores implements sched.SystemView.
func (k *Kernel) NumCores() int { return len(k.cores) }

// CoreID implements sched.SystemView.
func (k *Kernel) CoreID(idx int) cluster.CoreID { return k.cores[idx] }

// Queue implements sched.SystemView: a snapshot of the core's occupancy,
// built into a reusable per-core buffer (snapshots are decision-scoped).
func (k *Kernel) Queue(idx int) robustness.CoreQueue {
	q := k.queues[idx]
	cq := robustness.CoreQueue{Node: k.cores[idx].Node}
	if len(q) == 0 {
		return cq
	}
	cq.Tasks = k.qbuf.Take(idx, len(q))
	for i, t := range q {
		cq.Tasks[i] = robustness.QueuedTask{
			Type:     t.Task.Type,
			PState:   t.PState,
			Deadline: t.Task.Deadline,
			Started:  t.Started,
			StartAt:  t.StartAt,
		}
	}
	return cq
}

// Tasks returns the core's live queue, head first. Callers may flip the
// head's Started/StartAt in place but must not retain the slice.
func (k *Kernel) Tasks(idx int) []Queued { return k.queues[idx] }

// SetTasks installs a core's queue wholesale (cancellation, fail-stop,
// recovery replay), keeping the occupancy count and free-time cache
// consistent with it.
func (k *Kernel) SetTasks(idx int, q []Queued) {
	k.inSystem += len(q) - len(k.queues[idx])
	k.queues[idx] = q
	k.ftc.Invalidate(idx)
}

// InSystem counts the tasks occupying core queues.
func (k *Kernel) InSystem() int { return k.inSystem }

// FreeTimes returns the kernel's free-time engine (for instrumentation).
func (k *Kernel) FreeTimes() *robustness.FreeTimeEngine { return k.ftc }

// Decorate attaches the kernel's share of a decision context: the
// free-time engine, the scheduler arena, and the active brownout stage's
// P-state floor and ζ_mul cap.
func (k *Kernel) Decorate(ctx *sched.Context) {
	ctx.FreeTimes = k.ftc
	ctx.Arena = k.arena
	if st := k.Stage(); st != nil {
		ctx.PStateFloor = st.PStateFloor
		ctx.ZetaMulOverride = st.ZetaMul
	}
}

// assignment reconstructs the sched.Assignment of a core's task.
func (k *Kernel) assignment(idx int, ps cluster.PState) sched.Assignment {
	return sched.Assignment{Core: k.cores[idx], CoreIdx: idx, PState: ps}
}

// Push schedules an event.
func (k *Kernel) Push(ev Event) {
	ev.seq = k.seq
	k.seq++
	k.events = append(k.events, ev)
	k.events.up(len(k.events) - 1)
	k.heapHW.Observe(float64(len(k.events)))
}

// Pop removes and returns the earliest event; the heap must be non-empty.
func (k *Kernel) Pop() Event {
	h := k.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	k.events = h[:n]
	k.events.down(0)
	return ev
}

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return len(k.events) }

// NextTime returns the earliest event's time, or +Inf with none pending.
func (k *Kernel) NextTime() float64 {
	if len(k.events) == 0 {
		return math.Inf(1)
	}
	return k.events[0].Time
}

// ResetEvents drops every scheduled event and restarts the tie-break
// sequence (halt, fail-stop, and the canonical rebuild after recovery).
func (k *Kernel) ResetEvents() {
	k.events = nil
	k.seq = 0
}

// Current reports whether a completion event still refers to the core's
// running execution (a failure since it was scheduled makes it stale).
func (k *Kernel) Current(ev Event) bool { return ev.Gen == k.runGen[ev.Idx] }

// RunGen returns the core's run generation, for rebuilt completion events.
func (k *Kernel) RunGen(idx int) int { return k.runGen[idx] }

// Enqueue appends a mapped task to its core's queue and reports whether the
// core was idle, in which case the driver starts it.
func (k *Kernel) Enqueue(now float64, a sched.Assignment, q Queued) bool {
	idx := a.CoreIdx
	k.queues[idx] = append(k.queues[idx], q)
	k.ftc.OnEnqueue(idx, a.Core.Node, q.Task.Type, q.PState, len(k.queues[idx]))
	k.inSystem++
	k.obs.TaskMapped(now, q.Task, a)
	return len(k.queues[idx]) == 1
}

// Start begins executing the head of the core's queue: the idle core
// transitions to the task's P-state and a completion event is scheduled
// wake + Actual later. The returned head is valid until the queue changes.
func (k *Kernel) Start(now float64, idx int, wake float64) *Queued {
	k.ftc.Invalidate(idx) // the head gains Started/StartAt
	head := &k.queues[idx][0]
	k.setPState(now, idx, head.PState)
	head.Started = true
	head.StartAt = now
	k.obs.TaskStarted(now, head.Task, k.assignment(idx, head.PState))
	k.Push(Event{Time: now + wake + head.Actual, Kind: EvCompletion, Idx: idx, Gen: k.runGen[idx]})
	return head
}

// Retire removes the finished head of the core's queue and reports whether
// it met its deadline. The driver then starts the next task or idles the
// core.
func (k *Kernel) Retire(now float64, idx int) (Queued, bool) {
	q := k.queues[idx]
	head := q[0]
	k.queues[idx] = q[1:]
	k.ftc.Invalidate(idx)
	k.inSystem--
	onTime := now <= head.Task.Deadline
	k.obs.TaskFinished(now, head.Task, k.assignment(idx, head.PState), onTime)
	return head, onTime
}

// Idle drops an empty, up core to the idle P-state, power-gated when the
// active brownout stage parks idle cores.
func (k *Kernel) Idle(now float64, idx int) {
	k.setPState(now, idx, k.idle)
	if st := k.Stage(); st != nil && st.ParkIdle {
		k.meter.SetPower(idx, 0)
	}
}

// setPState changes a core's P-state through the meter and notifies the
// observer of real transitions only. When a power override is active the
// meter call must happen even at an unchanged P-state, so the override is
// cleared and the core charges table power again.
func (k *Kernel) setPState(now float64, idx int, ps cluster.PState) {
	changed := k.meter.PStateOf(idx) != ps
	if !changed && !k.meter.Overridden(idx) {
		return
	}
	k.meter.SetPState(idx, ps)
	if changed {
		k.obs.PStateChanged(now, k.cores[idx], ps)
	}
}

// Stage returns the active brownout stage's measures (nil nominal).
func (k *Kernel) Stage() *energy.BrownoutStage {
	if k.bro == nil {
		return nil
	}
	return k.bro.Current()
}

// UpdateBrownout advances the brownout automaton to the meter's consumed
// fraction. On a stage change it notifies the observer and, when the new
// stage parks idle cores, gates every idle, up core. Drivers call it after
// each meter advance, so a stage trips at the first event at or after its
// crossing instant.
func (k *Kernel) UpdateBrownout(now float64) (stage int, changed bool) {
	if k.bro == nil {
		return 0, false
	}
	frac := k.meter.Consumed() / k.meter.Budget()
	if stage, changed = k.bro.Update(frac); !changed {
		return stage, false
	}
	if k.bobs != nil {
		k.bobs.BrownoutStageChanged(now, stage, frac)
	}
	if k.bro.Current().ParkIdle {
		k.gateIdle()
	}
	return stage, true
}

// RestoreBrownout brings the automaton to the stage a restored meter
// implies, silently, and re-applies that stage's idle gating.
func (k *Kernel) RestoreBrownout() int {
	if k.bro == nil {
		return 0
	}
	stage, _ := k.bro.Update(k.meter.Consumed() / k.meter.Budget())
	if k.bro.Current() != nil && k.bro.Current().ParkIdle {
		k.gateIdle()
	}
	return stage
}

func (k *Kernel) gateIdle() {
	for i := range k.queues {
		if len(k.queues[i]) == 0 && !k.down[i] {
			k.meter.SetPower(i, 0)
		}
	}
}

// ScheduleFaults seeds the first firing of each enabled stochastic process
// and every scripted entry, returning the processes' absolute first firing
// times (0 when disabled).
func (k *Kernel) ScheduleFaults() (nextTransient, nextPermanent float64) {
	if k.spec.Transient.Enabled {
		nextTransient = k.spec.Transient.Sample(k.rng.Transient)
		k.Push(Event{Time: nextTransient, Kind: EvFault, Idx: SrcTransient})
	}
	if k.spec.Permanent.Enabled {
		nextPermanent = k.spec.Permanent.Sample(k.rng.Permanent)
		k.Push(Event{Time: nextPermanent, Kind: EvFault, Idx: SrcPermanent})
	}
	for i, sf := range k.spec.Script {
		k.Push(Event{Time: sf.Time, Kind: EvFault, Idx: SrcScript + i})
	}
	return nextTransient, nextPermanent
}

// Target resolves the failure a fault event of source src delivers:
// stochastic sources pick a victim uniformly among up cores (transient) or
// alive nodes (permanent), consuming one target draw; false means nothing
// is left to strike.
func (k *Kernel) Target(src int) (Strike, bool) {
	switch src {
	case SrcTransient:
		idx, ok := pickUp(k.down, k.rng.Target)
		return Strike{Kind: fault.Transient, Core: idx, Node: -1, Repair: k.spec.RepairTime}, ok
	case SrcPermanent:
		node, ok := pickUp(k.nodeDead, k.rng.Target)
		return Strike{Kind: fault.Permanent, Core: -1, Node: node}, ok
	}
	sf := k.spec.Script[src-SrcScript]
	if sf.Kind == fault.Permanent {
		return Strike{Kind: fault.Permanent, Core: -1, Node: sf.Node}, true
	}
	repair := sf.Repair
	if repair <= 0 {
		repair = k.spec.RepairTime
	}
	return Strike{Kind: fault.Transient, Core: sf.Core, Node: -1, Repair: repair}, true
}

// countUp counts the false entries of failed.
func countUp(failed []bool) int {
	up := 0
	for _, f := range failed {
		if !f {
			up++
		}
	}
	return up
}

// pickUp selects uniformly among the false entries of failed; no draw is
// consumed when every entry has failed.
func pickUp(failed []bool, rng *randx.Stream) (int, bool) {
	up := countUp(failed)
	if up == 0 {
		return 0, false
	}
	n := rng.IntN(up)
	for i, f := range failed {
		if f {
			continue
		}
		if n == 0 {
			return i, true
		}
		n--
	}
	return 0, false // unreachable
}

// Reschedule schedules a stochastic source's next firing and returns its
// absolute time; 0 for scripted sources and once every node is dead (no
// core can ever be struck again, and rescheduling would spin forever).
func (k *Kernel) Reschedule(now float64, src int) float64 {
	if src >= SrcScript || countUp(k.nodeDead) == 0 {
		return 0
	}
	p, rng := &k.spec.Transient, k.rng.Transient
	if src == SrcPermanent {
		p, rng = &k.spec.Permanent, k.rng.Permanent
	}
	next := now + p.Sample(rng)
	k.Push(Event{Time: next, Kind: EvFault, Idx: src})
	return next
}

// Down reports whether a core is failed; NodeDead whether a node failed
// permanently.
func (k *Kernel) Down(idx int) bool      { return k.down[idx] }
func (k *Kernel) NodeDead(node int) bool { return k.nodeDead[node] }

// SetDown and SetNodeDead install restored fault state (recovery replay).
func (k *Kernel) SetDown(idx int, down bool)      { k.down[idx] = down }
func (k *Kernel) SetNodeDead(node int, dead bool) { k.nodeDead[node] = dead }

// DownTime returns the core-time spent failed up to now, summed over cores.
func (k *Kernel) DownTime(now float64) float64 {
	t := k.downTime
	for i, d := range k.down {
		if d {
			t += now - k.downAt[i]
		}
	}
	return t
}

// Strike applies one failure. A transient strike downs its core; a
// permanent one marks the node dead and downs each of its cores in index
// order (a node already dead is left alone). Downing a core kills whatever
// it runs — the energy is spent; the run generation makes the pending
// completion stale — and hands its stranded queue, running head first, to
// strand before the core's draw drops to zero and, for a transient strike,
// its repair is scheduled. strand runs once per core actually downed,
// before the next core goes down.
func (k *Kernel) Strike(now float64, s Strike, strand func(now float64, idx int, q []Queued)) {
	if s.Kind == fault.Permanent {
		if k.nodeDead[s.Node] {
			return
		}
		k.nodeDead[s.Node] = true
		for idx, id := range k.cores {
			if id.Node == s.Node {
				k.downCore(now, s.Kind, idx, 0, strand)
			}
		}
		return
	}
	k.downCore(now, s.Kind, s.Core, s.Repair, strand)
}

func (k *Kernel) downCore(now float64, kind fault.Kind, idx int, repair float64, strand func(float64, int, []Queued)) {
	if k.down[idx] {
		return
	}
	k.down[idx] = true
	k.downAt[idx] = now
	k.runGen[idx]++
	if k.fobs != nil {
		k.fobs.CoreFailed(now, k.cores[idx], kind, repair)
	}
	q := k.queues[idx]
	k.queues[idx] = nil
	k.ftc.Invalidate(idx)
	k.inSystem -= len(q)
	strand(now, idx, q)
	k.meter.SetPower(idx, 0)
	if kind == fault.Transient {
		k.Push(Event{Time: now + repair, Kind: EvRepair, Idx: idx})
	}
}

// Repair brings a transiently-failed core back at the idle P-state (gated
// under a parking brownout stage). It reports false, changing nothing, when
// the core is up or its node died permanently while the repair was pending
// (the repair must not resurrect it).
func (k *Kernel) Repair(now float64, idx int) bool {
	if !k.down[idx] || k.nodeDead[k.cores[idx].Node] {
		return false
	}
	k.down[idx] = false
	k.downTime += now - k.downAt[idx]
	k.meter.ClearPower(idx)
	k.Idle(now, idx)
	if k.fobs != nil {
		k.fobs.CoreRepaired(now, k.cores[idx])
	}
	return true
}

// Requeue applies the recovery policy to a task stranded at now after used
// retries. It reports false when the task is lost: drop recovery, retries
// exhausted, or a deadline-aware policy finding it already late (a retry
// could only burn energy on a missed deadline). Otherwise the observer
// hears of retry used+1 and an EvRequeue event carrying idx fires after the
// backoff — used+1 times the base, capped at half the remaining slack when
// deadline-aware — at the returned time.
func (k *Kernel) Requeue(now float64, task workload.Task, used, idx int) (float64, bool) {
	rec := k.spec.Recovery
	if rec.Mode != fault.Requeue || used >= rec.MaxRetries || (rec.DeadlineAware && task.Deadline <= now) {
		return 0, false
	}
	delay := rec.Backoff * float64(used+1)
	if rec.DeadlineAware {
		if slack := task.Deadline - now; delay > slack/2 {
			delay = slack / 2
		}
	}
	if k.fobs != nil {
		k.fobs.TaskRequeued(now, task, used+1)
	}
	at := now + delay
	k.Push(Event{Time: at, Kind: EvRequeue, Idx: idx})
	return at, true
}
