// Package sched implements §V of the paper: the immediate-mode resource
// allocation heuristics (Shortest Queue, Minimum Expected Completion Time,
// Lightest Load, Random) and the two generic filtering mechanisms (energy
// filter and robustness filter) that restrict the set of feasible
// assignments any heuristic may consider.
//
// An assignment maps a single task to a (node, multicore processor, core,
// P-state). A filter may eliminate every assignment, in which case the task
// is discarded (§V-A) and counts as a missed deadline.
package sched

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/pmf"
	"repro/internal/randx"
	"repro/internal/robustness"
	"repro/internal/workload"
)

// Assignment addresses one feasible mapping target: a core (by hierarchical
// ID and flat index) and a P-state.
type Assignment struct {
	Core    cluster.CoreID
	CoreIdx int
	PState  cluster.PState
}

// String renders the assignment compactly.
func (a Assignment) String() string { return fmt.Sprintf("%v@%v", a.Core, a.PState) }

// Candidate is one feasible assignment for the task being mapped, together
// with the quantities heuristics and filters consume. QueueLen, EET, and
// EEC are computed eagerly (they are cheap table reads). Everything that
// needs the core's free-time state is lazy and answers only what is asked:
// ECT reads the core's expected free time, computed on the first ECT of
// any of the core's candidates and shared by the rest; Rho evaluates ρ on
// first use; RhoAtLeast answers only whether ρ reaches a threshold, which
// the free-time engine can often settle before finishing the sum.
type Candidate struct {
	Assignment
	// QueueLen is |MQ(i,j,k,t_l)|: tasks currently assigned to the core.
	QueueLen int
	// EET is the expected execution time of the task under this assignment.
	EET float64
	// EEC is the expected energy consumption (§V-A): EET·μ(i,π)/ε(i).
	EEC float64

	share    *coreShare
	deadline float64
	taskType int

	// rho memoizes ρ once known. rhoUnasked (set by BuildCandidates) means
	// no ρ question was asked yet; rhoUnknown means RhoAtLeast settled a
	// verdict without the value, and part holds the prefix of ρ's sum it
	// computed, which Rho finishes instead of repeating.
	rho  float64
	part pmf.CDFPartial
}

// Sentinels of Candidate.rho; ρ itself is never negative.
const (
	rhoUnasked = -1
	rhoUnknown = -2
)

// ECT returns the expected completion time (§V-A). By linearity of
// expectation it is the core's expected free time plus EET, with no
// convolution needed.
func (c *Candidate) ECT() float64 { return c.share.freeMean() + c.EET }

// Rho returns ρ(i,j,k,π,t_l,z): the probability of the task completing by
// its deadline under this assignment, evaluated once by the free-time
// engine against the queue snapshot captured at BuildCandidates time and
// cached.
func (c *Candidate) Rho() float64 {
	if c.rho < 0 {
		s := c.share
		if c.rho == rhoUnasked {
			s.counters.addRho()
		}
		c.rho = s.ft.ProbOnTimeFrom(s.idx, s.q, s.now, c.taskType, c.PState, c.deadline, c.part)
	}
	return c.rho
}

// RhoAtLeast reports Rho() >= t, with exactly that comparison's verdict,
// without necessarily computing ρ in full: the free-time engine stops its
// prefix-sum pass once the verdict is settled. What it did compute is kept
// for a later Rho(): ρ itself when the engine finished the sum, else the
// summed prefix (a candidate that passed on a prefix may still need ρ, as
// LL's load does).
func (c *Candidate) RhoAtLeast(t float64) bool {
	if c.rho >= 0 {
		return c.rho >= t
	}
	s := c.share
	if c.rho == rhoUnasked {
		s.counters.addRho()
	}
	ok, rho, part := s.ft.ProbAtLeast(s.idx, s.q, s.now, c.taskType, c.PState, c.deadline, t)
	c.rho, c.part = rho, part
	if rho < 0 {
		c.rho = rhoUnknown
	}
	return ok
}

// Prediction is the scheduler's forecast for a chosen assignment at
// decision time: the robustness value ρ and a summary of the predicted
// completion-time distribution. The flight recorder persists it so the
// calibration stage can check predictions against observed outcomes.
type Prediction struct {
	// Rho is ρ(i,j,k,π,t_l,z): the predicted on-time probability.
	Rho float64
	// Mean, P50, and P99 summarize the predicted completion-time PMF
	// (absolute times, same axis as Arrival/Deadline).
	Mean, P50, P99 float64
}

// Predict evaluates the candidate's completion-time forecast: ρ plus the
// mean/median/p99 of the predicted completion distribution. Like Rho it
// convolves against the queue snapshot captured at BuildCandidates time, so
// it must be called before the chosen task is enqueued.
func (c *Candidate) Predict() Prediction {
	comp := c.share.calc.CompletionPMF(c.share.FreePMF(), c.taskType, c.Core.Node, c.PState)
	return Prediction{
		Rho:  c.Rho(),
		Mean: comp.Mean(),
		P50:  comp.Quantile(0.5),
		P99:  comp.Quantile(0.99),
	}
}

// Context is the information available to heuristics and filters when
// mapping one task at time-step t_l.
type Context struct {
	// Now is t_l, the decision instant (the task's arrival time).
	Now float64
	// Task is the task being mapped.
	Task workload.Task
	// Model is the fixed workload model.
	Model *workload.Model
	// Calc evaluates completion-time distributions.
	Calc *robustness.Calculator
	// EnergyLeft is ζ(t_l): the heuristic's running estimate of remaining
	// energy (budget minus the EEC of every assignment made so far, §V-F).
	EnergyLeft float64
	// TasksLeft is T_left(t_l): window tasks that have not yet arrived.
	TasksLeft int
	// AvgQueueDepth is the running time-average of per-core queue depth
	// (queued plus executing tasks divided by total cores), which selects
	// the energy filter's ζ_mul band.
	AvgQueueDepth float64
	// Rand drives the Random heuristic's choice.
	Rand *randx.Stream
	// Counters, when non-nil, receives hot-path instrumentation (candidate
	// enumeration, free-time cache traffic, filter rejections).
	Counters *Counters
	// FreeTimes is the cross-decision free-time engine every ρ and ECT
	// comes from (required): BuildCandidates consults and maintains its
	// per-core cached grid chains.
	FreeTimes *robustness.FreeTimeEngine

	// CoreUp, when non-nil, reports whether the core at a flat index is
	// currently up; BuildCandidates skips down cores entirely. Nil means
	// every core is up (the paper's fault-free world).
	CoreUp func(coreIdx int) bool
	// Availability, when non-nil, gives the steady-state probability that
	// the core at a flat index is up, for the reliability filter's ρ
	// discount. Nil means availability 1 everywhere.
	Availability func(coreIdx int) float64
	// PStateFloor, when above P0, restricts candidates to P-states at or
	// below it in speed (ps >= floor) — the brownout controller's lever for
	// forcing frugal dispatch as the budget drains.
	PStateFloor cluster.PState
	// ZetaMulOverride, when positive, caps the energy filter's ζ_mul at
	// min(schedule value, override) — the brownout controller's admission
	// tightening.
	ZetaMulOverride float64

	// Arena, when non-nil, is the caller-owned scratch BuildCandidates and
	// Map reuse across decisions, eliminating steady-state candidate
	// allocations. With an arena the candidate slice and the candidates it
	// points to are valid only until the next BuildCandidates call that
	// uses the same arena, and Map compacts the slice in place.
	Arena *Arena
}

// availability resolves the context's availability estimate for a core.
func (ctx *Context) availability(coreIdx int) float64 {
	if ctx.Availability == nil {
		return 1
	}
	return ctx.Availability(coreIdx)
}

// SystemView is the scheduler's read-only window into the simulator state.
type SystemView interface {
	// NumCores returns the number of cores in the cluster.
	NumCores() int
	// CoreID returns the hierarchical ID of the core at a flat index.
	CoreID(idx int) cluster.CoreID
	// Queue returns the core's current occupancy snapshot in FIFO order.
	Queue(idx int) robustness.CoreQueue
}

// BuildCandidates enumerates every (core, P-state) assignment for the
// context's task, precomputing queue lengths, EET, and EEC. The core's
// expected free time (for ECT) and ρ are evaluated lazily, on first use,
// through ctx.FreeTimes.
func BuildCandidates(ctx *Context, view SystemView) []*Candidate {
	if ctx.FreeTimes == nil {
		panic("sched: Context.FreeTimes is required")
	}
	n := view.NumCores()
	arena := ctx.Arena
	var cands []*Candidate
	if arena != nil {
		arena.grow(n*cluster.NumPStates, n)
		cands = arena.ptrs[:0]
	} else {
		cands = make([]*Candidate, 0, n*cluster.NumPStates)
	}
	ctx.Counters.addDecision()
	for idx := 0; idx < n; idx++ {
		if ctx.CoreUp != nil && !ctx.CoreUp(idx) {
			continue
		}
		id := view.CoreID(idx)
		q := view.Queue(idx)
		node := ctx.Model.Cluster.Node(id)

		// The per-decision share carries the core's queue snapshot for the
		// engine's ρ, plus the lazily computed free-time mean ECT reads and
		// free-time distribution Predict reads, shared by all of the
		// core's P-state candidates.
		var share *coreShare
		if arena != nil {
			share = &arena.shares[idx]
		} else {
			share = new(coreShare)
		}
		*share = coreShare{ft: ctx.FreeTimes, calc: ctx.Calc, counters: ctx.Counters, idx: idx, q: q, now: ctx.Now}
		for _, ps := range cluster.AllPStates() {
			if ps < ctx.PStateFloor {
				continue
			}
			eet := ctx.Model.ExecMean(ctx.Task.Type, id.Node, ps)
			var c *Candidate
			if arena != nil {
				c = &arena.cands[len(cands)]
			} else {
				c = new(Candidate)
			}
			// Field-wise assignment instead of a struct literal: the
			// literal's stack temporary plus duffcopy is measurable at 300
			// candidates per decision, and with an arena every field must
			// be overwritten anyway.
			c.Assignment = Assignment{Core: id, CoreIdx: idx, PState: ps}
			c.QueueLen = len(q.Tasks)
			c.EET = eet
			c.EEC = energy.ExpectedEnergy(node, ps, eet)
			c.share = share
			c.deadline = ctx.Task.Deadline
			c.taskType = ctx.Task.Type
			c.rho = rhoUnasked
			c.part = pmf.CDFPartial{}
			cands = append(cands, c)
		}
	}
	if arena != nil {
		arena.ptrs = cands
	}
	ctx.Counters.addCandidates(len(cands))
	return cands
}

// Heuristic selects one assignment from the feasible (post-filter) set.
type Heuristic interface {
	// Name identifies the heuristic in results and traces.
	Name() string
	// NeedsRho reports whether the heuristic reads Candidate.Rho, so the
	// mapper can skip convolution work entirely when it does not.
	NeedsRho() bool
	// Choose picks an assignment from a non-empty feasible set. The slice
	// is ordered deterministically (core-major, P-state-minor).
	Choose(ctx *Context, feasible []*Candidate) *Candidate
}

// Filter restricts the feasible assignment set (§V-F). Filters are generic:
// they can be applied to any heuristic.
type Filter interface {
	// Name identifies the filter in results and traces.
	Name() string
	// NeedsRho reports whether the filter reads Candidate.Rho.
	NeedsRho() bool
	// Keep reports whether the candidate remains feasible.
	Keep(ctx *Context, c *Candidate) bool
}

// Mapper combines a heuristic with zero or more filters into the complete
// immediate-mode mapping policy.
type Mapper struct {
	Heuristic Heuristic
	Filters   []Filter
}

// Name renders "heuristic" or "heuristic+f1+f2".
func (m *Mapper) Name() string {
	s := m.Heuristic.Name()
	for _, f := range m.Filters {
		s += "+" + f.Name()
	}
	return s
}

// Map applies the filters to the candidate set and lets the heuristic pick
// from the survivors. It returns nil when every assignment was filtered
// out, in which case the task is discarded (§V-A).
func (m *Mapper) Map(ctx *Context, cands []*Candidate) *Candidate {
	feasible := cands
	for i, f := range m.Filters {
		// With an arena the pointer slice is decision-scoped scratch, so
		// filtering compacts it in place; without one the original slice is
		// left untouched for the caller.
		kept := feasible[:0:0]
		if ctx.Arena != nil {
			kept = feasible[:0]
		}
		for _, c := range feasible {
			if f.Keep(ctx, c) {
				kept = append(kept, c)
			}
		}
		ctx.Counters.addRejections(i, len(feasible)-len(kept))
		feasible = kept
		if len(feasible) == 0 {
			ctx.Counters.addDiscard()
			return nil
		}
	}
	return m.Heuristic.Choose(ctx, feasible)
}
