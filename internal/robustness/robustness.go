// Package robustness implements §IV of the paper: stochastic completion
// times and the robustness measure ρ. A resource allocation is robust
// against uncertain task execution times; its robustness at time-step t_l
// is the expected number of tasks that will complete by their individual
// deadlines (Eqs. 3–4). For immediate-mode mapping the per-assignment
// quantity is ρ(i,j,k,π,t_l,z): the probability that task z completes by
// its deadline if assigned to core k of processor j in node i at P-state π.
//
// The completion-time pipeline follows §IV-B exactly: the currently
// executing task's execution-time pmf is shifted by its start time, the
// impulses already in the past are removed and the remainder renormalized,
// and the result is convolved with the execution-time pmfs of the waiting
// tasks and finally with the candidate task's own pmf.
package robustness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/workload"
)

// QueuedTask is the robustness-relevant view of a task occupying a core:
// its type, the P-state it was assigned, its deadline, and — if it is the
// task currently executing — its start time.
type QueuedTask struct {
	Type     int
	PState   cluster.PState
	Deadline float64
	Started  bool
	StartAt  float64
}

// CoreQueue is the ordered content of one core at a time-step: the first
// entry, if Started, is the currently executing task; the rest are waiting
// in FIFO order. Node identifies the core's node (all cores of a node are
// homogeneous, so nothing further is needed).
type CoreQueue struct {
	Node  int
	Tasks []QueuedTask
}

// Calculator computes completion-time distributions and robustness values
// against a fixed workload model. It holds no mutable state beyond
// optional atomic instrumentation counters and is safe for concurrent use.
type Calculator struct {
	model *workload.Model

	// Optional instrumentation, attached via Instrument. The counters are
	// atomic, so attaching them preserves concurrent safety; nil counters
	// make the increments no-ops.
	freeTimeEvals   *metrics.Counter
	completionEvals *metrics.Counter
}

// NewCalculator returns a Calculator for the given model.
func NewCalculator(m *workload.Model) *Calculator {
	if m == nil {
		panic("robustness: nil model")
	}
	return &Calculator{model: m}
}

// Instrument attaches counters for free-time chain evaluations (one per
// FreeTime call, each walking a convolution chain down a core's queue) and
// candidate completion-distribution evaluations (one per CompletionPMF
// call). Either counter may be nil.
func (c *Calculator) Instrument(freeTimeEvals, completionEvals *metrics.Counter) {
	c.freeTimeEvals = freeTimeEvals
	c.completionEvals = completionEvals
}

// FreeTime returns the distribution of the instant the core becomes free
// (finishes everything in queue), predicted at time now. An empty queue
// yields the degenerate distribution at now — the core's ready time.
func (c *Calculator) FreeTime(q CoreQueue, now float64) pmf.PMF {
	c.freeTimeEvals.Inc()
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	var free pmf.PMF
	t0 := q.Tasks[0]
	if t0.Started {
		// Completion distribution of the running task: shift by its
		// start, drop past impulses, renormalize (§IV-B).
		free, _ = c.model.ExecPMF(t0.Type, q.Node, t0.PState).Shift(t0.StartAt).TruncateBelow(now)
	} else {
		// Convolving Point(now) with the head's execution PMF is exactly
		// the degenerate-operand shift shortcut inside Convolve.
		free = c.model.ExecPMF(t0.Type, q.Node, t0.PState).Shift(now)
	}
	for _, t := range q.Tasks[1:] {
		free = pmf.Convolve(free, c.model.ExecPMF(t.Type, q.Node, t.PState))
	}
	return free
}

// CompletionPMF returns the completion-time distribution of a candidate
// task of the given type if appended to a core of the given node at P-state
// p, where free is the core's FreeTime distribution.
func (c *Calculator) CompletionPMF(free pmf.PMF, taskType, node int, p cluster.PState) pmf.PMF {
	c.completionEvals.Inc()
	return pmf.Convolve(free, c.model.ExecPMF(taskType, node, p))
}

// ProbOnTime returns ρ(i,j,k,π,t_l,z) for a candidate assignment: the
// probability the task completes by deadline given the core's FreeTime
// distribution.
func (c *Calculator) ProbOnTime(free pmf.PMF, taskType, node int, p cluster.PState, deadline float64) float64 {
	return c.CompletionPMF(free, taskType, node, p).ProbByDeadline(deadline)
}

// ExpectedCompletion returns ECT (§V-A) for a candidate assignment. By
// linearity of expectation it avoids the convolution entirely.
func (c *Calculator) ExpectedCompletion(free pmf.PMF, taskType, node int, p cluster.PState) float64 {
	return free.Mean() + c.model.ExecPMF(taskType, node, p).Mean()
}

// CoreRobustness evaluates ρ(i,j,k,t_l) (Eq. 3): the expected number of
// on-time completions among the tasks currently occupying the core,
// predicted at time now.
func (c *Calculator) CoreRobustness(q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return 0
	}
	sum := 0.0
	var done pmf.PMF // completion distribution of the prefix
	for i, t := range q.Tasks {
		exec := c.model.ExecPMF(t.Type, q.Node, t.PState)
		if i == 0 {
			if t.Started {
				comp := exec.Shift(t.StartAt)
				comp, _ = comp.TruncateBelow(now)
				done = comp
			} else {
				done = exec.Shift(now)
			}
		} else {
			done = pmf.Convolve(done, exec)
		}
		sum += done.ProbByDeadline(t.Deadline)
	}
	return sum
}

// SystemRobustness evaluates ρ(t_l) (Eq. 4): the sum of CoreRobustness
// over every core in the cluster.
func (c *Calculator) SystemRobustness(queues []CoreQueue, now float64) float64 {
	sum := 0.0
	for i := range queues {
		sum += c.CoreRobustness(queues[i], now)
	}
	return sum
}

// Model returns the workload model the calculator evaluates against.
func (c *Calculator) Model() *workload.Model { return c.model }

// String identifies the calculator for diagnostics.
func (c *Calculator) String() string {
	return fmt.Sprintf("robustness.Calculator{types=%d nodes=%d}",
		c.model.Params.TaskTypes, c.model.Cluster.N())
}
