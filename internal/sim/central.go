package sim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/robustness"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Central-queue scheduling mode — the §VIII "ability to cancel and/or
// reschedule tasks" direction. Instead of committing each task to a core
// and P-state the instant it arrives (immediate mode, §III-B), arriving
// tasks wait in one cluster-wide pool and commit only when a core is ready
// to execute them. Deferring the decision lets the scheduler exploit
// everything it learns between arrival and start: which cores actually
// freed up, and how much energy remains.
//
// The mode reuses the engine's event loop: arrivals enter the pool, and a
// dispatch step greedily matches idle cores with pool tasks whenever
// either appears.

// PullPolicy decides, for an idle core, which pooled task to execute next
// and at which P-state. Implementations see the same robustness calculator
// the immediate-mode heuristics use.
type PullPolicy interface {
	// Name identifies the policy in results.
	Name() string
	// Select picks a task index from the pool (and a P-state) for the idle
	// core, or -1 to leave the core idle. pool is never empty. The engine
	// passes the node of the idle core, the current time, and the
	// heuristic-side remaining-energy estimate ζ(t_l).
	Select(calc *robustness.Calculator, pool []workload.Task, node int, now, energyLeft float64, tasksLeft int) (int, cluster.PState)
}

// EDFCheapest is the default pull policy: earliest deadline first, run at
// the cheapest P-state whose on-time probability still clears the
// threshold (default 0.5), or the fastest P-state when none does. It
// combines the robustness filter's idea with deadline ordering.
type EDFCheapest struct {
	// RhoThresh is the acceptable on-time probability (0 means 0.5).
	RhoThresh float64
}

// Name returns "EDFCheapest".
func (EDFCheapest) Name() string { return "EDFCheapest" }

// Select implements PullPolicy.
func (p EDFCheapest) Select(calc *robustness.Calculator, pool []workload.Task, node int, now, _ float64, _ int) (int, cluster.PState) {
	thresh := p.RhoThresh
	if thresh == 0 {
		thresh = 0.5
	}
	best := 0
	for i := 1; i < len(pool); i++ {
		if pool[i].Deadline < pool[best].Deadline {
			best = i
		}
	}
	task := pool[best]
	// The core is idle: completion distribution is the execution pmf
	// shifted to now. Walk from the cheapest state up.
	m := calc.Model()
	for ps := cluster.NumPStates - 1; ps >= 0; ps-- {
		state := cluster.PState(ps)
		rho := m.ExecPMF(task.Type, node, state).Shift(now).ProbByDeadline(task.Deadline)
		if rho >= thresh {
			return best, state
		}
	}
	return best, cluster.P0
}

// validateCentral checks the central-queue configuration.
func validateCentral(cfg Config) error {
	if cfg.CentralQueue == nil {
		return nil
	}
	if cfg.Mapper != nil {
		return fmt.Errorf("sim: CentralQueue replaces the Mapper; configure exactly one")
	}
	if cfg.CancelOverdueWaiting {
		return fmt.Errorf("sim: CancelOverdueWaiting applies to per-core queues, not the central pool")
	}
	return nil
}

// dispatch matches idle cores to pool tasks until one side runs dry.
func (e *engine) dispatch(now float64) {
	for len(e.pool) > 0 && len(e.idle) > 0 {
		// Deterministic idle-core order: lowest flat index first.
		coreIdx := -1
		for idx := range e.idle {
			if coreIdx == -1 || idx < coreIdx {
				coreIdx = idx
			}
		}
		core := e.k.CoreID(coreIdx)
		pick, ps := e.policy.Select(e.calc, e.pool, core.Node, now, e.energyLeft, 0)
		if pick < 0 || pick >= len(e.pool) {
			return // policy declines; core stays idle
		}
		// An active brownout stage floors dispatch at frugal P-states
		// regardless of what the pull policy asked for.
		if st := e.k.Stage(); st != nil && ps < st.PStateFloor {
			ps = st.PStateFloor
		}
		task := e.pool[pick]
		e.pool = append(e.pool[:pick], e.pool[pick+1:]...)
		delete(e.idle, coreIdx)
		a := e.k.assignment(coreIdx, ps)

		exec := e.cfg.Model.ExecPMF(task.Type, core.Node, ps)
		eec := exec.Mean() * e.cfg.Model.Cluster.Node(core).Power[ps] /
			e.cfg.Model.Cluster.Node(core).Efficiency
		e.energyLeft -= eec
		e.res.Mapped++
		e.met.mapped.Inc()
		if e.dobs != nil {
			// The core is idle at dispatch, so the predicted completion
			// distribution is the execution pmf shifted to now — the same
			// quantity EDFCheapest evaluates when choosing the P-state.
			comp := exec.Shift(now)
			e.dobs.TaskDecision(now, task, a, sched.Prediction{
				Rho:  comp.ProbByDeadline(task.Deadline),
				Mean: comp.Mean(),
				P50:  comp.Quantile(0.5),
				P99:  comp.Quantile(0.99),
			}, eec)
		}
		if e.cfg.Trace {
			tr := &e.res.Traces[task.ID]
			tr.Mapped = true
			tr.Assignment = a
		}
		// Central queues hold at most the running task, so the core was
		// idle and the enqueue starts it at once.
		actual := e.cfg.Model.ActualExecTime(task, core.Node, ps)
		e.k.Enqueue(now, a, Queued{Task: task, PState: ps, Actual: actual})
		e.start(now, coreIdx)
	}
}
