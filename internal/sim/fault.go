package sim

// The simulator's side of fault injection. The kernel owns the mechanics
// (victim picking, strike, repair, backoff); the driver here counts what
// they do into the Result and routes retries back through the mapper.
// Everything is gated on the fault spec being enabled, so the paper's
// fault-free configuration takes none of these paths and stays
// bit-identical (enforced by test and benchmark).

import (
	"repro/internal/workload"
)

// initFaults prepares the driver's fault state and schedules the first
// failure of each enabled process plus every scripted fault.
func (e *engine) initFaults() {
	e.attempts = make(map[int]int)
	avail := e.cfg.Faults.Availability()
	e.coreUpFn = func(idx int) bool { return !e.k.Down(idx) }
	e.availFn = func(int) float64 { return avail }
	e.k.ScheduleFaults()
}

// faultWorkRemains reports whether any task could still be affected by a
// future failure: arrivals pending, tasks queued or running, requeue events
// in flight, or (central mode) tasks pooled. Once it is false, fault events
// are dropped instead of processed, which is what lets the event loop drain
// — the stochastic processes otherwise reschedule themselves forever.
func (e *engine) faultWorkRemains() bool {
	return e.arrived < len(e.trial.Tasks) || e.k.InSystem() > 0 || e.pendingReq > 0 || len(e.pool) > 0
}

// handleFault fires one failure source and reschedules it.
func (e *engine) handleFault(now float64, src int) {
	if s, ok := e.k.Target(src); ok {
		e.res.Faults++
		e.met.faults[s.Kind].Inc()
		e.k.Strike(now, s, e.strand)
	}
	e.k.Reschedule(now, src)
}

// strand accounts for one downed core: its running task is killed, every
// stranded task goes to recovery, and a parked core's gating ends.
func (e *engine) strand(now float64, coreIdx int, q []Queued) {
	for i := range q {
		if q[i].Started {
			e.res.TasksKilled++
			e.met.killed.Inc()
		}
		if e.fobs != nil {
			e.fobs.TaskKilled(now, q[i].Task, e.k.CoreID(coreIdx))
		}
		e.recoverTask(now, q[i].Task)
	}
	if e.cfg.Park.Enabled {
		e.idleGen[coreIdx]++ // invalidate pending park checks
		if e.parked[coreIdx] {
			e.parked[coreIdx] = false
			e.res.ParkedTime += now - e.parkedAt[coreIdx]
		}
	}
	delete(e.idle, coreIdx)
}

// handleRepair brings a transiently-failed core back and makes it eligible
// for work again.
func (e *engine) handleRepair(now float64, coreIdx int) {
	if !e.k.Repair(now, coreIdx) {
		return
	}
	e.schedulePark(now, coreIdx)
	if e.policy != nil {
		e.idle[coreIdx] = true
		e.dispatch(now)
	}
}

// recoverTask routes one stranded task through the recovery policy: either
// it is lost, or a requeue event is scheduled after the backoff.
func (e *engine) recoverTask(now float64, task workload.Task) {
	used := e.attempts[task.ID]
	if _, ok := e.k.Requeue(now, task, used, task.ID); !ok {
		e.res.LostToFailure++
		e.met.failed.Inc()
		if e.cfg.Trace {
			e.res.Traces[task.ID].Outcome = OutcomeFailed
		}
		return
	}
	e.attempts[task.ID] = used + 1
	e.pendingReq++
}

// handleRequeue re-dispatches a previously-stranded task. In immediate mode
// it re-enters the mapper — full candidate enumeration and filter chain, so
// a retry still has to justify its energy and robustness. In central mode
// it rejoins the pool. A retry that fails admission goes back through
// recovery, consuming another attempt, until the bound is hit.
func (e *engine) handleRequeue(now float64, taskID int) {
	e.pendingReq--
	e.res.Retries++
	e.met.requeues.Inc()
	task := e.trial.Tasks[taskID]
	if e.policy != nil {
		e.pool = append(e.pool, task)
		e.dispatch(now)
		return
	}
	if chosen := e.decide(now, task, len(e.trial.Tasks)-e.arrived); chosen != nil {
		e.place(now, task, chosen)
		return
	}
	e.recoverTask(now, task)
}
