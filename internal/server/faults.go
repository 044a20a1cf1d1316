package server

// Live fault injection for the serving engine. The shared event kernel
// (sim.Kernel) owns the mechanics: a failure kills whatever the stricken
// core is doing (the energy is already spent), the run-generation counter
// invalidates its pending completion event, and stranded tasks go through
// the recovery policy's backoff. On top of that the serving path logs
// every step to the WAL, mirrors the fault schedule for checkpoints, and
// feeds every strike into the per-node circuit breakers, so mapping routes
// around flapping nodes instead of rediscovering them the hard way.

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scheduleFaults seeds the event heap with the first firing of each
// enabled stochastic process and every scripted entry, mirroring the
// absolute firing times into the checkpointable schedule fields.
func (e *Engine) scheduleFaults() {
	e.nextTransient, e.nextPermanent = e.k.ScheduleFaults()
}

// handleFault fires one failure source at virtual time now: picks the
// victim (stochastic sources), injects it, and reschedules the process.
// The closing fsched record carries the post-draw process stream states and
// the absolute next firing, so replay reschedules without re-drawing.
func (e *Engine) handleFault(now float64, src int) {
	if s, ok := e.k.Target(src); ok {
		e.injectFault(now, s)
	}
	next := e.k.Reschedule(now, src)
	switch src {
	case sim.SrcTransient:
		e.nextTransient = next
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFsched, T: now, Src: "transient", NX: next,
				TRS: hexState(e.faultRn.Transient.State()), TGS: hexState(e.faultRn.Target.State())})
		}
	case sim.SrcPermanent:
		e.nextPermanent = next
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFsched, T: now, Src: "permanent", NX: next,
				PRS: hexState(e.faultRn.Permanent.State()), TGS: hexState(e.faultRn.Target.State())})
		}
	default:
		i := src - sim.SrcScript
		e.scriptFired[i] = true
		e.walAppend(&walRecord{K: wkFsched, T: now, Src: "script", SI: i})
	}
}

// injectFault applies one failure and feeds the circuit breaker. The fault
// record goes to the WAL before any mutation — with the applied flag, the
// absolute repair time, and the post-draw target stream state — so replay
// applies the same strike to the same victim without re-drawing.
func (e *Engine) injectFault(now float64, s sim.Strike) {
	e.st.faults.Add(1)
	e.met.faults.Inc()
	permanent := s.Kind == fault.Permanent
	var node int
	var src string
	var applied bool
	var rp float64
	if permanent {
		node, src, applied = s.Node, "permanent", !e.k.NodeDead(s.Node)
	} else {
		node, src, applied = e.k.CoreID(s.Core).Node, "transient", !e.k.Down(s.Core)
		if applied {
			rp = now + s.Repair
			e.repairAt[s.Core] = rp
		}
	}
	if e.walOn() {
		e.walAppend(&walRecord{K: wkFault, T: now, Src: src, Core: s.Core, Node: node,
			AP: applied, RP: rp, TGS: hexState(e.faultRn.Target.State())})
	}
	if permanent && !applied {
		// A scripted strike on an already-dead node: counted, no effect.
		return
	}
	e.tripBreaker(node, now, permanent)
	e.k.Strike(now, s, e.strand)
}

// strand hands one downed core's stranded tasks to recovery, logging each
// kill first.
func (e *Engine) strand(now float64, coreIdx int, q []sim.Queued) {
	for i := range q {
		if e.fobs != nil {
			e.fobs.TaskKilled(now, q[i].Task, e.k.CoreID(coreIdx))
		}
		e.walAppend(&walRecord{K: wkKill, T: now, ID: q[i].Task.ID, Core: coreIdx, Att: q[i].Attempts})
		e.recoverTask(now, q[i].Task, q[i].Attempts)
	}
	e.updInflight()
}

// tripBreaker records a strike, publishes any open transition, and logs the
// automaton's new state.
func (e *Engine) tripBreaker(node int, now float64, permanent bool) {
	if e.brk == nil {
		return
	}
	snap := e.brkSnap()
	before := e.brk.opens
	e.brk.onFault(node, now, permanent)
	if d := e.brk.opens - before; d > 0 {
		e.st.brkOpens.Add(int64(d))
		e.met.breakerOpens.Inc()
	}
	e.walBreakerDiff(now, snap)
}

// handleRepair brings a transiently-failed core back at the idle P-state;
// a repair whose node died permanently in the meantime is logged as not
// applied.
func (e *Engine) handleRepair(now float64, coreIdx int) {
	if !e.k.Down(coreIdx) {
		return
	}
	e.repairAt[coreIdx] = 0
	up := e.k.Repair(now, coreIdx)
	e.walAppend(&walRecord{K: wkRepair, T: now, Core: coreIdx, AP: up})
}

// recoverTask routes one stranded task through the recovery policy. used
// is the retry count the task has already consumed. Deterministic given
// (now, task, used): no randomness is consumed, which is what lets recovery
// re-run it for dangling kills whose disposition was lost to a torn tail.
func (e *Engine) recoverTask(now float64, task workload.Task, used int) {
	slot := e.reqSeq
	fireAt, ok := e.k.Requeue(now, task, used, slot)
	if !ok {
		e.walFailRec(now, task.ID, FailFault)
		e.fail(task, FailFault)
		return
	}
	e.reqSeq++
	e.requeues[slot] = requeueEntry{task: task, attempts: used + 1, fireAt: fireAt}
	if e.walOn() {
		e.walAppend(&walRecord{K: wkRequeue, T: now,
			ID: task.ID, Ty: task.Type, Arr: task.Arrival, DL: task.Deadline,
			U: task.U, Pri: task.Priority,
			Slot: slot, Att: used + 1, FT: fireAt,
			DS: hexState(e.rand.State())})
	}
}

// walFailRec logs one stranded task lost for good. The decision stream
// state rides along because the fail may follow a remap attempt that
// consumed heuristic draws without producing a map record.
func (e *Engine) walFailRec(now float64, id int, reason string) {
	if !e.walOn() {
		return
	}
	e.walAppend(&walRecord{K: wkFail, T: now, ID: id, Rsn: reason, DS: hexState(e.rand.State())})
}

// handleRequeue re-dispatches a previously-stranded task through the full
// mapping pipeline; a retry that fails admission goes back through
// recovery, consuming another attempt, until the bound is hit.
func (e *Engine) handleRequeue(now float64, slot int) {
	entry, ok := e.requeues[slot]
	if !ok {
		return
	}
	delete(e.requeues, slot)
	e.st.retries.Add(1)
	e.met.retries.Inc()
	e.walAppend(&walRecord{K: wkRetry, T: now, Slot: slot, ID: entry.task.ID})
	snap := e.brkSnap()
	chosen := e.mapTask(now, entry.task, nil)
	if chosen == nil {
		e.recoverTask(now, entry.task, entry.attempts)
		e.walBreakerDiff(now, snap)
		e.updInflight()
		return
	}
	e.place(now, entry.task, chosen, entry.attempts)
	e.walBreakerDiff(now, snap)
}
