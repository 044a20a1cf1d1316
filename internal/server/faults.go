package server

// Live fault injection for the serving engine, mirroring internal/sim's
// mechanics: a failure kills whatever the stricken core is doing (the
// energy is already spent), the run-generation counter invalidates its
// pending completion event, and stranded tasks go through the recovery
// policy. On top of the simulator's behavior the serving path feeds every
// strike into the per-node circuit breakers, so mapping routes around
// flapping nodes instead of rediscovering them the hard way.

import (
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/robustness"
	"repro/internal/workload"
)

// NumCores implements sched.SystemView.
func (e *Engine) NumCores() int { return len(e.cores) }

// CoreID implements sched.SystemView.
func (e *Engine) CoreID(idx int) cluster.CoreID { return e.cores[idx] }

// Queue implements sched.SystemView: a snapshot of the core's occupancy,
// built into a reusable per-core buffer (snapshots are decision-scoped).
func (e *Engine) Queue(idx int) robustness.CoreQueue {
	q := e.queues[idx]
	out := robustness.CoreQueue{Node: e.cores[idx].Node}
	if len(q) == 0 {
		return out
	}
	out.Tasks = e.qbuf.Take(idx, len(q))
	for i, t := range q {
		out.Tasks[i] = robustness.QueuedTask{
			Type:     t.task.Type,
			PState:   t.pstate,
			Deadline: t.task.Deadline,
			Started:  t.started,
			StartAt:  t.startAt,
		}
	}
	return out
}

// scheduleFaults seeds the event heap with the first firing of each
// enabled stochastic process and every scripted entry, mirroring the
// absolute firing times into the checkpointable schedule fields.
func (e *Engine) scheduleFaults() {
	spec := &e.cfg.Faults
	if spec.Transient.Enabled {
		e.nextTransient = spec.Transient.Sample(e.transientRng)
		e.push(event{time: e.nextTransient, kind: evFault, idx: srcTransient})
	}
	if spec.Permanent.Enabled {
		e.nextPermanent = spec.Permanent.Sample(e.permanentRng)
		e.push(event{time: e.nextPermanent, kind: evFault, idx: srcPermanent})
	}
	for i, sf := range spec.Script {
		e.push(event{time: sf.Time, kind: evFault, idx: srcScript + i})
	}
}

// handleFault fires one failure source at virtual time now: picks the
// victim (stochastic sources), injects it, and reschedules the process.
// The closing fsched record carries the post-draw process stream states and
// the absolute next firing, so replay reschedules without re-drawing.
func (e *Engine) handleFault(now float64, src int) {
	spec := &e.cfg.Faults
	switch src {
	case srcTransient:
		if idx, ok := e.pickUpCore(); ok {
			e.injectFault(now, fault.Transient, idx, -1, spec.RepairTime)
		}
		e.nextTransient = 0
		if !e.allNodesDead() {
			e.nextTransient = now + spec.Transient.Sample(e.transientRng)
			e.push(event{time: e.nextTransient, kind: evFault, idx: srcTransient})
		}
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFsched, T: now, Src: "transient", NX: e.nextTransient,
				TRS: hexState(e.transientRng.State()), TGS: hexState(e.targetRng.State())})
		}
	case srcPermanent:
		if node, ok := e.pickAliveNode(); ok {
			e.injectFault(now, fault.Permanent, -1, node, 0)
		}
		e.nextPermanent = 0
		if !e.allNodesDead() {
			e.nextPermanent = now + spec.Permanent.Sample(e.permanentRng)
			e.push(event{time: e.nextPermanent, kind: evFault, idx: srcPermanent})
		}
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFsched, T: now, Src: "permanent", NX: e.nextPermanent,
				PRS: hexState(e.permanentRng.State()), TGS: hexState(e.targetRng.State())})
		}
	default:
		i := src - srcScript
		sf := spec.Script[i]
		if sf.Kind == fault.Permanent {
			e.injectFault(now, fault.Permanent, -1, sf.Node, 0)
		} else {
			repair := sf.Repair
			if repair <= 0 {
				repair = spec.RepairTime
			}
			e.injectFault(now, fault.Transient, sf.Core, -1, repair)
		}
		e.scriptFired[i] = true
		e.walAppend(&walRecord{K: wkFsched, T: now, Src: "script", SI: i})
	}
}

// pickUpCore selects a victim uniformly among up cores; no draw is
// consumed when every core is already down.
func (e *Engine) pickUpCore() (int, bool) {
	up := 0
	for _, d := range e.down {
		if !d {
			up++
		}
	}
	if up == 0 {
		return 0, false
	}
	n := e.targetRng.IntN(up)
	for idx, d := range e.down {
		if d {
			continue
		}
		if n == 0 {
			return idx, true
		}
		n--
	}
	return 0, false // unreachable
}

// pickAliveNode selects a victim uniformly among alive nodes.
func (e *Engine) pickAliveNode() (int, bool) {
	alive := 0
	for _, d := range e.alive {
		if d {
			alive++
		}
	}
	if alive == 0 {
		return 0, false
	}
	n := e.targetRng.IntN(alive)
	for node, up := range e.alive {
		if !up {
			continue
		}
		if n == 0 {
			return node, true
		}
		n--
	}
	return 0, false // unreachable
}

func (e *Engine) allNodesDead() bool {
	for _, up := range e.alive {
		if up {
			return false
		}
	}
	return true
}

// injectFault applies one failure and feeds the circuit breaker. The fault
// record goes to the WAL before any mutation — with the applied flag, the
// absolute repair time, and the post-draw target stream state — so replay
// applies the same strike to the same victim without re-drawing.
func (e *Engine) injectFault(now float64, kind fault.Kind, coreIdx, node int, repair float64) {
	e.st.faults.Add(1)
	e.met.faults.Inc()
	if kind == fault.Permanent {
		applied := e.alive[node]
		if e.walOn() {
			e.walAppend(&walRecord{K: wkFault, T: now, Src: "permanent", Core: -1, Node: node,
				AP: applied, TGS: hexState(e.targetRng.State())})
		}
		if !applied {
			// A scripted strike on an already-dead node: counted, no effect.
			return
		}
		e.alive[node] = false
		e.tripBreaker(node, now, true)
		for idx, id := range e.cores {
			if id.Node == node {
				e.downCore(now, kind, idx, 0)
			}
		}
		return
	}
	applied := !e.down[coreIdx]
	rp := 0.0
	if applied {
		rp = now + repair
	}
	if e.walOn() {
		e.walAppend(&walRecord{K: wkFault, T: now, Src: "transient", Core: coreIdx,
			Node: e.cores[coreIdx].Node, AP: applied, RP: rp, TGS: hexState(e.targetRng.State())})
	}
	e.tripBreaker(e.cores[coreIdx].Node, now, false)
	e.downCore(now, kind, coreIdx, repair)
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

// downCore takes one core down: kills its queue, hands stranded tasks to
// recovery, zeroes its draw, and (transient only) schedules the repair.
func (e *Engine) downCore(now float64, kind fault.Kind, coreIdx int, repair float64) {
	if e.down[coreIdx] {
		return
	}
	e.down[coreIdx] = true
	e.runGen[coreIdx]++ // pending completion (if any) is now stale
	if e.fobs != nil {
		e.fobs.CoreFailed(now, e.cores[coreIdx], kind, repair)
	}
	q := e.queues[coreIdx]
	e.queues[coreIdx] = nil
	e.ftc.Invalidate(coreIdx)
	if len(q) > 0 {
		e.inSystem -= len(q)
		for i := range q {
			if e.fobs != nil {
				e.fobs.TaskKilled(now, q[i].task, e.cores[coreIdx])
			}
			e.walAppend(&walRecord{K: wkKill, T: now, ID: q[i].task.ID, Core: coreIdx, Att: q[i].attempts})
			e.recoverTask(now, q[i].task, q[i].attempts)
		}
		e.updInflight()
	}
	e.meter.SetPower(coreIdx, 0)
	if kind == fault.Transient {
		e.repairAt[coreIdx] = now + repair
		e.push(event{time: now + repair, kind: evRepair, idx: coreIdx})
	}
}

// handleRepair brings a transiently-failed core back at the idle P-state.
func (e *Engine) handleRepair(now float64, coreIdx int) {
	if !e.down[coreIdx] {
		return
	}
	if !e.alive[e.cores[coreIdx].Node] {
		// The node died permanently while this core's repair was pending;
		// the repair must not resurrect it.
		e.repairAt[coreIdx] = 0
		e.walAppend(&walRecord{K: wkRepair, T: now, Core: coreIdx, AP: false})
		return
	}
	e.repairAt[coreIdx] = 0
	e.down[coreIdx] = false
	e.meter.ClearPower(coreIdx)
	e.setPState(now, coreIdx, e.cfg.IdlePState)
	e.walAppend(&walRecord{K: wkRepair, T: now, Core: coreIdx, AP: true})
	if e.fobs != nil {
		e.fobs.CoreRepaired(now, e.cores[coreIdx])
	}
}

// recoverTask routes one stranded task through the recovery policy. used
// is the retry count the task has already consumed. Deterministic given
// (now, task, used): no randomness is consumed, which is what lets recovery
// re-run it for dangling kills whose disposition was lost to a torn tail.
func (e *Engine) recoverTask(now float64, task workload.Task, used int) {
	rec := e.cfg.Faults.Recovery
	if rec.Mode != fault.Requeue || used >= rec.MaxRetries {
		e.walFailRec(now, task.ID, FailFault)
		e.fail(task, FailFault)
		return
	}
	if rec.DeadlineAware && task.Deadline <= now {
		// Already late: a retry can only burn energy on a missed deadline.
		e.walFailRec(now, task.ID, FailFault)
		e.fail(task, FailFault)
		return
	}
	delay := rec.Backoff * float64(used+1)
	if rec.DeadlineAware {
		if slack := task.Deadline - now; delay > slack/2 {
			delay = slack / 2
		}
	}
	if e.fobs != nil {
		e.fobs.TaskRequeued(now, task, used+1)
	}
	slot := e.reqSeq
	e.reqSeq++
	fireAt := now + delay
	e.requeues[slot] = requeueEntry{task: task, attempts: used + 1, fireAt: fireAt}
	if e.walOn() {
		e.walAppend(&walRecord{K: wkRequeue, T: now,
			ID: task.ID, Ty: task.Type, Arr: task.Arrival, DL: task.Deadline,
			U: task.U, Pri: task.Priority,
			Slot: slot, Att: used + 1, FT: fireAt,
			DS: hexState(e.rand.State())})
	}
	e.push(event{time: fireAt, kind: evRequeue, idx: slot})
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
