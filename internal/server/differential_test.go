package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// streamEvent is one observer callback, flattened so two streams compare
// with == (bit-exact times and values).
type streamEvent struct {
	kind   string
	t      float64
	task   workload.Task
	a      sched.Assignment
	core   cluster.CoreID
	ps     cluster.PState
	onTime bool
	pred   sched.Prediction
	eec    float64
	n      int
	f      float64
}

// streamRecorder records the full observer stream of one run. It also
// implements the server's shed hook: a filtered shed is the paper's
// discard and joins the stream as one, while energy-exhausted sheds and
// failures and fault losses are counted as outcomes (the simulator reports
// those only in its Result).
type streamRecorder struct {
	events    []streamEvent
	exhausted int // server: shed or failed "energy-exhausted"
	lost      int // server: failed "fault"
	other     []string
}

func (r *streamRecorder) add(ev streamEvent) { r.events = append(r.events, ev) }

func (r *streamRecorder) TaskMapped(t float64, task workload.Task, a sched.Assignment) {
	r.add(streamEvent{kind: "mapped", t: t, task: task, a: a})
}
func (r *streamRecorder) TaskDiscarded(t float64, task workload.Task) {
	r.add(streamEvent{kind: "discarded", t: t, task: task})
}
func (r *streamRecorder) TaskStarted(t float64, task workload.Task, a sched.Assignment) {
	r.add(streamEvent{kind: "started", t: t, task: task, a: a})
}
func (r *streamRecorder) TaskFinished(t float64, task workload.Task, a sched.Assignment, onTime bool) {
	r.add(streamEvent{kind: "finished", t: t, task: task, a: a, onTime: onTime})
}
func (r *streamRecorder) PStateChanged(t float64, core cluster.CoreID, ps cluster.PState) {
	r.add(streamEvent{kind: "pstate", t: t, core: core, ps: ps})
}
func (r *streamRecorder) EnergyExhausted(t float64) { r.add(streamEvent{kind: "exhausted", t: t}) }
func (r *streamRecorder) CoreFailed(t float64, core cluster.CoreID, kind fault.Kind, repair float64) {
	r.add(streamEvent{kind: "failed", t: t, core: core, n: int(kind), f: repair})
}
func (r *streamRecorder) CoreRepaired(t float64, core cluster.CoreID) {
	r.add(streamEvent{kind: "repaired", t: t, core: core})
}
func (r *streamRecorder) TaskKilled(t float64, task workload.Task, core cluster.CoreID) {
	r.add(streamEvent{kind: "killed", t: t, task: task, core: core})
}
func (r *streamRecorder) TaskRequeued(t float64, task workload.Task, attempt int) {
	r.add(streamEvent{kind: "requeued", t: t, task: task, n: attempt})
}
func (r *streamRecorder) BrownoutStageChanged(t float64, stage int, frac float64) {
	r.add(streamEvent{kind: "brownout", t: t, n: stage, f: frac})
}
func (r *streamRecorder) TaskDecision(t float64, task workload.Task, a sched.Assignment, pred sched.Prediction, eec float64) {
	r.add(streamEvent{kind: "decision", t: t, task: task, a: a, pred: pred, eec: eec})
}
func (r *streamRecorder) TaskShed(t float64, task workload.Task, reason string) {
	switch reason {
	case ShedFiltered:
		r.TaskDiscarded(t, task)
	case ShedHalted: // == FailHalted
		r.exhausted++
	case FailFault:
		r.lost++
	default:
		r.other = append(r.other, reason)
	}
}

// diffScenario is one configuration both engines run.
type diffScenario struct {
	name     string
	mapper   *sched.Mapper
	budget   float64
	faults   fault.Spec
	brownout []energy.BrownoutStage
}

// TestEngineMatchesSimulator is the differential test between the serving
// engine and the batch simulator. Each paper trial is submitted to
// server.Engine under a ManualClock, one request per task at its arrival
// instant with the task's deadline and execution quantile pinned, and the
// full observer stream (every map, decision, start, finish, P-state change,
// fault, repair, kill, requeue, brownout stage and the halt, with bit-exact
// times) must equal sim.Run's on the same trial and decision seed. Outcome
// counts must agree too: the simulator's Unfinished tasks are the server's
// energy-exhausted sheds and failures.
//
// Scenarios: the four heuristics × {none, rob} at the paper's ζ_max (which
// halts at exhaustion), all 16 variants unconstrained, scripted transient
// and permanent faults under drop and under requeue recovery, and the
// default brownout schedule through its 98% idle-gating stage.
//
// Left out, because the two engines differ there by design (DESIGN.md,
// "One event kernel"):
//   - en and en+rob at a finite budget: the server's energy filter budgets
//     meter.Remaining() over a fixed Horizon, the simulator ζ(t_l) over the
//     window's remaining arrivals;
//   - a fault at the instant of an arrival: the simulator maps the arrival
//     first, the server processes the due fault first (it cannot know a
//     request is coming at that instant), so scripted faults fall between
//     arrivals;
//   - faults after the last arrival: a draining server consumes fault
//     events without effect;
//   - stochastic fault processes: the two drivers derive their fault
//     streams from different seeds.
func TestEngineMatchesSimulator(t *testing.T) {
	spec := experiment.PaperSpec()
	spec.Trials = 2
	env, err := experiment.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := env.Model
	zeta := env.Budget
	inf := math.Inf(1)
	mapper := func(h sched.Heuristic, v sched.FilterVariant) *sched.Mapper {
		return &sched.Mapper{Heuristic: h, Filters: v.Filters()}
	}

	var scenarios []diffScenario
	for _, h := range sched.AllHeuristics() {
		for _, v := range []sched.FilterVariant{sched.NoFilter, sched.RobustnessOnly} {
			scenarios = append(scenarios, diffScenario{name: fmt.Sprintf("zeta/%s_%s", h.Name(), v), mapper: mapper(h, v), budget: zeta})
			scenarios = append(scenarios, diffScenario{name: fmt.Sprintf("brownout/%s_%s", h.Name(), v), mapper: mapper(h, v),
				budget: zeta, brownout: energy.DefaultBrownoutStages()})
		}
		for _, v := range sched.AllFilterVariants() {
			scenarios = append(scenarios, diffScenario{name: fmt.Sprintf("inf/%s_%s", h.Name(), v), mapper: mapper(h, v), budget: inf})
		}
	}
	tAvg := m.TAvg()
	for _, rec := range []fault.Recovery{
		{Mode: fault.Drop},
		{Mode: fault.Requeue, MaxRetries: 2, Backoff: tAvg / 10, DeadlineAware: true},
	} {
		for _, h := range []sched.Heuristic{sched.LightestLoad{}, sched.MinExpectedCompletionTime{}} {
			scenarios = append(scenarios, diffScenario{
				name:   fmt.Sprintf("faults-%s/%s_rob", rec.Mode, h.Name()),
				mapper: mapper(h, sched.RobustnessOnly),
				budget: zeta,
				faults: fault.Spec{RepairTime: 2 * tAvg, Recovery: rec},
			})
		}
	}

	for _, sc := range scenarios {
		for trial := 0; trial < spec.Trials; trial++ {
			t.Run(fmt.Sprintf("%s/trial=%d", sc.name, trial), func(t *testing.T) {
				t.Parallel()
				sc := sc
				tr := env.Trial(trial)
				if sc.faults.RepairTime > 0 {
					sc.faults.Script = scriptBetweenArrivals(tr, m)
				}
				seed := uint64(1000 + trial)
				simRec, simRes := runSimStream(t, m, tr, sc, seed)
				srvRec, st := runServerStream(t, m, tr, sc, seed)
				compareStreams(t, simRec.events, srvRec.events)
				if len(srvRec.other) > 0 {
					t.Errorf("server shed/failed tasks for unexpected reasons %v", srvRec.other)
				}
				got := struct{ onTime, late, discarded, unfinished, lost, assigned int }{
					int(st.OnTime), int(st.Late), int(st.ShedFiltered), srvRec.exhausted, srvRec.lost, int(st.Assigned)}
				want := struct{ onTime, late, discarded, unfinished, lost, assigned int }{
					simRes.OnTime, simRes.Late, simRes.Discarded, simRes.Unfinished, simRes.LostToFailure, simRes.Mapped}
				if got != want {
					t.Errorf("outcomes: server %+v, simulator %+v", got, want)
				}
				if st.EnergyConsumed != simRes.EnergyConsumed {
					t.Errorf("energy consumed: server %v, simulator %v", st.EnergyConsumed, simRes.EnergyConsumed)
				}
			})
		}
	}
}

// scriptBetweenArrivals places two transient core faults and one permanent
// node failure inside the trial's arrival span, each halfway between two
// consecutive arrivals so no fault shares an instant with an arrival.
func scriptBetweenArrivals(tr *workload.Trial, m *workload.Model) []fault.Scripted {
	at := func(frac float64) float64 {
		i := int(frac * float64(len(tr.Tasks)-1))
		return (tr.Tasks[i].Arrival + tr.Tasks[i+1].Arrival) / 2
	}
	return []fault.Scripted{
		{Time: at(0.2), Kind: fault.Transient, Core: 0},
		{Time: at(0.35), Kind: fault.Transient, Core: m.Cluster.TotalCores() - 1},
		{Time: at(0.5), Kind: fault.Permanent, Node: 1},
	}
}

func runSimStream(t *testing.T, m *workload.Model, tr *workload.Trial, sc diffScenario, seed uint64) (*streamRecorder, *sim.Result) {
	t.Helper()
	rec := &streamRecorder{}
	res, err := sim.Run(sim.Config{
		Model:        m,
		Mapper:       sc.mapper,
		EnergyBudget: sc.budget,
		Observer:     rec,
		Faults:       sc.faults,
		Brownout:     sc.brownout,
	}, tr, randx.NewStream(seed).Child("decisions"))
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

func runServerStream(t *testing.T, m *workload.Model, tr *workload.Trial, sc diffScenario, seed uint64) (*streamRecorder, Stats) {
	t.Helper()
	rec := &streamRecorder{}
	clk := NewManualClock()
	eng, err := New(Config{
		Model:            m,
		Mapper:           sc.mapper,
		Budget:           sc.budget,
		Clock:            clk,
		QueueCap:         1,
		RequestTimeout:   time.Hour,
		DrainGrace:       time.Hour,
		Faults:           sc.faults,
		Brownout:         sc.brownout,
		Breaker:          BreakerConfig{Threshold: math.MaxInt32},
		Observer:         rec,
		Seed:             seed,
		NoShedInfeasible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tr.Tasks {
		clk.Advance(task.Arrival - clk.Now())
		if now := clk.Now(); now != task.Arrival {
			t.Fatalf("manual clock landed at %v, task %d arrives at %v", now, task.ID, task.Arrival)
		}
		deadline, u, pri := task.Deadline, task.U, task.Priority
		_, err := eng.Submit(TaskRequest{Type: task.Type, Deadline: &deadline, U: &u, Priority: &pri})
		var rej *ErrRejected
		switch {
		case err == nil:
		case errors.As(err, &rej) && rej.Reason == ShedHalted:
			rec.exhausted++ // never admitted: the simulator's never-arrived task
		default:
			t.Fatalf("submit task %d: %v", task.ID, err)
		}
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rec, eng.Stats()
}

// compareStreams reports the first divergence with a little context.
func compareStreams(t *testing.T, want, got []streamEvent) {
	t.Helper()
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("observer streams diverge at event %d of %d (server has %d):\n simulator: %+v\n server:    %+v",
				i, len(want), len(got), want[i], got[i])
		}
	}
	if len(want) != len(got) {
		var extra streamEvent
		if len(want) > n {
			extra = want[n]
		} else {
			extra = got[n]
		}
		t.Fatalf("observer streams differ in length: simulator %d, server %d; first extra event %+v", len(want), len(got), extra)
	}
}
