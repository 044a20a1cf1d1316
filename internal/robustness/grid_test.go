package robustness

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pmf"
	"repro/internal/randx"
)

// TestFreeTimeEngineGridMatchesNaiveUnderMutation drives a randomized
// enqueue / start / complete / cancel / fault / time-leap sequence with the
// engine hooks a real event loop would call, asserting after every step
// that the cached grid pipeline (tail product, head truncation,
// materialized chain, ρ kernel) is bit-identical to the Calculator's naive
// Grid* reference methods. This is the acceptance proof that the engine's
// caching never changes results.
func TestFreeTimeEngineGridMatchesNaiveUnderMutation(t *testing.T) {
	for _, seed := range []uint64{3, 4242, 555555} {
		m := buildModel(t, seed)
		calc := NewCalculator(m)
		eng := NewFreeTimeEngine(calc, 1)
		rng := randx.NewStream(seed * 17)
		steps := propSteps(t, 500)
		node := rng.IntN(m.Cluster.N())
		tavg := m.TAvg()
		types := m.Params.TaskTypes

		var tasks []QueuedTask
		now := 0.0
		for step := 0; step < steps; step++ {
			switch op := rng.IntN(100); {
			case op < 40: // enqueue at the tail
				qt := QueuedTask{
					Type:     rng.IntN(types),
					PState:   cluster.PState(rng.IntN(cluster.NumPStates)),
					Deadline: now + tavg*(0.5+2*rng.Float64()),
				}
				tasks = append(tasks, qt)
				if len(tasks) == 1 {
					tasks[0].Started = true
					tasks[0].StartAt = now
					eng.Invalidate(0)
				}
				eng.OnEnqueue(0, node, qt.Type, qt.PState, len(tasks))
			case op < 60: // complete the head; the next task starts
				if len(tasks) == 0 {
					continue
				}
				tasks = tasks[1:]
				if len(tasks) > 0 {
					tasks[0].Started = true
					tasks[0].StartAt = now
				}
				eng.Invalidate(0)
			case op < 68: // cancel a waiting task mid-queue
				if len(tasks) < 2 {
					continue
				}
				i := 1 + rng.IntN(len(tasks)-1)
				tasks = append(tasks[:i], tasks[i+1:]...)
				eng.Invalidate(0)
			case op < 76: // fault: the core sheds its queue
				tasks = nil
				eng.Invalidate(0)
			case op < 82: // repaired core receives unstarted work
				if len(tasks) != 0 {
					continue
				}
				tasks = append(tasks, QueuedTask{
					Type:     rng.IntN(types),
					PState:   cluster.PState(rng.IntN(cluster.NumPStates)),
					Deadline: now + tavg,
				})
				eng.Invalidate(0)
			case op < 94: // time advances a little (cut may drift)
				now += tavg * 0.3 * rng.Float64()
			default: // time leaps (head may become fully overdue)
				now += tavg * (1 + 3*rng.Float64())
			}
			if rng.IntN(4) == 0 {
				continue // coalesced updates must survive too
			}
			q := CoreQueue{Node: node, Tasks: append([]QueuedTask(nil), tasks...)}
			want := calc.GridFreeTime(q, now)
			got := eng.FreeTime(0, q, now)
			assertBitIdentical(t, step, got, want)
			// A repeat of the unchanged queue must hit and stay identical.
			assertBitIdentical(t, step, eng.FreeTime(0, q, now), want)
			if gm, wm := eng.FreeMean(0, q, now), calc.GridFreeMean(q, now); gm != wm {
				t.Fatalf("step %d: grid FreeMean %v, want %v", step, gm, wm)
			}
			ct := rng.IntN(types)
			cp := cluster.PState(rng.IntN(cluster.NumPStates))
			cd := now + tavg*(0.5+2*rng.Float64())
			wantRho := calc.GridProbOnTime(q, now, ct, cp, cd)
			if gr := eng.ProbOnTime(0, q, now, ct, cp, cd); gr != wantRho {
				t.Fatalf("step %d: grid ProbOnTime %v, want %v", step, gr, wantRho)
			}
			if gr := eng.ProbOnTime(0, q, now, ct, cp, cd); gr != wantRho {
				t.Fatalf("step %d: cached grid ProbOnTime %v, want %v", step, gr, wantRho)
			}
			assertAtLeastAgrees(t, step, eng, q, now, ct, cp, cd, wantRho)
			// A deliberately tight deadline exercises the infeasibility
			// short-circuit, which must agree with the naive kernel.
			td := now + tavg*0.2*rng.Float64()
			wantRho = calc.GridProbOnTime(q, now, ct, cp, td)
			if gr := eng.ProbOnTime(0, q, now, ct, cp, td); gr != wantRho {
				t.Fatalf("step %d: tight-deadline grid ρ %v, want %v", step, gr, wantRho)
			}
			assertAtLeastAgrees(t, step, eng, q, now, ct, cp, td, wantRho)
		}
	}
}

// assertAtLeastAgrees checks the engine's threshold query against the
// reference ρ at the paper threshold and at the thresholds where a wrong
// early stop would show: ρ itself and its float neighbours. A returned ρ,
// and ρ finished from the returned prefix, must be the reference value
// bit for bit.
func assertAtLeastAgrees(t *testing.T, step int, eng *FreeTimeEngine, q CoreQueue, now float64, ct int, cp cluster.PState, d, want float64) {
	t.Helper()
	for _, th := range []float64{0.5, want, math.Nextafter(want, math.Inf(1)), math.Nextafter(want, math.Inf(-1))} {
		ok, rho, part := eng.ProbAtLeast(0, q, now, ct, cp, d, th)
		if ok != (want >= th) {
			t.Fatalf("step %d: ProbAtLeast(t=%v) = %v, but ρ = %v", step, th, ok, want)
		}
		if rho >= 0 && rho != want {
			t.Fatalf("step %d: ProbAtLeast returned ρ %v, want %v", step, rho, want)
		}
		if got := eng.ProbOnTimeFrom(0, q, now, ct, cp, d, part); got != want {
			t.Fatalf("step %d: ρ finished from %+v is %v, want %v", step, part, got, want)
		}
	}
}

// TestGridRhoParity bounds grid ρ against a fully exact (uncompacted)
// evaluation of the same chain. For unstarted-head queues the grid
// pipeline differs from the exact one only by the per-operand snap
// (≤ step/2 each), so grid ρ at deadline d must lie within the exact CDF
// bracket [exact(d − slack), exact(d + slack)] with slack = q·step/2 —
// the tolerance contract stated in the pmf grid documentation.
func TestGridRhoParity(t *testing.T) {
	m := buildModel(t, 31)
	calc := NewCalculator(m)
	step := m.Lattices().Step
	rng := randx.NewStream(77)
	tavg := m.TAvg()
	types := m.Params.TaskTypes
	for trial := 0; trial < 200; trial++ {
		node := rng.IntN(m.Cluster.N())
		depth := 1 + rng.IntN(2)
		now := tavg * rng.Float64()
		q := CoreQueue{Node: node}
		for i := 0; i < depth; i++ {
			q.Tasks = append(q.Tasks, QueuedTask{
				Type:   rng.IntN(types),
				PState: cluster.PState(rng.IntN(cluster.NumPStates)),
			})
		}
		ct := rng.IntN(types)
		cp := cluster.PState(rng.IntN(cluster.NumPStates))
		deadline := now + tavg*(0.2+3*rng.Float64())

		// Exact chain: head shifted by now, waiting execs, candidate exec —
		// convolved with no compaction, then the CDF at the deadline.
		ops := make([]pmf.PMF, 0, depth+1)
		ops = append(ops, m.ExecPMF(q.Tasks[0].Type, node, q.Tasks[0].PState).Shift(now))
		for _, task := range q.Tasks[1:] {
			ops = append(ops, m.ExecPMF(task.Type, node, task.PState))
		}
		ops = append(ops, m.ExecPMF(ct, node, cp))
		exact := ops[0]
		for _, p := range ops[1:] {
			exact = pmf.ConvolveN(exact, p, 0)
		}

		slack := float64(len(ops))*step/2 + 1e-9*deadline
		lo := exact.CDF(deadline - slack)
		hi := exact.CDF(deadline + slack)
		got := calc.GridProbOnTime(q, now, ct, cp, deadline)
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("trial %d: grid ρ %v outside exact bracket [%v, %v] (depth %d, step %v)",
				trial, got, lo, hi, depth, step)
		}
	}
}

// TestGridEngineCounters pins the counter semantics documented on
// EngineCounters.
func TestGridEngineCounters(t *testing.T) {
	m := buildModel(t, 8)
	calc := NewCalculator(m)
	eng := NewFreeTimeEngine(calc, 1)
	reg := metrics.NewRegistry()
	hits, misses := reg.Counter("h"), reg.Counter("m")
	extends, rebuilds := reg.Counter("e"), reg.Counter("r")
	compSkips := reg.Counter("cs")
	gridRho, fHits, fMisses := reg.Counter("g"), reg.Counter("fh"), reg.Counter("fm")
	eng.Instrument(EngineCounters{
		ChainHits: hits, ChainMisses: misses, ChainExtends: extends, ChainRebuilds: rebuilds,
		Skips: compSkips, Rho: gridRho, FreeHits: fHits, FreeMisses: fMisses,
	})

	q := CoreQueue{Node: 0, Tasks: []QueuedTask{
		{Type: 0, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 0},
		{Type: 1, PState: cluster.P1, Deadline: 1e9},
	}}
	now := m.ExecPMF(0, 0, cluster.P0).Mean() * 0.1

	eng.FreeTime(0, q, now)
	if misses.Value() != 1 {
		t.Fatalf("first query: misses = %d, want 1", misses.Value())
	}
	eng.FreeTime(0, q, now)
	if hits.Value() != 1 {
		t.Fatalf("second query: hits = %d, want 1", hits.Value())
	}

	// An enqueue extends the tail product with one lattice convolution.
	q.Tasks = append(q.Tasks, QueuedTask{Type: 2, PState: cluster.P2, Deadline: 1e9})
	eng.OnEnqueue(0, 0, 2, cluster.P2, len(q.Tasks))
	if extends.Value() != 1 {
		t.Fatalf("extends = %d, want 1", extends.Value())
	}
	before := pmf.ReadOpCounts()
	eng.FreeTime(0, q, now)
	if d := pmf.ReadOpCounts().Sub(before); d.GridConvolutions != 1 {
		// Post-extend the tail is current: only the head fold remains.
		t.Fatalf("post-extend rebuild did %d lattice convolutions, want 1", d.GridConvolutions)
	}

	// ρ answered by the kernel counts gridRho and a tail-cache hit.
	deadline := now + 20*m.TAvg()
	eng.ProbOnTime(0, q, now, 3, cluster.P1, deadline)
	if gridRho.Value() != 1 || fHits.Value() != 1 || fMisses.Value() != 0 {
		t.Fatalf("grid ρ counters: rho=%d fh=%d fm=%d, want 1/1/0",
			gridRho.Value(), fHits.Value(), fMisses.Value())
	}
	// An infeasible deadline is short-circuited without a kernel pass.
	if v := eng.ProbOnTime(0, q, now, 3, cluster.P1, now*(1-1e-6)); v != 0 {
		t.Fatalf("infeasible ρ = %v, want 0", v)
	}
	if compSkips.Value() != 1 || gridRho.Value() != 1 {
		t.Fatalf("skip counters: skips=%d rho=%d, want 1/1", compSkips.Value(), gridRho.Value())
	}

	// After invalidation the next ρ must refold the tail: a free-time miss.
	eng.Invalidate(0)
	eng.ProbOnTime(0, q, now, 3, cluster.P1, deadline)
	if fMisses.Value() != 1 {
		t.Fatalf("post-invalidate ρ: free misses = %d, want 1", fMisses.Value())
	}

	// Advancing now past the head's first lattice bin drifts the cut: the
	// same queue is re-derived and counted as a rebuild, not a miss.
	eng.FreeTime(0, q, now)
	missesBefore := misses.Value()
	later := m.Lattices().Exec(0, 0, cluster.P0).Min + 1e-9
	if later <= now {
		t.Fatalf("test setup: later %v <= now %v", later, now)
	}
	eng.FreeTime(0, q, later)
	if rebuilds.Value() != 1 || misses.Value() != missesBefore {
		t.Fatalf("cut drift: rebuilds=%d misses=%d, want 1/%d", rebuilds.Value(), misses.Value(), missesBefore)
	}
}
