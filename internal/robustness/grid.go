package robustness

import (
	"repro/internal/cluster"
	"repro/internal/pmf"
)

// Fixed-grid (lattice) evaluation: the reproduction's ρ. EnableGrid snaps
// every execution PMF in the model onto a common lattice once; from then
// on the §IV-B pipeline runs in grid form end-to-end — heads and execution
// PMFs stay sparse-on-lattice, chain products stay dense, and ρ is
// answered by pmf.TripleConvCDF against the waiting-tail product's prefix
// sums with no completion PMF materialized. The Grid* methods below are
// the naive (uncached) reference; FreeTimeEngine runs the same primitives
// with per-core caching and must stay bit-identical to them (the grid
// mutation property test enforces this with ==).
//
// Numerical contract: snapping moves each execution impulse by at most
// step/2, so grid ρ differs from the sparse Calculator's compacted ρ —
// the grid is a different (finer-grained, exactly-convolved)
// approximation of the same chain. TestGridRhoParity bounds grid ρ between
// uncompacted exact-chain CDFs at deadlines shifted by the accumulated
// quantization slack. At paper scale the difference does not move the
// results: every median of Figs 2–6 and the §VII table computed on the
// grid lies inside the sparse pipeline's 95% bootstrap CI (EXPERIMENTS.md,
// "Grid vs sparse ρ").

// DefaultGridRes divides the model's mean execution time T_avg to obtain
// the default lattice step: T_avg/64 keeps per-impulse quantization under
// 0.8% of a typical execution time while a depth-10 chain product stays a
// few thousand bins.
const DefaultGridRes = 64

// gridExec is one execution PMF snapped onto the shared lattice, with the
// derived scalars the hot path reads per candidate.
type gridExec struct {
	lat  pmf.Lattice
	mean float64
	min  float64
}

// gridTable holds the lattice forms of every execution PMF, indexed like
// workload.Model's table: [taskType][node][pstate].
type gridTable struct {
	step     float64
	identity pmf.Grid // shared convolution identity, minted once
	exec     [][][]gridExec
}

// EnableGrid builds the lattice execution table for the given step (<= 0
// selects TAvg/DefaultGridRes) and switches the Grid* evaluators on.
// Idempotent for the same step; call once before the calculator is shared.
func (c *Calculator) EnableGrid(step float64) {
	if step <= 0 {
		step = c.model.TAvg() / DefaultGridRes
	}
	if c.grid != nil && c.grid.step == step {
		return
	}
	types := c.model.Params.TaskTypes
	nodes := c.model.Cluster.N()
	g := &gridTable{step: step, identity: pmf.IdentityGrid(step), exec: make([][][]gridExec, types)}
	for t := 0; t < types; t++ {
		g.exec[t] = make([][]gridExec, nodes)
		for n := 0; n < nodes; n++ {
			g.exec[t][n] = make([]gridExec, cluster.NumPStates)
			for _, ps := range cluster.AllPStates() {
				lat := pmf.ToLattice(c.model.ExecPMF(t, n, ps), step)
				g.exec[t][n][ps] = gridExec{lat: lat, mean: lat.Mean(), min: lat.Min()}
			}
		}
	}
	c.grid = g
}

// GridEnabled reports whether the lattice table has been built.
func (c *Calculator) GridEnabled() bool { return c.grid != nil }

// GridStep returns the lattice step, or 0 when the grid is disabled.
func (c *Calculator) GridStep() float64 {
	if c.grid == nil {
		return 0
	}
	return c.grid.step
}

// gridHead derives the head stage of q's chain in lattice form: the
// running task's execution lattice shifted by its start with past impulses
// cut and renormalized, or the unstarted head's lattice shifted by now.
// cut >= 0 only for a started head whose truncation is cacheable by that
// index; every now-dependent degenerate case (empty queue, fully overdue
// head) yields a point lattice at now with cut == -1.
func (c *Calculator) gridHead(q CoreQueue, now float64) (head pmf.Lattice, cut int) {
	g := c.grid
	if len(q.Tasks) == 0 {
		return pmf.PointLattice(now, g.step), -1
	}
	t0 := q.Tasks[0]
	base := g.exec[t0.Type][q.Node][t0.PState].lat
	if !t0.Started {
		return base.Shift(now), -1
	}
	base = base.Shift(t0.StartAt)
	k := base.SearchValue(now)
	trunc, kept := base.TruncateAt(k)
	if kept <= 0 {
		return pmf.PointLattice(now, g.step), -1
	}
	return trunc, k
}

// gridTail folds the waiting tasks' execution lattices (q.Tasks[1:]) into
// one dense product, left to right — the now-independent part of the chain
// that lattice associativity lets the engine cache and extend. An empty
// tail is the convolution identity.
func (c *Calculator) gridTail(q CoreQueue) pmf.Grid {
	g := c.grid
	w := g.identity
	if len(q.Tasks) == 0 {
		return w
	}
	for _, t := range q.Tasks[1:] {
		w = w.ConvolveLattice(g.exec[t.Type][q.Node][t.PState].lat)
	}
	return w
}

// GridFreeTime is the grid form of FreeTime: the head lattice
// convolved into the waiting-tail product, materialized sparse. An empty
// queue yields the degenerate distribution at now.
func (c *Calculator) GridFreeTime(q CoreQueue, now float64) pmf.PMF {
	c.freeTimeEvals.Inc()
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	head, _ := c.gridHead(q, now)
	return c.gridTail(q).ConvolveLattice(head).PMF()
}

// GridFreeMean is the grid form of the linearity shortcut: the
// (truncated) head lattice mean plus the waiting tasks' lattice means.
func (c *Calculator) GridFreeMean(q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return now
	}
	head, _ := c.gridHead(q, now)
	mean := head.Mean()
	g := c.grid
	for _, t := range q.Tasks[1:] {
		mean += g.exec[t.Type][q.Node][t.PState].mean
	}
	return mean
}

// GridProbOnTime is the grid ρ(i,j,k,π,t_l,z): P(head + tail + exec ≤
// deadline) answered by pmf.TripleConvCDF with no completion distribution
// materialized.
func (c *Calculator) GridProbOnTime(q CoreQueue, now float64, taskType int, ps cluster.PState, deadline float64) float64 {
	c.completionEvals.Inc()
	head, cut := c.gridHead(q, now)
	exec := &c.grid.exec[taskType][q.Node][ps].lat
	w := c.gridTail(q)
	if cut >= 0 {
		// Cacheable head: materialize the tail⊛head product and answer
		// from its prefix sums — the expression the engine memoizes per
		// core, so candidates sharing a queue share the expensive factor.
		wh := w.ConvolveLattice(head)
		return wh.ConvCDF(exec, deadline)
	}
	// Degenerate or now-dependent heads (empty queue, unstarted, fully
	// overdue) stay on the allocation-free double sum.
	return pmf.TripleConvCDF(&head, &w, exec, deadline)
}
