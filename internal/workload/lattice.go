package workload

import (
	"repro/internal/cluster"
	"repro/internal/pmf"
)

// GridRes divides the model's mean execution time t_avg to obtain its
// lattice step: t_avg/64 keeps per-impulse quantization under 0.8% of a
// typical execution time while a depth-10 chain product stays a few
// thousand bins. This is the one place that knows the step; the ρ engine
// reads it from Model.Lattices.
const GridRes = 64

// ExecLattice is one execution-time pmf snapped onto the model's lattice,
// with the scalars the ρ hot path reads per candidate.
type ExecLattice struct {
	Lat  pmf.Lattice
	Mean float64 // Lat.Mean()
	Min  float64 // Lat.Min()
}

// Lattices is the model's execution-time table in lattice form, indexed
// like ExecPMF: every pmf snapped onto one shared step. It is immutable
// and shared read-only by every trial and engine evaluating the model.
type Lattices struct {
	// Step is the lattice step, t_avg/GridRes.
	Step float64
	// Identity is the convolution identity on the lattice (unit mass at
	// 0): the waiting-tail product of a queue with no waiting task.
	Identity pmf.Grid
	exec     [][][]ExecLattice
}

// Exec returns the lattice form of ExecPMF(taskType, node, p).
func (l *Lattices) Exec(taskType, node int, p cluster.PState) *ExecLattice {
	return &l.exec[taskType][node][p]
}

// Lattices returns the model's lattice table, built on the first call and
// shared by every later one. Safe for concurrent use: trials of one model
// running in parallel share a single table.
func (m *Model) Lattices() *Lattices {
	m.latOnce.Do(m.buildLattices)
	return m.lat
}

func (m *Model) buildLattices() {
	step := m.tAvg / GridRes
	l := &Lattices{Step: step, Identity: pmf.IdentityGrid(step), exec: make([][][]ExecLattice, len(m.table))}
	for ti, byNode := range m.table {
		l.exec[ti] = make([][]ExecLattice, len(byNode))
		for ni, row := range byNode {
			out := make([]ExecLattice, len(row))
			for ps, p := range row {
				lat := pmf.ToLattice(p, step)
				out[ps] = ExecLattice{Lat: lat, Mean: lat.Mean(), Min: lat.Min()}
			}
			l.exec[ti][ni] = out
		}
	}
	m.lat = l
}
