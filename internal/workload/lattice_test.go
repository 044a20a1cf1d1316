package workload

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pmf"
)

// TestLatticesBuiltOncePerModel: the lattice table is built on first use,
// once per model, and every caller — including concurrent first callers,
// as parallel trials of one model are — shares that one table. Its entries
// are the model's execution pmfs snapped at t_avg/GridRes.
func TestLatticesBuiltOncePerModel(t *testing.T) {
	m := buildTestModel(t, 5)
	got := make([]*Lattices, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Lattices()
		}(i)
	}
	wg.Wait()
	for i, l := range got {
		if l != got[0] {
			t.Fatalf("caller %d got a different table", i)
		}
	}
	l := got[0]
	if l.Step != m.TAvg()/GridRes {
		t.Fatalf("step %v, want t_avg/%d = %v", l.Step, GridRes, m.TAvg()/GridRes)
	}
	for ti := 0; ti < m.Params.TaskTypes; ti++ {
		for ni := 0; ni < m.Cluster.N(); ni++ {
			for _, ps := range cluster.AllPStates() {
				want := pmf.ToLattice(m.ExecPMF(ti, ni, ps), l.Step)
				e := l.Exec(ti, ni, ps)
				if e.Lat.Len() != want.Len() || e.Mean != want.Mean() || e.Min != want.Min() {
					t.Fatalf("type %d node %d %v: entry (%d impulses, mean %v, min %v), want (%d, %v, %v)",
						ti, ni, ps, e.Lat.Len(), e.Mean, e.Min, want.Len(), want.Mean(), want.Min())
				}
			}
		}
	}
}
