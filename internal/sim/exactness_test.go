package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/workload"
)

// refRobustnessFilter is the robustness filter without the threshold
// query: ρ in full, then compared.
type refRobustnessFilter struct{}

func (refRobustnessFilter) Name() string   { return "rob" }
func (refRobustnessFilter) NeedsRho() bool { return true }
func (refRobustnessFilter) Keep(_ *sched.Context, c *sched.Candidate) bool {
	return c.Rho() >= sched.PaperRhoThresh
}

// refLightestLoad is LL without the zero-load early stop: every feasible
// candidate's load is evaluated.
type refLightestLoad struct{}

func (refLightestLoad) Name() string   { return "LL" }
func (refLightestLoad) NeedsRho() bool { return true }
func (refLightestLoad) Choose(_ *sched.Context, feasible []*sched.Candidate) *sched.Candidate {
	best := feasible[0]
	bestL := best.EEC * (1 - best.Rho())
	for _, c := range feasible[1:] {
		if l := c.EEC * (1 - c.Rho()); l < bestL {
			best, bestL = c, l
		}
	}
	return best
}

// referenceMapper is the mapper for (h, v) with the threshold-query
// robustness filter and LL's early stop replaced by their full-ρ forms.
func referenceMapper(h sched.Heuristic, v sched.FilterVariant) *sched.Mapper {
	if _, ok := h.(sched.LightestLoad); ok {
		h = refLightestLoad{}
	}
	var fs []sched.Filter
	for _, f := range v.Filters() {
		if _, ok := f.(sched.RobustnessFilter); ok {
			f = refRobustnessFilter{}
		}
		fs = append(fs, f)
	}
	return &sched.Mapper{Heuristic: h, Filters: fs}
}

// TestLeanRhoPathMatchesFullRho runs all 16 Figure 2–5 variants on
// paper-scale trials (the paper's cluster, 100 task types, 1 000 tasks,
// ζ_max) with the production mapper and with the full-ρ reference, and
// requires the same run bit for bit: every task's assignment, start and
// finish, and every Result count. The threshold query, LL's early stop,
// the idle-core fast path and the lazy free-time mean may change only how
// much work a decision does, never which assignment it picks.
func TestLeanRhoPathMatchesFullRho(t *testing.T) {
	s := randx.NewStream(2011_0913)
	c, err := cluster.Generate(s.Child("cluster"), cluster.PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := workload.BuildModel(s.Child("model"), c, workload.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 3
	trs := make([]*workload.Trial, trials)
	for i := range trs {
		if trs[i], err = workload.GenerateTrial(s.ChildN("trial", i), m); err != nil {
			t.Fatal(err)
		}
	}
	run := func(t *testing.T, mapper *sched.Mapper, i int) *Result {
		cfg := Config{Model: m, Mapper: mapper, EnergyBudget: m.DefaultEnergyBudget(), Trace: true}
		res, err := Run(cfg, trs[i], s.ChildN("decisions", i))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, h := range sched.AllHeuristics() {
		for _, v := range sched.AllFilterVariants() {
			h, v := h, v
			t.Run(fmt.Sprintf("%s_%s", h.Name(), v), func(t *testing.T) {
				t.Parallel()
				for i := range trs {
					got := run(t, &sched.Mapper{Heuristic: h, Filters: v.Filters()}, i)
					want := run(t, referenceMapper(h, v), i)
					for k := range want.Traces {
						if g, w := got.Traces[k], want.Traces[k]; g != w {
							t.Fatalf("trial %d task %d: got %+v, reference %+v", i, k, g, w)
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: results diverge:\n got %+v\nwant %+v", i, *got, *want)
					}
				}
			})
		}
	}
}
