package sched

// This file implements the four heuristics of §V-B through §V-E. All
// heuristics break exact ties deterministically in candidate order
// (core-major, P-state-minor) so trials are reproducible.

// ShortestQueue is the SQ heuristic (§V-B): assign to the feasible core
// with the fewest tasks currently assigned; break queue-length ties with
// the minimum expected execution time.
type ShortestQueue struct{}

// Name returns "SQ".
func (ShortestQueue) Name() string { return "SQ" }

// NeedsRho reports false: SQ reads only queue lengths and EET.
func (ShortestQueue) NeedsRho() bool { return false }

// Choose picks the minimum-queue candidate, tie-broken by minimum EET.
func (ShortestQueue) Choose(_ *Context, feasible []*Candidate) *Candidate {
	best := feasible[0]
	for _, c := range feasible[1:] {
		if c.QueueLen < best.QueueLen ||
			(c.QueueLen == best.QueueLen && c.EET < best.EET) {
			best = c
		}
	}
	return best
}

// MinExpectedCompletionTime is the MECT heuristic (§V-C): assign to the
// feasible (core, P-state) with the minimum expected completion time.
type MinExpectedCompletionTime struct{}

// Name returns "MECT".
func (MinExpectedCompletionTime) Name() string { return "MECT" }

// NeedsRho reports false: ECT is computed by linearity of expectation.
func (MinExpectedCompletionTime) NeedsRho() bool { return false }

// Choose picks the minimum-ECT candidate.
func (MinExpectedCompletionTime) Choose(_ *Context, feasible []*Candidate) *Candidate {
	best := feasible[0]
	bestECT := best.ECT()
	for _, c := range feasible[1:] {
		if ect := c.ECT(); ect < bestECT {
			best, bestECT = c, ect
		}
	}
	return best
}

// LightestLoad is the paper's new LL heuristic (§V-D): assign to the
// feasible (core, P-state) minimizing the load quantity
// L = EEC × (1 − ρ) (Eq. 5), balancing energy consumption against the
// probability of completing by the deadline.
type LightestLoad struct{}

// Name returns "LL".
func (LightestLoad) Name() string { return "LL" }

// NeedsRho reports true: the load quantity contains ρ.
func (LightestLoad) NeedsRho() bool { return true }

// Choose picks the minimum-load candidate per Eq. 5. Exact load ties —
// which occur whenever several assignments complete by the deadline with
// certainty, making L = 0 — keep the first candidate in enumeration order
// (P0 of the lowest-indexed core). The paper does not specify a tie-break;
// this naive reading reproduces its observed behaviour, where unfiltered LL
// performs on par with (slightly worse than) unfiltered SQ/MECT because it
// too burns high P-states whenever deadlines look safe, and degrades to
// minimum-energy choices only when congestion drives every ρ down (§VII).
// Breaking ties toward minimum EEC instead turns LL into a near-oracle that
// finishes almost everything (see the ablation bench), which contradicts
// the paper's Figure 4.
//
// The scan stops at the first zero load: L >= 0 always holds (EEC >= 0 and
// the ρ kernels saturate at 1), so no later candidate can beat it under the
// strict < that keeps the first of equal loads.
func (LightestLoad) Choose(_ *Context, feasible []*Candidate) *Candidate {
	best := feasible[0]
	bestL := best.EEC * (1 - best.Rho())
	for _, c := range feasible[1:] {
		if bestL == 0 {
			break
		}
		if l := c.EEC * (1 - c.Rho()); l < bestL {
			best, bestL = c, l
		}
	}
	return best
}

// Random is the baseline heuristic (§V-E): assign to a feasible
// (core, P-state) chosen uniformly at random.
type Random struct{}

// Name returns "Random".
func (Random) Name() string { return "Random" }

// NeedsRho reports false.
func (Random) NeedsRho() bool { return false }

// Choose picks uniformly from the feasible set using the context's stream.
func (Random) Choose(ctx *Context, feasible []*Candidate) *Candidate {
	return feasible[ctx.Rand.IntN(len(feasible))]
}

// ByName returns the heuristic with the given name (SQ, MECT, LL, Random),
// or nil if unknown.
func ByName(name string) Heuristic {
	switch name {
	case "SQ":
		return ShortestQueue{}
	case "MECT":
		return MinExpectedCompletionTime{}
	case "LL":
		return LightestLoad{}
	case "Random":
		return Random{}
	}
	return nil
}

// AllHeuristics lists the four paper heuristics in presentation order
// (Figures 2–5).
func AllHeuristics() []Heuristic {
	return []Heuristic{ShortestQueue{}, MinExpectedCompletionTime{}, LightestLoad{}, Random{}}
}
