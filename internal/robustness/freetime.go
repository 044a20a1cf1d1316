package robustness

import (
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/pmf"
)

// FreeTimeEngine caches each core's §IV-B free-time chain across mapping
// decisions, in the fixed-grid (lattice) form of grid.go. The naive
// pipeline rebuilds every core's chain from scratch at every decision, yet
// an immediate-mode decision mutates exactly one core's queue — on a
// 64-core cluster ~63 chains are recomputed identically on the next
// arrival.
//
// Lattice convolution is exact and associative, so the chain splits into a
// now-dependent head (the running task's execution lattice shifted by its
// start and truncated at the decision instant) and a now-independent
// waiting-tail product that the engine caches densely and extends in place
// on every tail enqueue. The head depends on the decision instant only
// through its truncation cut (pmf.Lattice.SearchValue), so as long as the
// cut is stable the cached tail ⊛ head product is reused too. ρ is then
// one O(|exec|) prefix-sum pass (pmf.Grid.ConvCDF) per candidate, with no
// completion PMF materialized. Every answer is bit-identical to the
// Calculator's uncached Grid* reference methods.
//
// Contract: callers own the invalidation discipline. Every queue mutation
// other than a pure tail enqueue — head start, head completion, waiting
// task cancellation, fault requeue, core down — must call Invalidate for
// that core; a tail enqueue must call OnEnqueue. Heads that resist caching
// are rebuilt per query: an unstarted head depends on the raw decision
// instant (pure shift by now), and a fully overdue head degenerates to a
// point at now; neither is stored.
//
// The engine is NOT safe for concurrent use: each simulation engine and
// the online server run their event loops on a single goroutine and own
// one engine instance.
type FreeTimeEngine struct {
	calc  *Calculator
	cores []coreChain
	ctr   EngineCounters
}

// EngineCounters are the engine's optional instruments; any may be nil.
type EngineCounters struct {
	// ChainHits, ChainMisses and ChainRebuilds describe the materialized
	// free-time chain FreeTime returns: served from cache, built for a new
	// queue state, or re-derived for the same queue because the running
	// head's truncation cut drifted. ChainExtends counts tail enqueues
	// absorbed into the cached waiting-tail product by one convolution.
	ChainHits, ChainMisses, ChainExtends, ChainRebuilds *metrics.Counter
	// Skips counts ρ evaluations resolved to exactly zero by the
	// infeasibility bound, without a kernel pass.
	Skips *metrics.Counter
	// Rho counts ρ evaluations answered by the lattice kernels.
	Rho *metrics.Counter
	// FreeHits and FreeMisses count whether the free-time state a ρ
	// evaluation read (the waiting-tail product) came from cache or had to
	// be folded.
	FreeHits, FreeMisses *metrics.Counter
}

// coreChain is one core's cached state, all guarded by ver: Invalidate
// bumps ver, which lazily discards every derived value below.
type coreChain struct {
	ver uint64

	// baseL is the running head's execution lattice shifted by its start;
	// headL is baseL truncated at headLCut and renormalized.
	baseL    pmf.Lattice
	baseLVer uint64
	baseLOK  bool

	headL     pmf.Lattice
	headLMean float64
	headLCut  int
	headLVer  uint64
	headLOK   bool

	// tail is the dense product of the waiting tasks' execution lattices —
	// the now-independent part of the chain that lattice associativity
	// makes cacheable on its own. tailLen counts the lattices folded in.
	tail    pmf.Grid
	tailLen int
	tailVer uint64
	tailOK  bool

	// hw is the dense tail ⊛ headL product, keyed by (version, cut, len).
	// It is the shared factor of every candidate's ρ on this core —
	// ConvCDF answers each candidate against its prefix sums in O(|exec|)
	// — and FreeTime materializes its sparse form from it. Only cacheable
	// heads (cut ≥ 0) are stored. The product is rebuilt into hwScratch,
	// so the cut drifting with now (which invalidates it once per decision
	// per busy core at steady state) recycles the same backing arrays
	// instead of churning the heap; hw is therefore only valid until the
	// next rebuild, which is exactly its cache lifetime.
	hw        pmf.Grid
	hwScratch pmf.GridScratch
	hwCut     int
	hwLen     int
	hwVer     uint64
	hwOK      bool

	// rho memoizes the candidate-independent slice of a ρ evaluation —
	// the head lattice, its cut, and the chain's minimum completion bound
	// — per (version, queue length, decision instant). Every P-state
	// candidate on the core shares these within a decision.
	rhoHead    pmf.Lattice
	rhoCut     int
	rhoFreeMin float64
	rhoNow     float64
	rhoLen     int
	rhoVer     uint64
	rhoOK      bool

	// chain is the materialized sparse form of tail ⊛ headL that FreeTime
	// returns, keyed by (version, cut, len).
	chain    pmf.PMF
	chainCut int
	chainLen int
	chainVer uint64
	chainOK  bool
}

// NewFreeTimeEngine returns an engine for numCores cores evaluating
// against calc's model. It builds calc's lattice table at the default step
// if calc has none, so call it before the calculator is shared.
func NewFreeTimeEngine(calc *Calculator, numCores int) *FreeTimeEngine {
	if calc == nil {
		panic("robustness: nil calculator")
	}
	if !calc.GridEnabled() {
		calc.EnableGrid(0)
	}
	return &FreeTimeEngine{calc: calc, cores: make([]coreChain, numCores)}
}

// Instrument attaches the engine's counters.
func (e *FreeTimeEngine) Instrument(c EngineCounters) { e.ctr = c }

// Invalidate discards the core's cached state. Call it on every queue
// mutation that is not a pure tail enqueue.
func (e *FreeTimeEngine) Invalidate(coreIdx int) {
	e.cores[coreIdx].ver++
}

// OnEnqueue absorbs a task of the given type appended at P-state ps to the
// tail of the core's queue, which now holds queueLen tasks. If the core
// has a current waiting-tail product for the previous queue, one lattice
// convolution extends it in place of the full fold the next query would
// otherwise pay; if not, the next query folds it lazily.
func (e *FreeTimeEngine) OnEnqueue(coreIdx, node, taskType int, ps cluster.PState, queueLen int) {
	c := &e.cores[coreIdx]
	g := e.calc.grid
	switch {
	case queueLen == 1:
		// The enqueued task is the head: the waiting tail is empty, and
		// the identity product is valid no matter what was cached.
		c.tail, c.tailLen, c.tailVer, c.tailOK = g.identity, 0, c.ver, true
	case c.tailOK && c.tailVer == c.ver && c.tailLen == queueLen-2:
		// Extending at the right end is exactly the next iteration of the
		// left-to-right fold gridTail runs, so the extended product is
		// bit-identical to a fresh rebuild.
		c.tail = c.tail.ConvolveLattice(g.exec[taskType][node][ps].lat)
		c.tailLen = queueLen - 1
		e.ctr.ChainExtends.Inc()
	default:
		c.tailOK = false
	}
}

// FreeMean returns E[free time] by linearity, bit-identical to
// Calculator.GridFreeMean: the (truncated) head lattice mean, cached while
// the running head's cut is stable, plus the waiting tasks' lattice means.
func (e *FreeTimeEngine) FreeMean(coreIdx int, q CoreQueue, now float64) float64 {
	if len(q.Tasks) == 0 {
		return now
	}
	_, mean, _ := e.gridHeadFor(&e.cores[coreIdx], q, now)
	g := e.calc.grid
	for _, t := range q.Tasks[1:] {
		mean += g.exec[t.Type][q.Node][t.PState].mean
	}
	return mean
}

// FreeTime returns the core's free-time distribution at now,
// bit-identical to Calculator.GridFreeTime on the same queue. A query whose
// queue version, length, and head cut all match the cached chain is a
// cache hit and costs zero convolutions.
func (e *FreeTimeEngine) FreeTime(coreIdx int, q CoreQueue, now float64) pmf.PMF {
	if len(q.Tasks) == 0 {
		return pmf.Point(now)
	}
	c := &e.cores[coreIdx]
	e.calc.freeTimeEvals.Inc()
	headL, _, cut := e.gridHeadFor(c, q, now)
	current := c.chainOK && c.chainVer == c.ver && c.chainLen == len(q.Tasks)
	if current && cut >= 0 && c.chainCut == cut {
		e.ctr.ChainHits.Inc()
		return c.chain
	}
	var free pmf.PMF
	if cut >= 0 {
		wh, _, _ := e.hwFor(c, q, &headL, cut)
		free = wh.PMF()
		c.chain, c.chainCut, c.chainLen, c.chainVer, c.chainOK = free, cut, len(q.Tasks), c.ver, true
	} else {
		// The head is uncacheable (unstarted or fully overdue); any stored
		// chain for this version can never match again.
		tail, _ := e.tailFor(c, q)
		free = tail.ConvolveLattice(headL).PMF()
		c.chainOK = false
	}
	if current {
		e.ctr.ChainRebuilds.Inc()
	} else {
		e.ctr.ChainMisses.Inc()
	}
	return free
}

// ProbOnTime returns ρ(i,j,k,π,t_l,z) for a candidate of taskType at
// P-state ps against the core's current queue, bit-identical to
// Calculator.GridProbOnTime: ρ comes from prefix sums of the cached
// tail⊛head product, or from the direct triple sum when the head is
// uncacheable.
//
// An infeasibility bound short-circuits hopeless candidates, and the skip
// is exact: TripleConvCDF sums w's prefix sums at floor-index offsets, and
// a deadline below the summed support minima by a 1e-9 relative guard —
// orders of magnitude wider than the ~1e-16 rounding between the bound's
// float expression and the kernel's — lands every index strictly before
// the first massive bin, so the kernel would return exactly 0.0.
// Overloaded cores make this the common case.
func (e *FreeTimeEngine) ProbOnTime(coreIdx int, q CoreQueue, now float64, taskType int, ps cluster.PState, deadline float64) float64 {
	c := &e.cores[coreIdx]
	g := e.calc.grid
	exec := &g.exec[taskType][q.Node][ps]
	if !(c.rhoOK && c.rhoVer == c.ver && c.rhoLen == len(q.Tasks) && c.rhoNow == now) {
		if len(q.Tasks) == 0 {
			c.rhoHead = pmf.PointLattice(now, g.step)
			c.rhoCut = -1
			c.rhoFreeMin = now
		} else {
			c.rhoHead, _, c.rhoCut = e.gridHeadFor(c, q, now)
			freeMin := c.rhoHead.Min()
			for _, t := range q.Tasks[1:] {
				freeMin += g.exec[t.Type][q.Node][t.PState].min
			}
			c.rhoFreeMin = freeMin
		}
		c.rhoVer, c.rhoLen, c.rhoNow, c.rhoOK = c.ver, len(q.Tasks), now, true
	}
	if bound := c.rhoFreeMin + exec.min; bound > 0 && deadline < bound*(1-1e-9) {
		e.ctr.Skips.Inc()
		return 0
	}
	e.ctr.Rho.Inc()
	e.calc.completionEvals.Inc()
	if c.rhoCut >= 0 {
		// Cacheable head: every candidate on this core shares the dense
		// tail⊛head factor, so ρ is one O(|exec|) prefix-sum pass.
		wh, hit, folded := e.hwFor(c, q, &c.rhoHead, c.rhoCut)
		if hit || !folded {
			e.ctr.FreeHits.Inc()
		} else {
			e.ctr.FreeMisses.Inc()
		}
		return wh.ConvCDF(&exec.lat, deadline)
	}
	tail, folded := e.tailFor(c, q)
	if folded {
		e.ctr.FreeMisses.Inc()
	} else {
		e.ctr.FreeHits.Inc()
	}
	return pmf.TripleConvCDF(&c.rhoHead, tail, &exec.lat, deadline)
}

// hwFor returns the core's dense tail ⊛ headL product for a cacheable head
// (cut ≥ 0), plus whether it came straight from the cache and — when it
// did not — whether the underlying tail had to be folded fresh. The
// product is the same expression Calculator.GridProbOnTime materializes,
// so cached and fresh answers are bit-identical.
func (e *FreeTimeEngine) hwFor(c *coreChain, q CoreQueue, headL *pmf.Lattice, cut int) (*pmf.Grid, bool, bool) {
	if c.hwOK && c.hwVer == c.ver && c.hwLen == len(q.Tasks) && c.hwCut == cut {
		return &c.hw, true, false
	}
	tail, folded := e.tailFor(c, q)
	c.hw = tail.ConvolveLatticeInto(*headL, &c.hwScratch)
	c.hwCut, c.hwLen, c.hwVer, c.hwOK = cut, len(q.Tasks), c.ver, true
	return &c.hw, false, folded
}

// gridHeadFor derives (and caches) the head stage in lattice form —
// bit-identical to Calculator.gridHead plus the head's mean. The shifted
// base lattice is cached per version and its truncation per cut;
// uncacheable heads (unstarted: pure shift by now; fully overdue:
// degenerate point at now) are returned with cut == -1 and never stored.
func (e *FreeTimeEngine) gridHeadFor(c *coreChain, q CoreQueue, now float64) (pmf.Lattice, float64, int) {
	g := e.calc.grid
	t0 := q.Tasks[0]
	if !t0.Started {
		lat := g.exec[t0.Type][q.Node][t0.PState].lat.Shift(now)
		return lat, lat.Mean(), -1
	}
	if !c.baseLOK || c.baseLVer != c.ver {
		c.baseL = g.exec[t0.Type][q.Node][t0.PState].lat.Shift(t0.StartAt)
		c.baseLVer = c.ver
		c.baseLOK = true
		c.headLOK = false
	}
	cut := c.baseL.SearchValue(now)
	if c.headLOK && c.headLVer == c.ver && c.headLCut == cut {
		return c.headL, c.headLMean, cut
	}
	trunc, kept := c.baseL.TruncateAt(cut)
	if kept <= 0 {
		// All remaining mass is overdue: the same degenerate point the
		// naive pipeline produces. Depends on raw now, so never cached.
		lat := pmf.PointLattice(now, g.step)
		return lat, now, -1
	}
	c.headL = trunc
	c.headLMean = trunc.Mean()
	c.headLCut = cut
	c.headLVer = c.ver
	c.headLOK = true
	return c.headL, c.headLMean, cut
}

// tailFor returns the core's waiting-tail product and whether it had to be
// folded fresh (as opposed to served from cache or trivially the
// identity). A rebuild is the same left-to-right fold gridTail runs, so
// cached, extended, and fresh tails are all bit-identical.
func (e *FreeTimeEngine) tailFor(c *coreChain, q CoreQueue) (*pmf.Grid, bool) {
	if len(q.Tasks) <= 1 {
		return &e.calc.grid.identity, false
	}
	if c.tailOK && c.tailVer == c.ver && c.tailLen == len(q.Tasks)-1 {
		return &c.tail, false
	}
	c.tail = e.calc.gridTail(q)
	c.tailLen = len(q.Tasks) - 1
	c.tailVer = c.ver
	c.tailOK = true
	return &c.tail, true
}

// NumCores returns the number of cores the engine tracks.
func (e *FreeTimeEngine) NumCores() int { return len(e.cores) }
