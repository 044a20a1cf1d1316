package sched

import (
	"repro/internal/pmf"
	"repro/internal/robustness"
)

// Arena is a caller-owned per-decision scratch that makes candidate
// enumeration allocation-free at steady state. BuildCandidates places the
// Candidate structs, the pointer slice it returns, and the per-core
// free-time shares in the arena's backing arrays instead of the heap;
// Mapper.Map filters the pointer slice in place. Each decision overwrites
// the previous one's storage, so candidates obtained through an arena are
// valid only until the next BuildCandidates call with the same arena — the
// engines consume the chosen candidate (Predict, enqueue) before the next
// decision, which is exactly that contract. Not safe for concurrent use;
// each engine owns one arena, matching its single-goroutine event loop.
type Arena struct {
	cands  []Candidate
	ptrs   []*Candidate
	shares []coreShare
}

// NewArena returns an empty arena; the first decision grows it to the
// cluster's candidate count and steady state reuses that storage.
func NewArena() *Arena { return &Arena{} }

// grow ensures capacity for maxCands candidates and nCores shares. The
// candidate array is sized fully up front because BuildCandidates takes
// interior pointers as it fills it — append-style regrowth would move the
// backing array out from under them.
func (a *Arena) grow(maxCands, nCores int) {
	if cap(a.cands) < maxCands {
		a.cands = make([]Candidate, maxCands)
	}
	a.cands = a.cands[:maxCands]
	if cap(a.ptrs) < maxCands {
		a.ptrs = make([]*Candidate, 0, maxCands)
	}
	if cap(a.shares) < nCores {
		a.shares = make([]coreShare, nCores)
	}
	a.shares = a.shares[:nCores]
}

// QueueSnapshots is the per-core scratch an engine builds its
// SystemView.Queue snapshots into. Snapshots are decision-scoped, so each
// core's buffer is reused from one decision to the next. It grows the way
// append does, at least doubling: a queue reaching a new maximum length
// reallocates only when it outgrows that capacity, not at every new
// maximum.
type QueueSnapshots [][]robustness.QueuedTask

// NewQueueSnapshots returns empty buffers for n cores.
func NewQueueSnapshots(n int) QueueSnapshots { return make(QueueSnapshots, n) }

// Take returns core idx's buffer resliced to length n. Its entries are
// stale; the caller overwrites every one of them, so a regrown buffer
// copies nothing.
func (s QueueSnapshots) Take(idx, n int) []robustness.QueuedTask {
	if cap(s[idx]) < n {
		s[idx] = make([]robustness.QueuedTask, n, max(n, 2*cap(s[idx])))
	}
	s[idx] = s[idx][:n]
	return s[idx]
}

// coreShare is the per-core slice of one decision: the queue snapshot the
// engine evaluates ρ against, plus the core's free-time mean and free-time
// distribution, each computed on first use and shared by all of the core's
// P-state candidates.
type coreShare struct {
	ft       *robustness.FreeTimeEngine
	calc     *robustness.Calculator
	counters *Counters
	idx      int
	q        robustness.CoreQueue
	now      float64
	mean     float64
	meanOK   bool
	cached   pmf.PMF
}

// freeMean returns (once computed) the core's expected free time for this
// decision. The engine's answer is a pure function of the queue snapshot
// and now, so computing it lazily changes no value.
func (s *coreShare) freeMean() float64 {
	if !s.meanOK {
		s.mean, s.meanOK = s.ft.FreeMean(s.idx, s.q, s.now), true
	}
	return s.mean
}

// FreePMF materializes (once) and returns the core's free-time
// distribution for this decision.
func (s *coreShare) FreePMF() pmf.PMF {
	hit := !s.cached.IsZero()
	s.counters.freeTime(hit)
	if !hit {
		s.cached = s.ft.FreeTime(s.idx, s.q, s.now)
	}
	return s.cached
}
