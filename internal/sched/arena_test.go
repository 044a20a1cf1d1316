package sched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/robustness"
)

// TestArenaMatchesFreshAllocation: running the same mapping decision with
// and without a caller-owned arena must pick the same assignment and score
// every candidate bit-identically — the arena changes where candidates
// live, never what they contain.
func TestArenaMatchesFreshAllocation(t *testing.T) {
	f := newFixture(t, 11)
	f.view.push(0, robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 50})
	f.view.push(0, robustness.QueuedTask{Type: 3, PState: cluster.P1, Deadline: 1e9})
	f.view.push(2, robustness.QueuedTask{Type: 0, PState: cluster.P2, Deadline: 1e9})

	mkCtx := func(arena *Arena) *Context {
		ctx := f.ctx() // a fresh engine per context
		ctx.Arena = arena
		return ctx
	}

	fresh := mkCtx(nil)
	want := BuildCandidates(fresh, f.view)

	arena := NewArena()
	m := &Mapper{Heuristic: LightestLoad{}, Filters: EnergyAndRobustness.Filters()}
	// Several rounds over the same arena: steady-state reuse must not
	// leak one decision's state into the next.
	for round := 0; round < 3; round++ {
		ctx := mkCtx(arena)
		got := BuildCandidates(ctx, f.view)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d candidates, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].Core != want[i].Core || got[i].PState != want[i].PState {
				t.Fatalf("round %d cand %d: (%v,%v) vs (%v,%v)",
					round, i, got[i].Core, got[i].PState, want[i].Core, want[i].PState)
			}
			if got[i].EET != want[i].EET || got[i].EEC != want[i].EEC || got[i].ECT() != want[i].ECT() {
				t.Fatalf("round %d cand %d: EET/EEC/ECT diverge", round, i)
			}
			if g, w := got[i].Rho(), want[i].Rho(); g != w {
				t.Fatalf("round %d cand %d: arena Rho %v, fresh Rho %v", round, i, g, w)
			}
		}
	}

	// Full decision parity, including the in-place Map filter.
	freshCtx := mkCtx(nil)
	wantDec := m.Map(freshCtx, BuildCandidates(freshCtx, f.view))
	arenaCtx := mkCtx(arena)
	gotDec := m.Map(arenaCtx, BuildCandidates(arenaCtx, f.view))
	if (wantDec == nil) != (gotDec == nil) {
		t.Fatalf("map outcomes diverge: %v vs %v", wantDec, gotDec)
	}
	if wantDec != nil {
		if gotDec.Core != wantDec.Core || gotDec.PState != wantDec.PState {
			t.Fatalf("arena chose (%v,%v), fresh chose (%v,%v)",
				gotDec.Core, gotDec.PState, wantDec.Core, wantDec.PState)
		}
		if gotDec.Rho() != wantDec.Rho() || gotDec.ECT() != wantDec.ECT() {
			t.Fatalf("decision scores diverge: %+v vs %+v", gotDec, wantDec)
		}
	}
}

// TestArenaSteadyStateAllocs pins the zero-alloc claim: once the arena has
// grown to the cluster's candidate count, a full enumerate-filter-score
// decision on the grid path stays allocation-free, and the queue snapshots
// the engines feed it grow geometrically.
func TestArenaSteadyStateAllocs(t *testing.T) {
	f := newFixture(t, 12)
	f.view.push(0, robustness.QueuedTask{Type: 1, PState: cluster.P0, Deadline: 1e9, Started: true, StartAt: 80})
	f.view.push(1, robustness.QueuedTask{Type: 2, PState: cluster.P1, Deadline: 1e9})

	ctx := f.ctx()
	ctx.Arena = NewArena()
	m := &Mapper{Heuristic: LightestLoad{}, Filters: EnergyAndRobustness.Filters()}

	decide := func() {
		if c := m.Map(ctx, BuildCandidates(ctx, f.view)); c == nil {
			t.Fatal("decision filtered out every candidate")
		}
	}
	decide() // warm: grows the arena, fills engine caches
	if n := testing.AllocsPerRun(50, decide); n > 0 {
		t.Fatalf("steady-state decision allocates %v times, want 0", n)
	}

	// The engines snapshot their queues into QueueSnapshots. A queue that
	// keeps reaching new maximum lengths must not reallocate its snapshot
	// buffer at every one of them: 256 successive maxima from a fresh
	// buffer may reallocate only O(log 256) times.
	const maxLen = 256
	grow := func() {
		snaps := NewQueueSnapshots(1)
		for n := 1; n <= maxLen; n++ {
			if got := snaps.Take(0, n); len(got) != n {
				t.Fatalf("Take(0, %d) has length %d", n, len(got))
			}
		}
	}
	if n := testing.AllocsPerRun(5, grow); n > 2*8+1 {
		t.Fatalf("growing a queue snapshot to %d tasks allocates %v times, want <= 17", maxLen, n)
	}
}
