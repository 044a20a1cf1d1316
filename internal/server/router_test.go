package server

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/workload"
)

// newTestRouter builds an n-shard router over a shared ManualClock and
// starts it with every periodic duty disabled, so tests drive time and
// health transitions explicitly. mut tweaks the base config.
func newTestRouter(t testing.TB, m *workload.Model, n int, mut func(*Config)) (*Router, *ManualClock) {
	t.Helper()
	clk := NewManualClock()
	cfg := Config{
		Model:  m,
		Mapper: testMapper(0),
		Clock:  clk,
		Seed:   42,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewSharded(cfg, n, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, clk
}

// syncShards flushes every live shard's event loop at the current virtual
// instant.
func syncShards(rt *Router) {
	for _, sh := range rt.Shards() {
		if !sh.Engine().Killed() {
			sh.Engine().Sync()
		}
	}
}

func TestPartitionNodesCoversCluster(t *testing.T) {
	m := buildModel(t, 7)
	c := m.Cluster
	for n := 1; n <= c.N(); n++ {
		parts := partitionNodes(c, n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(parts))
		}
		next := 0
		for i, p := range parts {
			if len(p) == 0 {
				t.Fatalf("n=%d: shard %d owns no nodes", n, i)
			}
			for _, node := range p {
				if node != next {
					t.Fatalf("n=%d shard %d: want contiguous node %d, got %d", n, i, next, node)
				}
				next++
			}
		}
		if next != c.N() {
			t.Fatalf("n=%d: %d of %d nodes owned", n, next, c.N())
		}
	}
}

// TestSubBudgetLedgerExact checks the construction-time carve: sub-budgets
// are proportional to core counts and sum to ζ_max to the bit, with no
// slack parked at the router.
func TestSubBudgetLedgerExact(t *testing.T) {
	m := buildModel(t, 7)
	zeta := idleRate(t, m) * 100 * m.TAvg()
	rt, _ := newTestRouter(t, m, 3, func(c *Config) { c.Budget = zeta })
	var sum float64
	for _, b := range rt.SubBudgets() {
		if !(b > 0) {
			t.Fatalf("non-positive sub-budget %v", b)
		}
		sum += b
	}
	if sum != zeta {
		t.Fatalf("sub-budgets sum %v != ζ_max %v", sum, zeta)
	}
	if s := rt.SlackBudget(); s != 0 {
		t.Fatalf("construction slack %v, want 0", s)
	}
	// Each engine's meter mirrors its ledger entry.
	for i, sh := range rt.Shards() {
		if got, want := sh.Engine().Budget(), rt.SubBudgets()[i]; got != want {
			t.Fatalf("shard %d meter budget %v != ledger %v", i, got, want)
		}
	}
}

// TestHorizonCarvedPerShard checks that the energy filter's Horizon is
// carved like ζ_max: proportional to core counts, at least 1 per shard,
// summing exactly to the unsharded Horizon, so each shard's fair share
// ζ_i/H_i stays close to the unsharded ζ/H instead of shrinking to c_i/C of
// it.
func TestHorizonCarvedPerShard(t *testing.T) {
	m := buildModel(t, 7)
	zeta := idleRate(t, m) * 100 * m.TAvg()
	for _, n := range []int{2, 3, 4} {
		rt, _ := newTestRouter(t, m, n, func(c *Config) { c.Budget = zeta })
		h, cores := m.Params.WindowSize, m.Cluster.TotalCores()
		sum := 0
		for i, sh := range rt.Shards() {
			hi := sh.Engine().cfg.Horizon
			if hi < 1 {
				t.Fatalf("n=%d shard %d: Horizon %d < 1", n, i, hi)
			}
			sum += hi
			if want := float64(h) * float64(sh.Cores) / float64(cores); math.Abs(float64(hi)-want) > float64(n) {
				t.Errorf("n=%d shard %d (%d of %d cores): Horizon %d, want ≈ %.1f", n, i, sh.Cores, cores, hi, want)
			}
			fair, whole := rt.SubBudgets()[i]/float64(hi), zeta/float64(h)
			if fair < 0.5*whole || fair > 2*whole {
				t.Errorf("n=%d shard %d: fair share %v far from the unsharded %v", n, i, fair, whole)
			}
		}
		if sum != h {
			t.Errorf("n=%d: shard Horizons sum to %d, want %d", n, sum, h)
		}
	}
	// One shard is the identity: the Horizon is left to the engine default.
	rt, _ := newTestRouter(t, m, 1, nil)
	if got := rt.Shards()[0].Engine().cfg.Horizon; got != m.Params.WindowSize {
		t.Errorf("shards=1 Horizon %d, want %d", got, m.Params.WindowSize)
	}
}

// TestRoundRobinDistribution routes a burst through three healthy shards
// and expects an exactly even split: the rotation cursor advances once per
// pick over a stable candidate set.
func TestRoundRobinDistribution(t *testing.T) {
	m := buildModel(t, 3)
	rt, _ := newTestRouter(t, m, 3, nil)
	const perShard = 10
	for i := 0; i < 3*perShard; i++ {
		if _, err := rt.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, sh := range rt.Shards() {
		if got := sh.Engine().Stats().Received; got != perShard {
			t.Fatalf("shard %d received %d, want %d", sh.ID, got, perShard)
		}
	}
}

// TestLeastLoadedChoose exercises the least-loaded policy directly: exact
// load ties break to the lowest shard ID, and a genuinely lighter shard
// wins regardless of position.
func TestLeastLoadedChoose(t *testing.T) {
	cand := func(id, cores, queued int, inflight int64) *ShardCandidate {
		return &ShardCandidate{Shard: &Shard{ID: id, Cores: cores}, QueueLen: queued, InFlight: inflight}
	}
	p := LeastLoadedPlacement{}
	// Identical loads: lowest ID must win, on every permutation-free scan.
	tie := []*ShardCandidate{cand(0, 4, 2, 2), cand(1, 4, 2, 2), cand(2, 4, 2, 2)}
	for i := 0; i < 5; i++ {
		if got := p.Choose(tie).Shard.ID; got != 0 {
			t.Fatalf("tie-break picked shard %d, want 0", got)
		}
	}
	// Shard 2 has half the per-core backlog of the others.
	uneven := []*ShardCandidate{cand(0, 4, 4, 4), cand(1, 4, 4, 4), cand(2, 8, 4, 4)}
	if got := p.Choose(uneven).Shard.ID; got != 2 {
		t.Fatalf("picked shard %d, want least-loaded 2", got)
	}
}

// TestRobustnessAwareChoose checks the headroom/load trade: a lightly
// loaded shard about to exhaust its sub-budget loses to a busier shard
// with energy to spare, and unconstrained candidates tie-break by ID.
func TestRobustnessAwareChoose(t *testing.T) {
	p := RobustnessAwarePlacement{}
	starved := &ShardCandidate{Shard: &Shard{ID: 0, Cores: 4}, QueueLen: 0, Budget: 100, Consumed: 99}
	fed := &ShardCandidate{Shard: &Shard{ID: 1, Cores: 4}, QueueLen: 4, InFlight: 4, Budget: 100, Consumed: 10}
	if got := p.Choose([]*ShardCandidate{starved, fed}).Shard.ID; got != 1 {
		t.Fatalf("picked shard %d, want energy-headroom shard 1", got)
	}
	a := &ShardCandidate{Shard: &Shard{ID: 0, Cores: 4}, Budget: math.Inf(1)}
	b := &ShardCandidate{Shard: &Shard{ID: 1, Cores: 4}, Budget: math.Inf(1)}
	if got := p.Choose([]*ShardCandidate{a, b}).Shard.ID; got != 0 {
		t.Fatalf("unconstrained tie picked shard %d, want 0", got)
	}
}

func TestNewShardedValidation(t *testing.T) {
	m := buildModel(t, 5)
	base := Config{Model: m, Mapper: testMapper(0), Clock: NewManualClock(), Seed: 1}
	if _, err := NewSharded(base, 0, RouterConfig{}); err == nil {
		t.Fatal("want error for 0 shards")
	}
	if _, err := NewSharded(base, m.Cluster.N()+1, RouterConfig{}); err == nil {
		t.Fatal("want error for more shards than nodes")
	}
	bad := base
	bad.Faults.Script = []fault.Scripted{{Time: 1, Kind: fault.Transient, Core: 0}}
	if _, err := NewSharded(bad, 2, RouterConfig{}); err == nil {
		t.Fatal("want error for scripted faults with shards > 1")
	}
	bad = base
	bad.Faults.ShardKills = []fault.ShardKill{{Time: 1, Shard: 2}}
	if _, err := NewSharded(bad, 2, RouterConfig{}); err == nil {
		t.Fatal("want error for shard-kill beyond shard count")
	}
}

// TestKillShardReclaimsBudget kills one of three shards and checks the
// reclamation contract: the dead entry is pinned at its final consumption,
// the freed remainder moves to the survivors' ledgers and meters, and
// Σ ledger + slack ≡ ζ_max is preserved through the transfer.
func TestKillShardReclaimsBudget(t *testing.T) {
	m := buildModel(t, 11)
	zeta := idleRate(t, m) * 200 * m.TAvg()
	rt, clk := newTestRouter(t, m, 3, func(c *Config) { c.Budget = zeta })

	for i := 0; i < 12; i++ {
		if _, err := rt.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	clk.Advance(m.TAvg() / 2)
	syncShards(rt)

	before := rt.SubBudgets()
	victim := rt.Shards()[1]
	if err := rt.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if victim.Health() != ShardDead || !victim.Engine().Killed() {
		t.Fatal("victim not dead after KillShard")
	}
	if err := rt.KillShard(1); err != nil {
		t.Fatalf("second kill not idempotent: %v", err)
	}

	after := rt.SubBudgets()
	cons := victim.Engine().EnergyConsumed()
	if after[1] != cons {
		t.Fatalf("dead ledger entry %v, want pinned at consumed %v", after[1], cons)
	}
	if !(after[0] > before[0]) || !(after[2] > before[2]) {
		t.Fatalf("survivors did not grow: before %v after %v", before, after)
	}
	sum := rt.SlackBudget()
	for _, b := range after {
		sum += b
	}
	// The reclaim transfer moves real float amounts; allow rounding noise
	// only, not a stranded or invented share.
	if math.Abs(sum-(zeta-(before[1]-cons))-(before[1]-cons)) > 1e-9*zeta {
		t.Fatalf("ledger sum %v + slack drifted from ζ_max %v", sum, zeta)
	}
	if math.Abs(sum-zeta) > 1e-9*zeta {
		t.Fatalf("Σ ledger + slack = %v, want ζ_max %v", sum, zeta)
	}
	// Meters mirror the post-reclaim ledger.
	for i, sh := range rt.Shards() {
		if i == 1 {
			continue
		}
		if got := sh.Engine().Budget(); math.Abs(got-after[i]) > 1e-9*zeta {
			t.Fatalf("shard %d meter %v != ledger %v after reclaim", i, got, after[i])
		}
	}

	// The dead shard is out of the rotation; survivors take everything.
	recBefore := victim.Engine().Stats().Received
	for i := 0; i < 10; i++ {
		if _, err := rt.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
			t.Fatalf("post-kill submit %d: %v", i, err)
		}
	}
	if got := victim.Engine().Stats().Received; got != recBefore {
		t.Fatalf("dead shard received %d new requests", got-recBefore)
	}
}

// TestRouterFailoverAccounting hammers a three-shard router with
// concurrent submitters while one shard is killed mid-burst, then drains
// and audits the merged ledger: every request that got a Decision is
// accounted exactly once (no orphan, no double-decide), and requests
// bounced off the dying shard either landed on a survivor or were shed
// with a retryable reason. Run with -race.
func TestRouterFailoverAccounting(t *testing.T) {
	m := buildModel(t, 13)
	rt, _ := newTestRouter(t, m, 3, func(c *Config) { c.QueueCap = 1024 })

	const (
		workers = 8
		perW    = 50
	)
	var decided, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				_, err := rt.Submit(TaskRequest{Type: (w + i) % m.Params.TaskTypes})
				if err == nil {
					decided.Add(1)
					continue
				}
				rejected.Add(1)
				rej, ok := err.(*ErrRejected)
				if !ok {
					t.Errorf("worker %d: non-rejection error %v", w, err)
					return
				}
				// The router never leaks a single shard's availability
				// verdict: by the time Submit gives up, every shard was
				// tried.
				if rej.Reason == RejectShardDown {
					t.Errorf("worker %d: shard-down escaped the failover loop", w)
					return
				}
				if i == perW/2 && w == 0 {
					// Ensure the kill below isn't racing an empty router.
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	// Kill shard 1 mid-burst.
	time.Sleep(2 * time.Millisecond)
	if err := rt.KillShard(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rep := rt.FinalReport()
	if rep.Orphaned != 0 {
		t.Fatalf("%d task(s) orphaned across failover", rep.Orphaned)
	}
	if !rep.Balanced {
		t.Fatalf("merged ledger unbalanced: %+v", rep.Stats)
	}
	st := rep.Stats
	if got, want := st.Mapped+st.Shed+st.TimedOut, decided.Load(); got != want {
		t.Fatalf("decisions in ledger %d != decisions returned %d (double-decide or loss)", got, want)
	}
	if got, want := st.Received, int64(workers*perW)+rejected.Load()+st.Retries; got < int64(workers*perW) {
		t.Fatalf("received %d < submitted %d (want >= including failover retries, got %d/%d)", got, workers*perW, got, want)
	}
	// Each shard's own ledger balances too — failover must not smear
	// accounting across engines.
	for _, sh := range rt.Shards() {
		s := sh.Engine().Stats()
		if s.Admitted != s.Mapped+s.Shed+s.TimedOut {
			t.Fatalf("shard %d ledger unbalanced: admitted %d != %d+%d+%d",
				sh.ID, s.Admitted, s.Mapped, s.Shed, s.TimedOut)
		}
	}
}

// TestRouterNoShard kills every shard and expects the router-level shed:
// RejectNoShard with a Retry-After, never a panic or a hang.
func TestRouterNoShard(t *testing.T) {
	m := buildModel(t, 17)
	rt, _ := newTestRouter(t, m, 2, nil)
	for i := range rt.Shards() {
		if err := rt.KillShard(i); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Admitting() {
		t.Fatal("router still admitting with every shard dead")
	}
	_, err := rt.Submit(TaskRequest{Type: 0})
	rej, ok := err.(*ErrRejected)
	if !ok || rej.Reason != RejectNoShard {
		t.Fatalf("got %v, want RejectNoShard", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("RetryAfter %v, want > 0", rej.RetryAfter)
	}
}

// TestShardsOneIdentity drives the same deterministic scenario through a
// plain engine and a one-shard router and expects identical decisions and
// identical final accounting — the identity the shards=1 flight-trace gate
// in verify.sh asserts end to end.
func TestShardsOneIdentity(t *testing.T) {
	m := buildModel(t, 23)
	zeta := idleRate(t, m) * 300 * m.TAvg()

	type step struct {
		d   Decision
		err string
	}
	drive := func(submit func(TaskRequest) (Decision, error), advance func(float64), sync func()) []step {
		var steps []step
		for i := 0; i < 20; i++ {
			d, err := submit(TaskRequest{Type: i % m.Params.TaskTypes})
			d.QueueWait = 0 // wall-clock noise, excluded from identity
			s := step{d: d}
			if err != nil {
				s.err = err.Error()
			}
			steps = append(steps, s)
			if i%4 == 3 {
				advance(m.TAvg() / 3)
				sync()
			}
		}
		advance(4 * m.TAvg())
		sync()
		return steps
	}

	eng, clkA := newTestEngine(t, m, func(c *Config) { c.Budget = zeta })
	ref := drive(eng.Submit, clkA.Advance, eng.Sync)

	rt, clkB := newTestRouter(t, m, 1, func(c *Config) { c.Budget = zeta })
	got := drive(rt.Submit, clkB.Advance, func() { syncShards(rt) })

	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("decision streams diverge:\n engine: %+v\n router: %+v", ref, got)
	}
	es, rs := eng.Stats(), rt.Stats()
	if !reflect.DeepEqual(es, rs) {
		t.Fatalf("stats diverge:\n engine: %+v\n router: %+v", es, rs)
	}
	sh := rt.Shards()[0]
	if sh.Engine().Budget() != eng.Budget() {
		t.Fatalf("budget diverges: %v vs %v", sh.Engine().Budget(), eng.Budget())
	}
	if len(sh.Nodes) != m.Cluster.N() {
		t.Fatalf("one-shard router owns %d of %d nodes", len(sh.Nodes), m.Cluster.N())
	}
}

// TestShardedRecoveryDeterminism is the multi-shard recovery contract: a
// three-shard durable router crashes abruptly mid-stream, then two
// independent recover + deterministic-drain passes over the surviving
// per-shard WALs must produce bit-identical final reports — the in-process
// version of verify.sh's sharded replay gate.
func TestShardedRecoveryDeterminism(t *testing.T) {
	m := buildModel(t, 31)
	dir := t.TempDir()
	zeta := idleRate(t, m) * 400 * m.TAvg()
	base := func() Config {
		return Config{
			Model:          m,
			Mapper:         testMapper(0),
			Clock:          NewManualClock(),
			Seed:           42,
			Budget:         zeta,
			WALPath:        filepath.Join(dir, "wal"),
			CheckpointPath: filepath.Join(dir, "ckpt"),
		}
	}

	// Crash run: serve a deterministic burst, checkpoint one shard
	// mid-stream (exercising the checkpoint + WAL-suffix replay path for
	// that shard against genesis replay for the others), then stop
	// abruptly without draining.
	cfg := base()
	clk := cfg.Clock.(*ManualClock)
	rt, err := NewSharded(cfg, 3, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ {
		if _, err := rt.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%5 == 4 {
			clk.Advance(m.TAvg() / 4)
			syncShards(rt)
		}
	}
	if err := rt.Shards()[1].Engine().CheckpointNow(); err != nil {
		t.Fatalf("checkpoint shard 1: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := rt.Submit(TaskRequest{Type: (i + 3) % m.Params.TaskTypes}); err != nil {
			t.Fatalf("late submit %d: %v", i, err)
		}
	}
	clk.Advance(m.TAvg() / 2)
	syncShards(rt)
	rt.Close() // crash: loops stop, per-shard WALs survive

	recoverDrain := func() *FinalReport {
		t.Helper()
		rrt, err := NewSharded(base(), 3, RouterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := rrt.RecoverAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != 3 {
			t.Fatalf("recovered %d shard(s), want 3", len(reps))
		}
		if err := rrt.DrainAllNow(); err != nil {
			t.Fatalf("drain-all-now: %v", err)
		}
		rep := rrt.FinalReport()
		rep.UptimeSeconds = 0
		return rep
	}

	first := recoverDrain()
	second := recoverDrain()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("sharded recovery diverges across replays:\n first: %+v\n second: %+v", first, second)
	}
	if first.Orphaned != 0 {
		t.Fatalf("%d task(s) orphaned across crash recovery", first.Orphaned)
	}
	if !first.Balanced {
		t.Fatalf("recovered merged ledger unbalanced: %+v", first.Stats)
	}
	if !math.IsInf(rtTotal(first), 1) && first.Stats.EnergyConsumed > zeta+1e-9 {
		t.Fatalf("recovered consumption %v exceeds ζ_max %v", first.Stats.EnergyConsumed, zeta)
	}
}

// rtTotal extracts the report's budget or +Inf when unconstrained.
func rtTotal(r *FinalReport) float64 {
	if r.Stats.EnergyBudget == 0 {
		return math.Inf(1)
	}
	return r.Stats.EnergyBudget
}

// BenchmarkServeAdmit measures end-to-end admission throughput (Submit →
// decision) with parallel clients against 1 vs 4 shards. The sharded
// configuration must scale: each shard decides on its own loop goroutine.
func BenchmarkServeAdmit(b *testing.B) {
	m := buildModel(b, 29)
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4"}[shards], func(b *testing.B) {
			cfg := Config{
				Model:     m,
				Mapper:    testMapper(0),
				Seed:      42,
				TimeScale: 1e6, // virtual time flies: completions retire quickly
				QueueCap:  4096,
			}
			rt, err := NewSharded(cfg, shards, RouterConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Start(); err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(seq.Add(1))
					if _, err := rt.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			rt.Close()
		})
	}
}
