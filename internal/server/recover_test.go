package server

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/workload"
)

// idleRate probes the cluster's idle power draw so tests can pick budgets
// relative to it without hard-coding watts.
func idleRate(t testing.TB, m *workload.Model) float64 {
	t.Helper()
	probe, err := energy.NewMeter(m.Cluster, cluster.P4, math.Inf(1), false)
	if err != nil {
		t.Fatal(err)
	}
	return probe.Rate()
}

// durableCfg is the shared configuration of the durability tests: scripted
// faults (two transients striking one breaker, then a permanent node death),
// requeue recovery, a finite budget, and the WAL + checkpoint in dir.
func durableCfg(t testing.TB, m *workload.Model, dir string, clk *ManualClock) Config {
	t.Helper()
	tAvg := m.TAvg()
	return Config{
		Model:  m,
		Mapper: testMapper(0),
		Clock:  clk,
		Seed:   42,
		Budget: idleRate(t, m) * 500 * tAvg,
		Faults: fault.Spec{
			RepairTime: tAvg / 2,
			Script: []fault.Scripted{
				{Time: tAvg / 3, Kind: fault.Transient, Core: 0},
				{Time: tAvg / 2.5, Kind: fault.Transient, Core: 1},
				{Time: 2.2 * tAvg, Kind: fault.Permanent, Node: 1},
			},
			Recovery: fault.Recovery{Mode: fault.Requeue, MaxRetries: 2, Backoff: tAvg / 10},
		},
		Breaker:        BreakerConfig{Threshold: 2, Cooldown: tAvg / 2},
		WALPath:        filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt"),
	}
}

// driveScenario runs the deterministic history both the reference and the
// crash runs share: admissions interleaved with virtual time, an infeasible
// shed, the scripted faults, a mid-stream checkpoint, then a late burst.
func driveScenario(t testing.TB, eng *Engine, clk *ManualClock, m *workload.Model) {
	t.Helper()
	tAvg := m.TAvg()
	for i := 0; i < 12; i++ {
		if _, err := eng.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%3 == 2 {
			clk.Advance(tAvg / 4)
			eng.Sync()
		}
	}
	zero := 0.0
	if _, err := eng.Submit(TaskRequest{Type: 0, Slack: &zero}); err != nil {
		t.Fatalf("infeasible submit: %v", err)
	}
	clk.Advance(tAvg)
	eng.Sync()
	if err := eng.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Preserve the mid-stream checkpoint: the final CheckpointNow below
	// overwrites the live file, and the bit-identity test wants to replay
	// from this one plus the record suffix.
	mid, err := os.ReadFile(eng.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(eng.cfg.CheckpointPath+".mid", mid, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Submit(TaskRequest{Type: (i + 5) % m.Params.TaskTypes}); err != nil {
			t.Fatalf("late submit %d: %v", i, err)
		}
	}
	clk.Advance(3 * tAvg)
	eng.Sync()
	// Pin the final meter coordinates into the stream (quiet-stretch meter
	// advance is otherwise lost to the budget/1024 energy granularity).
	if err := eng.CheckpointNow(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
}

// driveBrownoutScenario is driveScenario followed by a burst admitted under
// the idle-parking stage and left in flight at the crash, so the drain
// after every recovery integrates energy over gated idle cores.
func driveBrownoutScenario(t testing.TB, eng *Engine, clk *ManualClock, m *workload.Model) {
	t.Helper()
	driveScenario(t, eng, clk, m)
	for i := 0; i < 6; i++ {
		if _, err := eng.Submit(TaskRequest{Type: i % m.Params.TaskTypes}); err != nil {
			t.Fatalf("tail submit %d: %v", i, err)
		}
	}
	clk.Advance(m.TAvg() / 10)
	eng.Sync()
	if err := eng.CheckpointNow(); err != nil {
		t.Fatalf("tail checkpoint: %v", err)
	}
}

// walLines splits a WAL file into its header line and record lines.
func walLines(t *testing.T, path string) (header []byte, records [][]byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		t.Fatalf("%s: empty WAL", path)
	}
	return lines[0], lines[1:]
}

// writeTruncatedWAL writes header + the first k records of src as dst.
func writeTruncatedWAL(t *testing.T, header []byte, records [][]byte, k int, dst string) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(header)
	for _, r := range records[:k] {
		buf.Write(r)
	}
	if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// durableScenario builds the configuration of one durability scenario over
// a WAL + checkpoint directory and a clock.
type durableScenario func(t testing.TB, m *workload.Model, dir string, clk *ManualClock) Config

// brownoutCfg is durableCfg under the default brownout schedule with a
// budget the scenario drains past the 98% stage, which parks idle cores:
// recovery must rebuild the meter with those cores gated.
func brownoutCfg(t testing.TB, m *workload.Model, dir string, clk *ManualClock) Config {
	cfg := durableCfg(t, m, dir, clk)
	cfg.Budget = idleRate(t, m) * 4 * m.TAvg()
	cfg.Brownout = energy.DefaultBrownoutStages()
	return cfg
}

// recoverEngine prepares an engine over dir's WAL + checkpoint and replays.
func recoverEngine(t *testing.T, m *workload.Model, dir string) (*Engine, *RecoveryReport) {
	return recoverEngineWith(t, m, dir, durableCfg)
}

func recoverEngineWith(t *testing.T, m *workload.Model, dir string, scen durableScenario) (*Engine, *RecoveryReport) {
	t.Helper()
	cfg := scen(t, m, dir, NewManualClock())
	eng, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RecoverFrom()
	if err != nil {
		t.Fatalf("recover from %s: %v", dir, err)
	}
	return eng, rep
}

// recoverAndDrain recovers from dir and drains deterministically, returning
// the normalized final report (wall uptime zeroed).
func recoverAndDrain(t *testing.T, m *workload.Model, dir string, scen durableScenario) *FinalReport {
	t.Helper()
	eng, _ := recoverEngineWith(t, m, dir, scen)
	_ = eng.DrainNow() // grace expiry is reported in the final accounting
	rep := eng.FinalReport()
	rep.UptimeSeconds = 0
	return rep
}

// TestRecoveryBitIdentity is the recovery contract's property test. One
// deterministic scenario runs twice: a reference run that drains normally,
// and a crash run that stops abruptly, leaving its WAL and mid-stream
// checkpoint behind. Then, for cuts across the whole record stream:
//
//   - recovering from the WAL prefix and recovering again from the state
//     the first recovery persisted (checkpoint round-trip) must produce
//     bit-identical final reports;
//   - for cuts at or past the checkpoint, genesis replay (WAL alone) and
//     checkpoint + suffix replay must agree bit-identically;
//   - at the full-stream cut, the recovered report must equal the
//     uninterrupted reference run's report.
//
// The brownout scenario drains the budget past the default schedule's 98%
// stage, which parks idle cores, and is cut at every record.
func TestRecoveryBitIdentity(t *testing.T) {
	m := buildModel(t, 30)
	checkRecoveryBitIdentity(t, m, durableCfg, driveScenario, false)
	t.Run("brownout", func(t *testing.T) { checkRecoveryBitIdentity(t, m, brownoutCfg, driveBrownoutScenario, true) })
}

func checkRecoveryBitIdentity(t *testing.T, m *workload.Model, scen durableScenario,
	drive func(testing.TB, *Engine, *ManualClock, *workload.Model), everyCut bool) {
	// Reference: identical history, graceful drain, no crash.
	refDir := t.TempDir()
	refClk := NewManualClock()
	refEng, err := New(scen(t, m, refDir, refClk))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, refEng, refClk, m)
	crashInFlight := refEng.Stats().InFlight
	refEng.Close() // abrupt: the crash whose artifacts everything below replays

	// The uninterrupted reference: same history, drained in place.
	ref2Dir := t.TempDir()
	ref2Clk := NewManualClock()
	ref2Eng, err := New(scen(t, m, ref2Dir, ref2Clk))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, ref2Eng, ref2Clk, m)
	if err := ref2Eng.Drain(t.Context()); err != nil {
		t.Fatalf("reference drain: %v", err)
	}
	refRep := ref2Eng.FinalReport()
	refRep.UptimeSeconds = 0

	// Sanity: the scenario must actually exercise the record kinds the
	// replayer handles, or the property below proves nothing.
	if st := refRep.Stats; st.Faults != 3 || st.Retries == 0 || st.Shed == 0 {
		t.Fatalf("scenario too tame to test recovery: %+v", st)
	}
	if cfg := scen(t, m, refDir, refClk); len(cfg.Brownout) > 0 && refRep.Stats.BrownoutStage != len(cfg.Brownout) {
		t.Fatalf("brownout scenario reached stage %d, want the idle-parking stage %d", refRep.Stats.BrownoutStage, len(cfg.Brownout))
	}
	if everyCut && crashInFlight == 0 {
		t.Fatal("no work in flight at the crash: the drain after recovery would not integrate energy")
	}

	header, records := walLines(t, filepath.Join(refDir, "wal.1"))
	n := len(records)
	ck, err := loadCheckpoint(filepath.Join(refDir, "ckpt.mid"))
	if err != nil || ck == nil {
		t.Fatalf("mid-stream checkpoint missing: %v", err)
	}
	c := int(ck.WALRecords)
	if n < 40 || c <= 0 || c >= n {
		t.Fatalf("degenerate stream: %d records, checkpoint cut %d", n, c)
	}

	cuts := map[int]bool{0: true, 1: true, c - 1: true, c: true, c + 1: true, (c + n) / 2: true, n - 1: true, n: true}
	for k := 7; k < n; k += n / 6 {
		cuts[k] = true
	}
	if everyCut {
		for k := 0; k <= n; k++ {
			cuts[k] = true
		}
	}
	for k := range cuts {
		if k < 0 || k > n {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", k), func(t *testing.T) {
			// Genesis replay of the prefix alone.
			dirA := t.TempDir()
			writeTruncatedWAL(t, header, records, k, filepath.Join(dirA, "wal.1"))
			finA := recoverAndDrain(t, m, dirA, scen)

			// Checkpoint round-trip: recover, crash immediately (the first
			// recovery persisted a rotated WAL + fresh checkpoint), recover
			// again from what it left behind, then drain.
			dirB := t.TempDir()
			writeTruncatedWAL(t, header, records, k, filepath.Join(dirB, "wal.1"))
			eng1, rep1 := recoverEngineWith(t, m, dirB, scen)
			_ = eng1.wal.close() // crash: no drain, file released
			eng2, rep2 := recoverEngineWith(t, m, dirB, scen)
			if rep2.Incarnation != rep1.Incarnation+1 {
				t.Fatalf("incarnation %d after %d", rep2.Incarnation, rep1.Incarnation)
			}
			_ = eng2.DrainNow()
			finB := eng2.FinalReport()
			finB.UptimeSeconds = 0
			if !reflect.DeepEqual(finA, finB) {
				t.Errorf("checkpoint round-trip diverged at cut %d:\n direct: %+v\n roundtrip: %+v", k, finA.Stats, finB.Stats)
			}

			// Checkpoint + suffix must equal genesis replay.
			if k >= c {
				dirC := t.TempDir()
				writeTruncatedWAL(t, header, records, k, filepath.Join(dirC, "wal.1"))
				cp, err := os.ReadFile(filepath.Join(refDir, "ckpt.mid"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dirC, "ckpt"), cp, 0o644); err != nil {
					t.Fatal(err)
				}
				finC := recoverAndDrain(t, m, dirC, scen)
				if !reflect.DeepEqual(finA, finC) {
					t.Errorf("checkpoint+suffix diverged from genesis at cut %d:\n genesis: %+v\n ckpt: %+v", k, finA.Stats, finC.Stats)
				}
			}

			// The full stream must reproduce the uninterrupted run.
			if k == n && !reflect.DeepEqual(finA, refRep) {
				t.Errorf("full-stream recovery diverged from the uninterrupted run:\n recovered: %+v\n reference: %+v", finA.Stats, refRep.Stats)
			}
		})
	}
}

// TestRecoverReDecidesOpenAdmit cuts the stream right after an admit record:
// the recovered engine must re-make the lost decision (the client was acked,
// the admission is durable) and account for the task.
func TestRecoverReDecidesOpenAdmit(t *testing.T) {
	m := buildModel(t, 31)
	dir := t.TempDir()
	clk := NewManualClock()
	eng, err := New(durableCfg(t, m, dir, clk))
	if err != nil {
		t.Fatal(err)
	}
	driveScenario(t, eng, clk, m)
	eng.Close()

	header, records := walLines(t, filepath.Join(dir, "wal.1"))
	admitAt := -1
	for i, line := range records {
		if bytes.Contains(line, []byte(`"k":"admit"`)) {
			admitAt = i
		}
	}
	if admitAt < 0 {
		t.Fatal("no admit record in the stream")
	}
	cutDir := t.TempDir()
	writeTruncatedWAL(t, header, records, admitAt+1, filepath.Join(cutDir, "wal.1"))
	reng, rep := recoverEngine(t, m, cutDir)
	if rep.ReDecided != 1 {
		t.Fatalf("re-decided %d admits, want 1", rep.ReDecided)
	}
	_ = reng.DrainNow()
	fin := reng.FinalReport()
	if fin.Orphaned != 0 || !fin.Balanced {
		t.Fatalf("re-decide left the accounting broken: orphaned %d balanced %v %+v", fin.Orphaned, fin.Balanced, fin.Stats)
	}
}

// TestRecoverFailsExpiredDeadline hand-crafts a WAL whose open admit's
// deadline has already passed by the recovered virtual time: the task must
// be shed (visible, accounted) — never orphaned.
func TestRecoverFailsExpiredDeadline(t *testing.T) {
	m := buildModel(t, 32)
	dir := t.TempDir()
	cfg := durableCfg(t, m, dir, NewManualClock())
	donor, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := idleRate(t, m)
	donor.incarnation = 1 // Start would do this; the donor never starts
	w, err := createWAL(cfg.WALPath, donor.walHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.append(&walRecord{
		K: wkAdmit, T: 5, MT: 5, EN: 5 * rate,
		ID: 0, Ty: 0, Arr: 5, DL: 6, U: 0.5, Pri: 1,
		QS: hexState(donor.quantRn.State()),
	})
	// Virtual time moves far past the deadline before the crash.
	w.append(&walRecord{K: wkEnergy, T: 500, MT: 500, EN: 500 * rate})
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	eng, rep := recoverEngine(t, m, dir)
	if rep.ReDecided != 1 {
		t.Fatalf("re-decided %d, want 1", rep.ReDecided)
	}
	_ = eng.DrainNow()
	fin := eng.FinalReport()
	if fin.Stats.Shed != 1 || fin.Stats.ShedInfeasible != 1 {
		t.Fatalf("expired admit not shed as infeasible: %+v", fin.Stats)
	}
	if fin.Orphaned != 0 || !fin.Balanced {
		t.Fatalf("expired admit orphaned: %+v", fin.Stats)
	}
}

// TestRecoverTornTail appends garbage after the last full record: recovery
// must drop the torn line, report its byte offset, and still replay the
// intact prefix.
func TestRecoverTornTail(t *testing.T) {
	m := buildModel(t, 33)
	dir := t.TempDir()
	clk := NewManualClock()
	eng, err := New(durableCfg(t, m, dir, clk))
	if err != nil {
		t.Fatal(err)
	}
	driveScenario(t, eng, clk, m)
	eng.Close()

	path := filepath.Join(dir, "wal.1")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, intact...), []byte(`{"k":"map","t":12.5,"id"`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "ckpt")) // force full genesis replay

	reng, rep := recoverEngine(t, m, dir)
	if !rep.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rep.TornOffset != int64(len(intact)) {
		t.Fatalf("torn offset %d, want %d", rep.TornOffset, len(intact))
	}
	_ = reng.DrainNow()
	if fin := reng.FinalReport(); fin.Orphaned != 0 || !fin.Balanced {
		t.Fatalf("torn-tail recovery broke accounting: %+v", fin.Stats)
	}
}

// TestRecoverIdentityMismatch refuses logs recorded by a differently
// configured service.
func TestRecoverIdentityMismatch(t *testing.T) {
	m := buildModel(t, 34)
	dir := t.TempDir()
	clk := NewManualClock()
	eng, err := New(durableCfg(t, m, dir, clk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(TaskRequest{Type: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	os.Remove(filepath.Join(dir, "ckpt"))

	cfg := durableCfg(t, m, dir, NewManualClock())
	cfg.Seed = 43 // wrong universe
	reng, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reng.RecoverFrom(); err == nil {
		t.Fatal("recovery accepted a WAL from a different seed")
	}
}
