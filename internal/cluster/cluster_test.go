package cluster

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/randx"
)

func genPaper(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	c, err := Generate(randx.NewStream(seed), PaperGenParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateStructure(t *testing.T) {
	c := genPaper(t, 1)
	if c.N() != 8 {
		t.Fatalf("N=%d, want 8", c.N())
	}
	for i, n := range c.Nodes {
		if n.Processors < 1 || n.Processors > 4 {
			t.Errorf("node %d: processors %d outside 1..4", i, n.Processors)
		}
		if n.CoresPerProc < 1 || n.CoresPerProc > 4 {
			t.Errorf("node %d: cores/proc %d outside 1..4", i, n.CoresPerProc)
		}
		if n.Efficiency < 0.90 || n.Efficiency > 0.98 {
			t.Errorf("node %d: efficiency %v outside [0.90,0.98]", i, n.Efficiency)
		}
	}
	if c.TotalCores() < 8 || c.TotalCores() > 8*16 {
		t.Fatalf("total cores %d implausible", c.TotalCores())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genPaper(t, 42)
	b := genPaper(t, 42)
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("cluster generation not deterministic")
		}
	}
}

func TestPStateFrequencies(t *testing.T) {
	c := genPaper(t, 2)
	for i, n := range c.Nodes {
		if n.Freq[P0] != 1 {
			t.Errorf("node %d: Freq[P0]=%v, want 1 (normalized)", i, n.Freq[P0])
		}
		for p := 1; p < NumPStates; p++ {
			step := n.Freq[p-1] / n.Freq[p]
			if step < 1.15-1e-12 || step > 1.25+1e-12 {
				t.Errorf("node %d: P%d→P%d performance step %v outside [1.15,1.25]", i, p, p-1, step)
			}
		}
		ratio := n.Freq[P4] / n.Freq[P0]
		if ratio < 0.42 {
			t.Errorf("node %d: min/max frequency ratio %v below 0.42", i, ratio)
		}
		if n.TimeMult(P0) != 1 {
			t.Errorf("node %d: TimeMult(P0)=%v, want 1", i, n.TimeMult(P0))
		}
		for p := 1; p < NumPStates; p++ {
			if n.TimeMult(PState(p)) <= n.TimeMult(PState(p-1)) {
				t.Errorf("node %d: time multiplier not increasing with P-state", i)
			}
		}
	}
}

func TestPStatePower(t *testing.T) {
	c := genPaper(t, 3)
	for i, n := range c.Nodes {
		if n.Power[P0] < 125 || n.Power[P0] > 135 {
			t.Errorf("node %d: P0 power %v outside [125,135]", i, n.Power[P0])
		}
		for p := 1; p < NumPStates; p++ {
			if n.Power[p] >= n.Power[p-1] {
				t.Errorf("node %d: power not decreasing at P%d", i, p)
			}
		}
		// Paper: "power consumption for the low P-state of about 25% that in
		// the high P-state". With these voltage/frequency ranges the ratio
		// lands in roughly [0.17, 0.35].
		ratio := n.Power[P4] / n.Power[P0]
		if ratio < 0.12 || ratio > 0.45 {
			t.Errorf("node %d: P4/P0 power ratio %v far from ~0.25", i, ratio)
		}
		// Eq. 7 consistency: power ∝ V²·f with one A·C_L constant.
		acl := n.Power[P0] / (n.Voltage[P0] * n.Voltage[P0] * n.Freq[P0])
		for p := 0; p < NumPStates; p++ {
			want := acl * n.Voltage[p] * n.Voltage[p] * n.Freq[p]
			if math.Abs(n.Power[p]-want) > 1e-9 {
				t.Errorf("node %d: power at P%d violates CMOS formula", i, p)
			}
		}
	}
}

func TestVoltageInterpolation(t *testing.T) {
	c := genPaper(t, 4)
	for i, n := range c.Nodes {
		if n.Voltage[P0] < 1.400 || n.Voltage[P0] > 1.550 {
			t.Errorf("node %d: V(P0)=%v outside [1.400,1.550]", i, n.Voltage[P0])
		}
		if n.Voltage[P4] < 1.000 || n.Voltage[P4] > 1.150 {
			t.Errorf("node %d: V(P4)=%v outside [1.000,1.150]", i, n.Voltage[P4])
		}
		for p := 1; p < NumPStates-1; p++ {
			want := n.Voltage[P0] + float64(p)/4*(n.Voltage[P4]-n.Voltage[P0])
			if math.Abs(n.Voltage[p]-want) > 1e-12 {
				t.Errorf("node %d: V(P%d)=%v, want linear %v", i, p, n.Voltage[p], want)
			}
		}
	}
}

func TestCoresFlattening(t *testing.T) {
	c := genPaper(t, 5)
	cores := c.Cores()
	if len(cores) != c.TotalCores() {
		t.Fatalf("flattened %d cores, want %d", len(cores), c.TotalCores())
	}
	seen := map[CoreID]bool{}
	for idx, id := range cores {
		if seen[id] {
			t.Fatalf("duplicate core id %v", id)
		}
		seen[id] = true
		if got := c.CoreIndex(id); got != idx {
			t.Fatalf("CoreIndex(%v)=%d, want %d", id, got, idx)
		}
	}
	if c.CoreIndex(CoreID{Node: 99}) != -1 {
		t.Fatal("CoreIndex should return -1 for bogus node")
	}
	if c.CoreIndex(CoreID{Node: 0, Proc: 99}) != -1 {
		t.Fatal("CoreIndex should return -1 for bogus proc")
	}
}

// TestCoresConcurrentFirstUse: trials of a fresh experiment start
// concurrently and each asks the shared cluster for its flattened index, so
// the first Cores() calls race one another. Under -race this fails unless
// the index is built with synchronization; every caller must also see the
// same, complete slice.
func TestCoresConcurrentFirstUse(t *testing.T) {
	c := genPaper(t, 5)
	const workers = 8
	got := make([][]CoreID, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = c.Cores()
		}(w)
	}
	close(start)
	wg.Wait()
	for w, cores := range got {
		if len(cores) != c.TotalCores() || &cores[0] != &got[0][0] {
			t.Fatalf("worker %d saw %d cores (want %d) or a different slice", w, len(cores), c.TotalCores())
		}
	}
}

func TestNodeAccessor(t *testing.T) {
	c := genPaper(t, 6)
	id := c.Cores()[0]
	if c.Node(id) != &c.Nodes[id.Node] {
		t.Fatal("Node accessor returned wrong node")
	}
}

func TestAvgPower(t *testing.T) {
	c := genPaper(t, 7)
	s := 0.0
	for _, n := range c.Nodes {
		for p := 0; p < NumPStates; p++ {
			s += n.Power[p]
		}
	}
	want := s / float64(c.N()*NumPStates)
	if math.Abs(c.AvgPower()-want) > 1e-9 {
		t.Fatalf("AvgPower %v, want %v", c.AvgPower(), want)
	}
	// p_avg must lie between P4 and P0 extremes.
	if c.AvgPower() < 20 || c.AvgPower() > 135 {
		t.Fatalf("AvgPower %v implausible", c.AvgPower())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := genPaper(t, 8)
	good := c.Nodes[0]

	bad := good
	bad.Processors = 0
	c.Nodes[0] = bad
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for zero processors")
	}

	bad = good
	bad.Efficiency = 1.5
	c.Nodes[0] = bad
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for efficiency > 1")
	}

	bad = good
	bad.Freq[P3] = bad.Freq[P2] * 2
	c.Nodes[0] = bad
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-monotone frequency")
	}

	bad = good
	bad.Power[P4] = bad.Power[P0] + 1
	c.Nodes[0] = bad
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-monotone power")
	}

	empty := &Cluster{}
	if err := empty.Validate(); err == nil {
		t.Fatal("expected error for empty cluster")
	}
}

func TestGenParamsValidate(t *testing.T) {
	bad := []func(*GenParams){
		func(g *GenParams) { g.Nodes = 0 },
		func(g *GenParams) { g.MaxProcessors = 0 },
		func(g *GenParams) { g.PerfStepLo = -1 },
		func(g *GenParams) { g.MinFreqRatio = 1.5 },
		func(g *GenParams) { g.BasePowerLo = 0 },
		func(g *GenParams) { g.VLowLo = 0 },
		func(g *GenParams) { g.VHighLo = 0.5 }, // overlaps low-voltage range
		func(g *GenParams) { g.EffHi = 1.2 },
	}
	for i, mut := range bad {
		g := PaperGenParams()
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
	if err := PaperGenParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := genPaper(t, 9)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.TotalCores() != c.TotalCores() {
		t.Fatal("round trip changed structure")
	}
	for i := range c.Nodes {
		if got.Nodes[i] != c.Nodes[i] {
			t.Fatalf("node %d changed in round trip", i)
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[]}`)); err == nil {
		t.Fatal("expected error for empty node list")
	}
	if _, err := ReadJSON(strings.NewReader(`{`)); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}

func TestSummary(t *testing.T) {
	c := genPaper(t, 10)
	s := c.Summary()
	if !strings.Contains(s, "8 nodes") || !strings.Contains(s, "node 0") {
		t.Fatalf("summary missing content: %q", s)
	}
}

func TestPStateString(t *testing.T) {
	if P0.String() != "P0" || P4.String() != "P4" {
		t.Fatal("PState.String wrong")
	}
	if !P2.Valid() || PState(5).Valid() || PState(-1).Valid() {
		t.Fatal("PState.Valid wrong")
	}
	if len(AllPStates()) != NumPStates {
		t.Fatal("AllPStates wrong length")
	}
}
