package pmf

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// randPMF draws a sparse PMF with n impulses on roughly [0, span].
func randPMF(rng *rand.Rand, n int, span float64) PMF {
	vals := make([]float64, 0, n)
	probs := make([]float64, 0, n)
	seen := map[float64]bool{}
	for len(vals) < n {
		v := span * rng.Float64()
		if seen[v] {
			continue
		}
		seen[v] = true
		vals = append(vals, v)
		probs = append(probs, 0.05+rng.Float64())
	}
	return MustNew(vals, probs)
}

// gridPropSteps returns the trial budget for the grid property test;
// verify.sh tier 2 raises it via GRID_PROP_STEPS.
func gridPropSteps(t *testing.T, def int) int {
	if s := os.Getenv("GRID_PROP_STEPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad GRID_PROP_STEPS %q: %v", s, err)
		}
		return n
	}
	return def
}

// exactChain convolves the operands exactly (no compaction).
func exactChain(ops []PMF) PMF {
	out := ops[0]
	for _, p := range ops[1:] {
		out = ConvolveN(out, p, 0)
	}
	return out
}

// gridChain snaps each operand and folds the lattice product left to
// right, the way the scheduler's tail cache does.
func gridChain(ops []PMF, step float64) Grid {
	w := IdentityGrid(step)
	for _, p := range ops {
		w = w.ConvolveLattice(ToLattice(p, step))
	}
	return w
}

// TestGridConvolveMatchesExact is the quantization-contract property test:
// for random operand chains, the grid chain's CDF at any query point x is
// bracketed by the exact chain's CDF at x ± q·step/2, where q is the
// number of snapped operands (each snap moves an impulse by at most
// step/2, and lattice convolution itself is exact). GRID_PROP_STEPS
// raises the trial budget for the tier-2 gate.
func TestGridConvolveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := gridPropSteps(t, 120)
	for trial := 0; trial < trials; trial++ {
		span := 1 + 9*rng.Float64()
		step := span / float64(16+rng.Intn(64))
		nOps := 2 + rng.Intn(4)
		ops := make([]PMF, nOps)
		for i := range ops {
			ops[i] = randPMF(rng, 2+rng.Intn(12), span)
		}
		exact := exactChain(ops)
		grid := gridChain(ops, step)

		if m, em := grid.TotalMass(), exact.TotalMass(); math.Abs(m-em) > 1e-9*em {
			t.Fatalf("trial %d: grid mass %v, exact mass %v", trial, m, em)
		}
		// Lattice convolution is exact, so the chain mean may drift from
		// the exact mean only by the per-operand snap, ≤ q·step/2.
		slack := float64(nOps) * step / 2
		if dm := math.Abs(grid.Mean() - exact.Mean()); dm > slack+1e-9 {
			t.Fatalf("trial %d: mean drift %v exceeds slack %v", trial, dm, slack)
		}
		for probe := 0; probe < 32; probe++ {
			x := exact.Min() + (exact.Max()-exact.Min())*(rng.Float64()*1.2-0.1)
			lo := exact.CDF(x - slack - 1e-9)
			hi := exact.CDF(x + slack + 1e-9)
			got := grid.CDF(x)
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Fatalf("trial %d: grid CDF(%v) = %v outside exact bracket [%v, %v] (step %v, ops %d)",
					trial, x, got, lo, hi, step, nOps)
			}
		}
	}
}

// TestConvolveFFTMatchesDirect pins the crossover contract: the FFT path
// and the direct kernel are the same linear convolution up to ~1e-12
// relative mass per bin, so dispatch may pick either without changing
// downstream prefix-sum queries beyond the parity budget.
func TestConvolveFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	step := 0.25
	for trial := 0; trial < 20; trial++ {
		n := 200 + rng.Intn(1800)
		a := make([]float64, n)
		b := make([]float64, n/2+1)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64()
		}
		ga := newGrid(1, step, a)
		gb := newGrid(2, step, b)

		direct := make([]float64, len(a)+len(b)-1)
		for i, p := range a {
			for j, q := range b {
				direct[i+j] += p * q
			}
		}
		viaFFT := fftConvolve(a, b)
		scale := 0.0
		for _, v := range direct {
			if v > scale {
				scale = v
			}
		}
		for i := range direct {
			if d := math.Abs(viaFFT[i] - direct[i]); d > 1e-12*scale {
				t.Fatalf("trial %d bin %d: fft %v vs direct %v (Δ %v)", trial, i, viaFFT[i], direct[i], d)
			}
		}

		// The dispatching entry point must agree with the hand-rolled
		// direct product no matter which kernel it picked.
		got := ga.Convolve(gb)
		if got.Origin() != 3 || got.Len() != len(direct) {
			t.Fatalf("trial %d: convolve shape (%v, %d), want (3, %d)", trial, got.Origin(), got.Len(), len(direct))
		}
		for i := range direct {
			if d := math.Abs(got.probs[i] - direct[i]); d > 1e-12*scale {
				t.Fatalf("trial %d bin %d: Convolve %v vs direct %v", trial, i, got.probs[i], direct[i])
			}
		}
	}
}

// TestTripleConvCDFMatchesMaterialized checks the ρ kernel against the
// materialized chain it stands in for: P(H+W+E ≤ x) computed by actually
// convolving the three factors. The two differ only by float association
// of the same products.
func TestTripleConvCDFMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		span := 4.0
		step := span / float64(8+rng.Intn(40))
		h := ToLattice(randPMF(rng, 1+rng.Intn(10), span), step)
		e := ToLattice(randPMF(rng, 1+rng.Intn(10), span), step)
		w := gridChain([]PMF{randPMF(rng, 1+rng.Intn(8), span), randPMF(rng, 1+rng.Intn(8), span)}, step)

		full := w.ConvolveLattice(h).ConvolveLattice(e)
		wh := w.ConvolveLattice(h)
		for probe := 0; probe < 24; probe++ {
			x := full.Origin() + (rng.Float64()*1.3-0.15)*float64(full.Len())*step
			want := full.CDF(x)
			got := TripleConvCDF(&h, &w, &e, x)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: TripleConvCDF(%v) = %v, materialized %v", trial, x, got, want)
			}
			// The single-sum kernel over the materialized tail⊛head factor
			// is the same quantity again.
			if got := wh.ConvCDF(&e, x); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: ConvCDF(%v) = %v, materialized %v", trial, x, got, want)
			}
		}
		// Degenerate operands answer 0 by contract.
		if v := TripleConvCDF(&Lattice{}, &w, &e, 10); v != 0 {
			t.Fatalf("zero head: %v", v)
		}
	}
}

// TestLatticeTruncateMatchesPMF pins the grid head-stage primitive against
// the sparse one on identical (already-on-lattice) inputs: same kept mass,
// same renormalized impulses.
func TestLatticeTruncateMatchesPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		step := 0.5
		l := ToLattice(randPMF(rng, 2+rng.Intn(12), 20), step)
		p := l.PMF()
		cutAt := p.Min() + (p.Max()-p.Min())*rng.Float64()*1.1
		cut := l.SearchValue(cutAt)
		lt, lkept := l.TruncateAt(cut)
		pt, pkept := p.TruncateBelow(cutAt)
		if lkept <= 0 {
			if pkept > 0 {
				t.Fatalf("trial %d: lattice dropped all mass but pmf kept %v", trial, pkept)
			}
			continue
		}
		if lkept != pkept {
			t.Fatalf("trial %d: kept %v vs %v", trial, lkept, pkept)
		}
		lp := lt.PMF()
		if lp.Len() != pt.Len() {
			t.Fatalf("trial %d: support %d vs %d", trial, lp.Len(), pt.Len())
		}
		for i := 0; i < lp.Len(); i++ {
			if lp.Value(i) != pt.Value(i) || lp.Prob(i) != pt.Prob(i) {
				t.Fatalf("trial %d impulse %d: (%v,%v) vs (%v,%v)",
					trial, i, lp.Value(i), lp.Prob(i), pt.Value(i), pt.Prob(i))
			}
		}
	}
}

// TestPointLatticeAllocFree pins the degenerate-head fast path: minting a
// point lattice must not allocate (the grid ρ path mints one per
// empty-queue candidate).
func TestPointLatticeAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		l := PointLattice(42.5, 0.25)
		if l.Mean() != 42.5 {
			t.Fatal("bad point lattice")
		}
	}); n != 0 {
		t.Fatalf("PointLattice allocates %v times per call", n)
	}
}

// FuzzGridRoundTrip asserts the sparse→lattice→sparse round trip preserves
// total mass exactly (up to summation association) and the mean within the
// quantization contract (each impulse moves at most step/2).
func FuzzGridRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), 0.1)
	f.Add(int64(99), uint8(1), 3.0)
	f.Add(int64(7), uint8(40), 0.003)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, step float64) {
		if n == 0 || n > 64 || !(step > 1e-6) || step > 1e6 || math.IsNaN(step) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		p := randPMF(rng, int(n), 50)
		l := ToLattice(p, step)
		back := l.PMF()
		if math.Abs(back.TotalMass()-p.TotalMass()) > 1e-12 {
			t.Fatalf("mass %v -> %v", p.TotalMass(), back.TotalMass())
		}
		if d := math.Abs(back.Mean() - p.Mean()); d > step/2+1e-9*(1+math.Abs(p.Mean())) {
			t.Fatalf("mean moved %v, budget %v (step %v)", d, step/2, step)
		}
		// Support stays sorted, strictly increasing, on-lattice.
		for i := 1; i < back.Len(); i++ {
			if back.Value(i) <= back.Value(i-1) {
				t.Fatalf("unsorted round-trip support at %d", i)
			}
		}
	})
}
