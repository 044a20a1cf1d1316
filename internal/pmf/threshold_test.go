package pmf

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvCDFAtLeastMatchesConvCDF is the exactness property of the
// threshold kernel: over random grids, lattices and query points its
// verdict equals ConvCDF(e, x) >= t, a ρ it returns is ConvCDF's bit for
// bit, and so is ConvCDFFrom finishing the prefix it stopped at. The
// thresholds are the paper's 0.5 and the ones where a wrong
// early stop would show — ρ itself and its float neighbours — plus the
// degenerate ends. Both early stops must actually fire, or the property
// would hold vacuously. GRID_PROP_STEPS raises the trial budget.
func TestConvCDFAtLeastMatchesConvCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := gridPropSteps(t, 300)
	var above, below int
	for trial := 0; trial < trials; trial++ {
		span := 1 + 9*rng.Float64()
		step := span / float64(8+rng.Intn(64))
		ops := make([]PMF, 1+rng.Intn(4))
		for i := range ops {
			ops[i] = randPMF(rng, 1+rng.Intn(12), span)
		}
		g := gridChain(ops, step)
		e := ToLattice(randPMF(rng, 1+rng.Intn(30), span), step)
		if rng.Intn(3) == 0 {
			// A truncated, renormalized lattice, as a running head is.
			e, _ = e.TruncateAt(rng.Intn(e.Len()))
			if e.IsZero() {
				continue
			}
		}
		lo := g.Origin() + e.Origin()
		hi := lo + float64(g.Len()+int(e.idx[e.Len()-1]))*step
		for probe := 0; probe < 24; probe++ {
			x := lo + (hi-lo)*(rng.Float64()*1.3-0.15)
			if probe%6 == 0 {
				// Exactly on a bin boundary.
				x = lo + float64(rng.Intn(g.Len()+e.Len()))*step
			}
			want := g.ConvCDF(&e, x)
			for _, th := range []float64{0.5, want, math.Nextafter(want, math.Inf(1)), math.Nextafter(want, math.Inf(-1)), 0, 1, 1.5, -1, math.NaN()} {
				ok, rho, part := g.ConvCDFAtLeast(&e, x, th)
				if ok != (want >= th) {
					t.Fatalf("trial %d x=%v t=%v: verdict %v, ConvCDF %v", trial, x, th, ok, want)
				}
				switch {
				case rho >= 0 && rho != want:
					t.Fatalf("trial %d x=%v t=%v: returned ρ %v, ConvCDF %v", trial, x, th, rho, want)
				case rho < 0 && ok:
					above++
					if got := g.ConvCDFFrom(&e, x, part); got != want {
						t.Fatalf("trial %d x=%v t=%v: ρ finished from %+v is %v, ConvCDF %v", trial, x, th, part, got, want)
					}
				case rho < 0 && th <= 1:
					below++
				}
			}
		}
	}
	if above == 0 || below == 0 {
		t.Fatalf("early stops never fired (above %d, below %d): the test exercises nothing", above, below)
	}
	// Zero operands answer 0 >= t, like ConvCDF's 0.
	g := IdentityGrid(1)
	if ok, rho, _ := g.ConvCDFAtLeast(&Lattice{}, 5, 0); !ok || rho != 0 {
		t.Fatalf("zero lattice at t=0: (%v, %v), want (true, 0)", ok, rho)
	}
	if ok, _, _ := g.ConvCDFAtLeast(&Lattice{}, 5, 0.5); ok {
		t.Fatal("zero lattice at t=0.5: true, want false")
	}
}

// TestPointConvCDFMatchesTripleConvCDF pins the idle-core fast path: ρ
// against a point head and an empty waiting tail, answered by binary
// search in the execution lattice's prefix sums, must be == to the
// general double sum on the same operands — below, inside, on and above
// the support.
func TestPointConvCDFMatchesTripleConvCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 400; trial++ {
		span := 1 + 20*rng.Float64()
		step := span / float64(4+rng.Intn(64))
		e := ToLattice(randPMF(rng, 1+rng.Intn(30), span), step)
		if rng.Intn(3) == 0 {
			e, _ = e.TruncateAt(rng.Intn(e.Len()))
			if e.IsZero() {
				continue
			}
		}
		now := 1000 * rng.Float64()
		head := PointLattice(now, step)
		tail := IdentityGrid(step)
		for probe := 0; probe < 32; probe++ {
			x := now + e.Min() + (e.Value(e.Len()-1)-e.Min()+2*step)*(rng.Float64()*1.4-0.2)
			if probe%4 == 0 {
				x = now + e.Value(rng.Intn(e.Len()))
			}
			want := TripleConvCDF(&head, &tail, &e, x)
			if got := PointConvCDF(now, &e, x); got != want {
				t.Fatalf("trial %d x=%v: PointConvCDF %v, TripleConvCDF %v", trial, x, got, want)
			}
		}
	}
	if v := PointConvCDF(3, &Lattice{}, 10); v != 0 {
		t.Fatalf("zero lattice: %v", v)
	}
}
