package pmf

import "sync/atomic"

// Operation counters. The package keeps process-global atomic tallies of
// its convolutions, which the experiment harness and the benchmarks sample
// before and after a run to attribute work.
//
// Rule: no process-global counter on a per-candidate path. Every trial
// worker in the process bumps the same cache line, so a global atomic on a
// path that runs once per candidate — the ρ kernels run tens of millions
// of times per figure round — costs more than the arithmetic it counts and
// serializes workers that share nothing else. Convolutions run once per
// queue change, not per candidate, so they may keep a global tally;
// per-candidate work is counted per engine (robustness.EngineCounters,
// exported per trial as robustness_grid_rho_total).
var (
	opConvolutions      atomic.Int64
	opBucketed          atomic.Int64
	opCompactions       atomic.Int64
	opImpulsesCompacted atomic.Int64
	opGridConvolutions  atomic.Int64
	opFFTConvolutions   atomic.Int64
)

// OpCounts is a sample of the package's operation counters.
type OpCounts struct {
	// Convolutions counts ConvolveN calls that performed an impulse
	// product (degenerate shift shortcuts are excluded).
	Convolutions int64 `json:"convolutions"`
	// BucketedConvolutions counts the subset of Convolutions that took the
	// direct-to-buckets fast path.
	BucketedConvolutions int64 `json:"bucketedConvolutions"`
	// Compactions counts explicit Compact calls that reduced a support.
	Compactions int64 `json:"compactions"`
	// ImpulsesCompacted counts impulses eliminated by compaction (input
	// minus output support sizes, summed over Compactions).
	ImpulsesCompacted int64 `json:"impulsesCompacted"`
	// GridConvolutions counts lattice convolutions (Grid.Convolve and
	// Grid.ConvolveLattice) on the fixed-grid fast path.
	GridConvolutions int64 `json:"gridConvolutions"`
	// FFTConvolutions counts the subset of GridConvolutions dispatched to
	// the FFT kernel above the support-length crossover.
	FFTConvolutions int64 `json:"fftConvolutions"`
}

// ReadOpCounts samples the counters. Counters increase monotonically for
// the life of the process; subtract two samples to attribute work to an
// interval.
func ReadOpCounts() OpCounts {
	return OpCounts{
		Convolutions:         opConvolutions.Load(),
		BucketedConvolutions: opBucketed.Load(),
		Compactions:          opCompactions.Load(),
		ImpulsesCompacted:    opImpulsesCompacted.Load(),
		GridConvolutions:     opGridConvolutions.Load(),
		FFTConvolutions:      opFFTConvolutions.Load(),
	}
}

// Sub returns the per-field difference c - prev.
func (c OpCounts) Sub(prev OpCounts) OpCounts {
	return OpCounts{
		Convolutions:         c.Convolutions - prev.Convolutions,
		BucketedConvolutions: c.BucketedConvolutions - prev.BucketedConvolutions,
		Compactions:          c.Compactions - prev.Compactions,
		ImpulsesCompacted:    c.ImpulsesCompacted - prev.ImpulsesCompacted,
		GridConvolutions:     c.GridConvolutions - prev.GridConvolutions,
		FFTConvolutions:      c.FFTConvolutions - prev.FFTConvolutions,
	}
}
