package pmf

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// impulse pairs one support value with its mass, so the exact-path
// convolution sorts the raw product directly (one pdqsort over 16-byte
// elements) instead of permuting an index slice through two indirections
// per comparison.
type impulse struct{ v, p float64 }

// convScratch holds the reusable intermediates of one exact-path
// convolution: the raw impulse product and the sort-merged impulses.
// Results are always freshly allocated (PMFs are immutable and may be
// cached by callers), but the O(n·m) intermediates never escape, so
// pooling them removes the dominant allocation churn of the mapping hot
// path. The pool keeps convolution safe for concurrent use (the experiment
// harness runs trials in parallel).
type convScratch struct {
	raw           []impulse // raw product impulses
	mvals, mprobs []float64 // sort-merged impulses
}

var convPool = sync.Pool{New: func() any { return new(convScratch) }}

// growFloats returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Shift returns the PMF translated by dt: if X ~ p then X+dt ~ p.Shift(dt).
// This is the "shift the execution-time distribution by its start time"
// step of §IV-B.
func (p PMF) Shift(dt float64) PMF {
	if p.IsZero() {
		return p
	}
	vals := make([]float64, len(p.vals))
	for i, v := range p.vals {
		vals[i] = v + dt
	}
	probs := make([]float64, len(p.probs))
	copy(probs, p.probs)
	return PMF{vals: vals, probs: probs}
}

// ScaleTime returns the PMF of f·X for f > 0: the execution-time scaling a
// P-state multiplier applies (§VI). Panics if f <= 0.
func (p PMF) ScaleTime(f float64) PMF {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("pmf: ScaleTime factor %v must be positive and finite", f))
	}
	if p.IsZero() {
		return p
	}
	vals := make([]float64, len(p.vals))
	for i, v := range p.vals {
		vals[i] = v * f
	}
	probs := make([]float64, len(p.probs))
	copy(probs, p.probs)
	return PMF{vals: vals, probs: probs}
}

// Convolve returns the distribution of X+Y for independent X ~ p, Y ~ q,
// compacted to at most DefaultMaxImpulses impulses. This is the sum of
// stochastic execution times down a core's queue (§IV-B).
func Convolve(p, q PMF) PMF {
	return ConvolveN(p, q, DefaultMaxImpulses)
}

// ConvolveN is Convolve with an explicit bound on the result's support size.
// maxImpulses <= 0 keeps the exact (uncompacted) result.
func ConvolveN(p, q PMF, maxImpulses int) PMF {
	if p.IsZero() {
		return q.clone()
	}
	if q.IsZero() {
		return p.clone()
	}
	// Degenerate operands are pure shifts.
	if p.Len() == 1 {
		return q.Shift(p.vals[0])
	}
	if q.Len() == 1 {
		return p.Shift(q.vals[0])
	}
	n := p.Len() * q.Len()
	opConvolutions.Add(1)
	// When the exact product support would be compacted anyway, accumulate
	// straight into the compaction buckets: same result layout as
	// Compact (equal-width buckets, mass-weighted centroids, mean preserved
	// exactly) without materializing and sorting n·m impulses. This is the
	// scheduler's hot path.
	if maxImpulses > 0 && n > 4*maxImpulses {
		opBucketed.Add(1)
		return convolveBucketed(p, q, maxImpulses)
	}
	s := convPool.Get().(*convScratch)
	defer convPool.Put(s)
	if cap(s.raw) < n {
		s.raw = make([]impulse, n)
	}
	raw := s.raw[:n]
	k := 0
	for i := range p.vals {
		pv, pp := p.vals[i], p.probs[i]
		for j := range q.vals {
			raw[k] = impulse{v: pv + q.vals[j], p: pp * q.probs[j]}
			k++
		}
	}
	return s.sortMergeCompact(raw, maxImpulses)
}

// convolveBucketed computes the convolution directly into maxN equal-width
// buckets over the exact support range, emitting one impulse per non-empty
// bucket at its mass-weighted centroid. The accumulators are deliberately
// fresh locals, not pooled scratch: the compiler can prove fresh
// allocations don't alias the operand slices, which keeps the inner
// accumulation loop free of redundant reloads (pooled buffers here cost
// ~60% in ns/op for a saving of two 512-byte allocations).
func convolveBucketed(p, q PMF, maxN int) PMF {
	lo := p.vals[0] + q.vals[0]
	hi := p.vals[len(p.vals)-1] + q.vals[len(q.vals)-1]
	span := hi - lo
	if span <= 0 {
		return Point(lo)
	}
	mass := make([]float64, maxN)
	moment := make([]float64, maxN)
	scale := float64(maxN) / span
	for i := range p.vals {
		pv, pp := p.vals[i], p.probs[i]
		for j := range q.vals {
			v := pv + q.vals[j]
			b := int((v - lo) * scale)
			if b >= maxN {
				b = maxN - 1
			}
			w := pp * q.probs[j]
			mass[b] += w
			moment[b] += w * v
		}
	}
	count := 0
	for b := range mass {
		if mass[b] > 0 {
			count++
		}
	}
	vals := make([]float64, 0, count)
	probs := make([]float64, 0, count)
	for b := range mass {
		if mass[b] <= 0 {
			continue
		}
		vals = append(vals, moment[b]/mass[b])
		probs = append(probs, mass[b])
	}
	return PMF{vals: vals, probs: probs}
}

// sortMergeCompact sorts the raw product by value, merges duplicate
// values, and — when the merged support exceeds maxImpulses — compacts,
// keeping every intermediate inside the scratch. The returned PMF is
// freshly allocated and exactly sized. Sorting the paired impulses
// directly (pdqsort via slices.SortFunc) replaces the former permutation
// sort, whose comparator paid two extra loads per comparison.
func (s *convScratch) sortMergeCompact(raw []impulse, maxImpulses int) PMF {
	n := len(raw)
	slices.SortFunc(raw, func(a, b impulse) int {
		if a.v < b.v {
			return -1
		}
		if a.v > b.v {
			return 1
		}
		return 0
	})
	mv := growFloats(s.mvals, n)[:0]
	mp := growFloats(s.mprobs, n)[:0]
	for i := range raw {
		if k := len(mv); k > 0 && mv[k-1] == raw[i].v {
			mp[k-1] += raw[i].p
			continue
		}
		mv = append(mv, raw[i].v)
		mp = append(mp, raw[i].p)
	}
	s.mvals, s.mprobs = mv, mp
	if maxImpulses > 0 && len(mv) > maxImpulses {
		return compactImpulses(mv, mp, maxImpulses)
	}
	outV := make([]float64, len(mv))
	outP := make([]float64, len(mp))
	copy(outV, mv)
	copy(outP, mp)
	return PMF{vals: outV, probs: outP}
}

// Compact returns a PMF with at most maxImpulses impulses that preserves
// total mass exactly and the mean exactly (each merged run is replaced by
// one impulse at its mass-weighted centroid). Runs of adjacent impulses are
// merged greedily with an equal-width value partition, which bounds the
// support distortion by the bucket width. Panics if maxImpulses < 1.
func (p PMF) Compact(maxImpulses int) PMF {
	if maxImpulses < 1 {
		panic("pmf: Compact requires maxImpulses >= 1")
	}
	if p.Len() <= maxImpulses {
		return p.clone()
	}
	return compactImpulses(p.vals, p.probs, maxImpulses)
}

// compactImpulses is the bucket-merge core shared by Compact and the
// convolution path: an equal-width value partition of [lo, hi] with one
// impulse per non-empty bucket at its mass-weighted centroid. vals must be
// sorted ascending and duplicate-free, with len(vals) > maxImpulses.
func compactImpulses(vals, probs []float64, maxImpulses int) PMF {
	lo, hi := vals[0], vals[len(vals)-1]
	span := hi - lo
	if span <= 0 {
		return Point(vals[0])
	}
	outV := make([]float64, 0, maxImpulses)
	outP := make([]float64, 0, maxImpulses)
	bucket := -1
	var mass, moment float64
	flush := func() {
		if mass <= 0 {
			return
		}
		outV = append(outV, moment/mass)
		outP = append(outP, mass)
	}
	for i := range vals {
		b := int(float64(maxImpulses) * (vals[i] - lo) / span)
		if b >= maxImpulses {
			b = maxImpulses - 1
		}
		if b != bucket {
			flush()
			bucket = b
			mass, moment = 0, 0
		}
		mass += probs[i]
		moment += probs[i] * vals[i]
	}
	flush()
	opCompactions.Add(1)
	opImpulsesCompacted.Add(int64(len(vals) - len(outV)))
	// Centroids of consecutive buckets are strictly increasing because the
	// buckets partition disjoint value ranges, so outV is already sorted
	// and duplicate-free.
	return PMF{vals: outV, probs: outP}
}

// TruncateBelow removes all impulses with value < t and renormalizes the
// remainder — the "remove the past impulses and re-normalize" step of
// §IV-B for a task already executing at the current time-step. It returns
// the renormalized PMF and the probability mass that was at or after t
// before renormalization. If no mass remains (the task "should" already
// have finished), it returns the degenerate PMF at t with kept == 0,
// modeling a task expected to complete imminently.
func (p PMF) TruncateBelow(t float64) (trunc PMF, kept float64) {
	if p.IsZero() {
		return p, 0
	}
	i := sort.SearchFloat64s(p.vals, t)
	if i == 0 {
		return p.clone(), 1
	}
	if i == len(p.vals) {
		return Point(t), 0
	}
	mass := 0.0
	for _, q := range p.probs[i:] {
		mass += q
	}
	if mass <= 0 {
		return Point(t), 0
	}
	vals := make([]float64, len(p.vals)-i)
	probs := make([]float64, len(p.probs)-i)
	copy(vals, p.vals[i:])
	inv := 1 / mass
	for j, q := range p.probs[i:] {
		probs[j] = q * inv
	}
	return PMF{vals: vals, probs: probs}, mass
}

// Mix returns the mixture w·p + (1-w)·q for w in [0,1]. Used by extension
// models (e.g. power consumption expressed as a distribution, §VIII).
func Mix(p, q PMF, w float64) (PMF, error) {
	if w < 0 || w > 1 || math.IsNaN(w) {
		return PMF{}, fmt.Errorf("%w: mixture weight %v", ErrBadProbability, w)
	}
	if p.IsZero() || q.IsZero() {
		return PMF{}, ErrEmpty
	}
	vals := make([]float64, 0, p.Len()+q.Len())
	probs := make([]float64, 0, p.Len()+q.Len())
	for i := range p.vals {
		vals = append(vals, p.vals[i])
		probs = append(probs, w*p.probs[i])
	}
	for i := range q.vals {
		vals = append(vals, q.vals[i])
		probs = append(probs, (1-w)*q.probs[i])
	}
	return New(vals, probs)
}

func (p PMF) clone() PMF {
	vals := make([]float64, len(p.vals))
	probs := make([]float64, len(p.probs))
	copy(vals, p.vals)
	copy(probs, p.probs)
	return PMF{vals: vals, probs: probs}
}
