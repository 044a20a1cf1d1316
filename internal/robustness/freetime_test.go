package robustness

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/pmf"
)

// assertBitIdentical fails unless got and want have exactly the same
// impulses — same length, same values, same probabilities, bit for bit.
func assertBitIdentical(t *testing.T, step int, got, want pmf.PMF) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: support size %d, want %d", step, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Value(i) != want.Value(i) || got.Prob(i) != want.Prob(i) {
			t.Fatalf("step %d impulse %d: (%v, %v), want (%v, %v)",
				step, i, got.Value(i), got.Prob(i), want.Value(i), want.Prob(i))
		}
	}
}

// propSteps returns the mutation budget for the property test; verify.sh
// tier 2 raises it via FREETIME_PROP_STEPS.
func propSteps(t *testing.T, def int) int {
	if s := os.Getenv("FREETIME_PROP_STEPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad FREETIME_PROP_STEPS %q: %v", s, err)
		}
		return n
	}
	return def
}
