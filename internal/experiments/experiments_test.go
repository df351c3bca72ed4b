package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment scenarios run with full calibrated profiles; a smoke run
// with few repetitions keeps the suite fast while checking that every
// scenario completes and the headline orderings hold with wide margins.

func TestMedian(t *testing.T) {
	seq := []time.Duration{5, 1, 3, 2, 4}
	i := 0
	med, n := Median(5, func() (time.Duration, bool) {
		d := seq[i%len(seq)]
		i++
		return d, true
	})
	if n != 5 || med != 3 {
		t.Errorf("median = %v over %d", med, n)
	}

	// Failures are retried, then given up on.
	med, n = Median(3, func() (time.Duration, bool) { return 0, false })
	if n != 0 || med != 0 {
		t.Errorf("all-fail median = %v over %d", med, n)
	}
}

// TestQuantile pins the nearest-rank indices, the same ones the
// benchmark's percentile picks: rank ⌈p·n⌉, and the lower middle
// sample for the median of an even count.
func TestQuantile(t *testing.T) {
	seq := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration // the index picked
	}{
		{5, 0, 0},
		{5, 0.5, 2},
		{5, 1, 4},
		{4, 0.5, 1},
		{30, 0.5, 14},
		{20, 0.95, 18},
		{100, 0.95, 94},
		{7, 0.95, 6},
		{1, 0.5, 0},
		{1, 0.95, 0},
	} {
		if got := Quantile(seq(c.n), c.p); got != c.want {
			t.Errorf("Quantile(n=%d, p=%v) picked index %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "Fig 7", Name: "SLP -> SLP", Paper: 700 * time.Microsecond, Measured: 790 * time.Microsecond, Runs: 30}
	s := r.String()
	for _, want := range []string{"Fig 7", "SLP -> SLP", "0.70ms", "0.79ms", "30 runs"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestScenariosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrated-profile scenarios are slow")
	}
	const runs = 3
	results := All(runs)
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		if r.Runs == 0 {
			t.Fatalf("%s %s failed: %s", r.ID, r.Name, r.Note)
		}
		byName[r.Name] = r
	}

	// The orderings the paper's evaluation establishes, with generous
	// margins (×2) so scheduler noise cannot flake the suite.
	slpNative := byName["SLP -> SLP"].Measured
	upnpNative := byName["UPnP -> UPnP"].Measured
	fig8l := byName["Slp->[Slp-UPnP]"].Measured
	fig9a := byName["[Slp-UPnP]->UPnP"].Measured
	fig9b := byName["[UPnP-Slp]->Slp"].Measured

	if slpNative*10 > upnpNative {
		t.Errorf("SLP (%v) not ≪ UPnP (%v)", slpNative, upnpNative)
	}
	if fig8l < upnpNative {
		t.Errorf("bridged SLP→UPnP (%v) should exceed native UPnP (%v)", fig8l, upnpNative)
	}
	if fig9a < fig8l {
		t.Errorf("client side (%v) should exceed service side (%v)", fig9a, fig8l)
	}
	if fig9b > slpNative*2 {
		t.Errorf("best case (%v) should be near/below native SLP (%v)", fig9b, slpNative)
	}
}
