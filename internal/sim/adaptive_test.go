package sim

import (
	"testing"

	"cbar/internal/routing"
)

// TestAdaptiveOffBitIdentical: with Adaptive unset, the Budget entry
// points must reproduce the fixed-window entry points exactly — the
// whole result struct, not just the CSV columns. This is the in-tree
// half of the byte-identity contract; the golden-output gate pins it
// across commits through the CLI.
func TestAdaptiveOffBitIdentical(t *testing.T) {
	t.Parallel()
	c := tinyCfg(routing.Base)
	want, err := RunSteady(c, UN(), 0.2, Budget{Warmup: 500, Measure: 500, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSteady(c, UN(), 0.2, Budget{Warmup: 500, Measure: 500, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Adaptive:false differs from fixed windows:\nfixed:  %+v\nbudget: %+v", want, got)
	}
	if want.MeasuredCycles != 500*2 || want.WarmupCycles != 500 {
		t.Fatalf("fixed-mode accounting wrong: %+v", want)
	}
	if want.Converged || want.Saturated || want.CIHalfLatency != 0 {
		t.Fatalf("fixed mode must leave adaptive fields zero: %+v", want)
	}
}

// TestAdaptiveConvergesWithFewerCycles: an unsaturated uniform point
// must hit the 5%% relative-CI target while spending well under the
// fixed measurement budget, and agree with the fixed-window estimate.
func TestAdaptiveConvergesWithFewerCycles(t *testing.T) {
	t.Parallel()
	// Small-scale-like windows on the tiny topology keep the test fast:
	// the point of comparison is the budget the fixed path would spend.
	b := Budget{Warmup: 1200, Measure: 2500, Seeds: 2, Adaptive: true}
	for _, algo := range []routing.Algo{routing.Base, routing.ECtN} {
		r, err := RunSteady(tinyCfg(algo), UN(), 0.2, b)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged || r.Saturated {
			t.Fatalf("%v: unsaturated UN point did not converge cleanly: %+v", algo, r)
		}
		fixedTotal := b.Measure * int64(b.Seeds)
		if r.MeasuredCycles > fixedTotal*7/10 {
			t.Errorf("%v: adaptive spent %d measured cycles, want <= 70%% of fixed %d",
				algo, r.MeasuredCycles, fixedTotal)
		}
		if r.CIHalfLatency <= 0 || r.CIHalfLatency > 0.05*r.AvgLatency {
			t.Errorf("%v: CI half-width %v not within 5%% of mean %v", algo, r.CIHalfLatency, r.AvgLatency)
		}
		if r.WarmupCycles <= 0 || r.WarmupCycles > b.Warmup {
			t.Errorf("%v: truncated warmup %d outside (0, %d]", algo, r.WarmupCycles, b.Warmup)
		}
		fixed, err := RunSteady(tinyCfg(algo), UN(), 0.2, Budget{Warmup: b.Warmup, Measure: b.Measure, Seeds: b.Seeds})
		if err != nil {
			t.Fatal(err)
		}
		if rel := (r.AvgLatency - fixed.AvgLatency) / fixed.AvgLatency; rel < -0.1 || rel > 0.1 {
			t.Errorf("%v: adaptive latency %v vs fixed %v (%.1f%% apart)",
				algo, r.AvgLatency, fixed.AvgLatency, rel*100)
		}
	}
}

// TestAdaptiveSaturationShortCircuit: a hopelessly saturated
// adversarial point must be cut short by the backlog/throttling
// detector well before the adaptive cycle cap, flagged Saturated.
func TestAdaptiveSaturationShortCircuit(t *testing.T) {
	t.Parallel()
	b := Budget{Warmup: 2000, Measure: 2500, MaxMeasure: 10000, Seeds: 2, Adaptive: true}
	r, err := RunSteady(tinyCfg(routing.Base), ADV(1), 0.7, b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Saturated || r.Converged {
		t.Fatalf("ADV+1 at 0.7 with Base not flagged saturated: %+v", r)
	}
	// The detector needs ~satWindow buckets of evidence; anything close
	// to the warmup+measurement budget means it never fired.
	perSeedBudget := b.Warmup + b.MaxMeasure
	if r.MeasuredCycles >= perSeedBudget*int64(b.Seeds)/2 {
		t.Fatalf("saturated point burned %d cycles of the %d budget", r.MeasuredCycles, perSeedBudget*int64(b.Seeds))
	}
	if r.Accepted <= 0 || r.Delivered == 0 {
		t.Fatalf("saturated point reported no throughput evidence: %+v", r)
	}
}

// TestBudgetValidation: degenerate windows must be rejected with
// errors, not silently produce empty or skewed results.
func TestBudgetValidation(t *testing.T) {
	t.Parallel()
	c := tinyCfg(routing.Min)
	cases := []Budget{
		{Warmup: -1, Measure: 100, Seeds: 1},                                  // negative warmup
		{Warmup: 100, Measure: 0, Seeds: 1},                                   // empty measurement
		{Warmup: 100, Measure: 100, Seeds: 0},                                 // no repeats
		{Warmup: 100, Measure: 100, Seeds: -2},                                // negative repeats
		{Warmup: 100, Measure: 100, Seeds: 1, Adaptive: true, CIRelWidth: 2},  // CI target >= 1
		{Warmup: 100, Measure: 100, Seeds: 1, Adaptive: true, CIRelWidth: -1}, // negative CI target
		{Warmup: 100, Measure: 100, Seeds: 1, Adaptive: true, MaxMeasure: -5}, // negative cap
	}
	for i, b := range cases {
		if _, err := RunSteady(c, UN(), 0.1, b); err == nil {
			t.Errorf("case %d: budget %+v accepted", i, b)
		}
	}
	// The legacy entry point now validates too (it used to clamp
	// seeds < 1 to 1 silently).
	if _, err := RunSteady(c, UN(), 0.1, Budget{Warmup: 100, Measure: 100, Seeds: 0}); err == nil {
		t.Error("RunSteady with 0 seeds accepted")
	}
	// A positive MaxMeasure below the stopping rule's minimum series
	// length is floored, not honored: the run must still reach at least
	// one CI check instead of exiting with a zero half-width.
	small := Budget{Warmup: 300, Measure: 100, MaxMeasure: 200, Seeds: 1, Adaptive: true}
	r, err := RunSteady(c, UN(), 0.2, small)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Saturated && r.CIHalfLatency <= 0 {
		t.Errorf("tiny MaxMeasure produced no CI estimate: %+v", r)
	}
	// Transient: bucket wider than the post window, negative pre, and
	// non-positive bucket/seeds all error.
	if _, err := RunTransient(c, UN(), ADV(1), 0.2, Budget{TransientWarmup: 500, Pre: 100, Post: 200, Bucket: 0, Seeds: 1}); err == nil {
		t.Error("bucket 0 accepted")
	}
	if _, err := RunTransient(c, UN(), ADV(1), 0.2, Budget{TransientWarmup: 500, Pre: -1, Post: 200, Bucket: 10, Seeds: 1}); err == nil {
		t.Error("negative pre accepted")
	}
	if _, err := RunTransient(c, UN(), ADV(1), 0.2, Budget{TransientWarmup: 500, Pre: 100, Post: 200, Bucket: 10, Seeds: 0}); err == nil {
		t.Error("0 transient seeds accepted")
	}
}
