package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"cbar/internal/router"
)

func ablationBudget() Budget {
	return Budget{
		Warmup: 400, Measure: 400, Seeds: 1,
		TransientWarmup: 600, Pre: 0, Post: 400, PostLong: 400, Bucket: 25,
	}
}

func TestAblationRegistry(t *testing.T) {
	abls := AblationExperiments()
	if len(abls) != 5 {
		t.Fatalf("%d ablations", len(abls))
	}
	for _, e := range abls {
		if !strings.HasPrefix(e.ID, "abl-") || e.Title == "" || e.Run == nil {
			t.Fatalf("bad ablation %+v", e)
		}
		if _, ok := FindExperiment(e.ID); !ok {
			t.Fatalf("%s not findable", e.ID)
		}
	}
	// Figures list must stay ablation-free.
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "abl-") {
			t.Fatalf("ablation leaked into figure list: %s", e.ID)
		}
	}
}

func TestAblationSpeedupRuns(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := AblationSpeedup(Tiny, ablationBudget(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") < 7 { // header + comment + 6 rows
		t.Fatalf("short output:\n%s", out)
	}
	if !strings.Contains(out, "speedup,load") {
		t.Fatalf("missing header:\n%s", out)
	}
}

func TestAblationLocalVCsRuns(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := AblationLocalVCs(Tiny, ablationBudget(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "local_vcs,load") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestAblationThresholdBoundsRuns(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := AblationThresholdBounds(Tiny, ablationBudget(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "threshold,traffic") || !strings.Contains(out, "ADV+1") {
		t.Fatalf("bad output:\n%s", out)
	}
}

func TestAblationECtNPeriodRuns(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := AblationECtNPeriod(Tiny, ablationBudget(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, period := range []string{"25,", "100,", "400,"} {
		if !strings.Contains(out, "\n"+period) {
			t.Fatalf("missing period row %q:\n%s", period, out)
		}
	}
}

func TestWindowMean(t *testing.T) {
	r := TransientResult{
		Times:        []int64{0, 10, 20, 30},
		MisroutedPct: []float64{1, 2, 3, 4},
	}
	if got := windowMean(r, 10, 30, r.MisroutedPct); got != 2.5 {
		t.Fatalf("windowMean = %v", got)
	}
	if got := windowMean(r, 100, 200, r.MisroutedPct); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
}

// TestExperimentsHonorCancelledBudget: every registered experiment —
// figures and ablations alike — must stop with context.Canceled under a
// pre-cancelled Budget.Ctx instead of running to completion.
func TestExperimentsHonorCancelledBudget(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := goldenBudget()
	b.PostLong = b.Post
	b.Ctx = ctx
	for _, e := range AllExperiments() {
		if err := e.Run(Tiny, b, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", e.ID, err)
		}
	}
}

// TestAblationHonorsFaultPlan: an ablation run with a fault plan in its
// budget must simulate the faulted fabric, not the healthy one.
func TestAblationHonorsFaultPlan(t *testing.T) {
	t.Parallel()
	var healthy, faulted bytes.Buffer
	b := ablationBudget()
	if err := AblationStatisticalTrigger(Tiny, b, &healthy); err != nil {
		t.Fatal(err)
	}
	b.Faults = router.FaultConfig{RandomPct: 50}
	if err := AblationStatisticalTrigger(Tiny, b, &faulted); err != nil {
		t.Fatal(err)
	}
	if healthy.String() == faulted.String() {
		t.Fatalf("fault plan ignored: output identical with and without it:\n%s", healthy.String())
	}
}
