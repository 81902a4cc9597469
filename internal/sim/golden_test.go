package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The experiment golden gate: fig5a (the steady-state grid pool) and
// fig7 (the transient seed pool) run through Experiment.Run at Tiny
// scale under a reduced budget must reproduce the committed CSVs under
// testdata/golden byte for byte. The root package's golden gate pins
// the public sweep path; these pin the figure harness, which runs its
// grids through the same pool with per-experiment config assembly.
//
// Regenerate deliberately (after an intended model change) with:
//
//	go test ./internal/sim -run TestGoldenExperiments -update

var update = flag.Bool("update", false, "rewrite the experiment golden files")

// goldenBudget is the reduced Tiny budget the experiment goldens run
// under: two loads, a few hundred cycles per window, two seeds.
func goldenBudget() Budget {
	b := DefaultBudget(Tiny)
	b.Warmup, b.Measure, b.Seeds = 300, 300, 2
	b.Loads = []float64{0.1, 0.3}
	b.TransientWarmup, b.Pre, b.Post, b.Bucket = 400, 100, 300, 20
	return b
}

func TestGoldenExperiments(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig5a", "fig7"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := FindExperiment(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			var got bytes.Buffer
			if err := e.Run(Tiny, goldenBudget(), &got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", id+"_tiny.csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("golden mismatch for %s:\n--- want\n%s--- got\n%s", path, want, got.Bytes())
			}
		})
	}
}
