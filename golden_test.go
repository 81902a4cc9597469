package cbar

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-output gate: tiny-scale sweeps over {base, ectn, olm} x
// {UN, ADV+1, hotspot, bursty} must reproduce the committed CSVs under
// testdata/golden byte for byte. The files were generated by cmd/sweep
// at the commit introducing the gate, so any change to simulation
// results — an intentional model change as much as an accidental
// determinism break — shows up as a diff here and must regenerate the
// goldens deliberately. CI additionally runs the same sweeps through
// the cmd/sweep binary and diffs them, covering the CLI layer; this
// test pins the public-API layer, so it must format rows exactly like
// cmd/sweep's fixed-mode output (see the format strings there).
//
// Regenerate with:
//
//	go run ./cmd/sweep -scale tiny -routing base,ectn,olm -traffic TRAF \
//	    -loads 0.1,0.3 -warmup 400 -measure 400 -seeds 2 -workers 1 \
//	    > testdata/golden/sweep_tiny_NAME.csv

// goldenCases maps golden files to the cmd/sweep -traffic spec they
// were generated with.
var goldenCases = []struct {
	file    string
	traffic string
}{
	{"sweep_tiny_un.csv", "un"},
	{"sweep_tiny_adv1.csv", "adv+1"},
	{"sweep_tiny_hotspot.csv", "hotspot:0.2,8"},
	{"sweep_tiny_bursty.csv", "un+burst:20,80"},
}

// goldenSweep reproduces cmd/sweep's fixed-mode output for the pinned
// golden configuration.
func goldenSweep(traffic string) (string, error) {
	traf, err := ParseTraffic(traffic)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s traffic on %s scale\n", traf.Name(), Tiny)
	sb.WriteString("load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,overflow_frac\n")
	opt := SteadyOptions{Warmup: 400, Measure: 400, Seeds: 2}
	for _, a := range []Algorithm{Base, ECtN, OLM} {
		cfg := NewConfig(Tiny, a)
		cfg.Workers = 1
		rs, err := Sweep(cfg, traf, []float64{0.1, 0.3}, opt)
		if err != nil {
			return "", err
		}
		for _, r := range rs {
			fmt.Fprintf(&sb, "%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f\n",
				r.Load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.OverflowFrac)
		}
	}
	return sb.String(), nil
}

func TestGoldenSweeps(t *testing.T) {
	t.Parallel()
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := goldenSweep(tc.traffic)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s (traffic %q):\n--- want\n%s--- got\n%s",
					tc.file, tc.traffic, want, got)
			}
		})
	}
}

// The resilience golden pins the adaptive engine with the congestion
// and fault layers on, through the public sweep path. Regenerate with:
//
//	go run ./cmd/sweep -scale tiny -routing base,ectn,pb -traffic un \
//	    -loads 0.2,0.6 -warmup 300 -measure 300 -seeds 2 -workers 1 \
//	    -adaptive -congestion on -faults random:5%@0+retry:3 \
//	    > testdata/golden/sweep_tiny_resilience.csv
func TestGoldenResilienceSweep(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "sweep_tiny_resilience.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cong, err := ParseCongestion("on")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := ParseFaults("random:5%@0+retry:3")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s traffic on %s scale\n", Uniform().Name(), Tiny)
	sb.WriteString("load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,overflow_frac" +
		",ci_half_latency,measured_cycles,warmup_cycles,saturated,converged" +
		",marked,notified,throttled,shed,dropped,retried,unroutable\n")
	opt := SteadyOptions{Warmup: 300, Measure: 300, Seeds: 2, Adaptive: true}
	for _, a := range []Algorithm{Base, ECtN, PB} {
		cfg := NewConfig(Tiny, a)
		cfg.Workers = 1
		cfg.Congestion = cong
		cfg.Faults = faults
		rs, err := Sweep(cfg, Uniform(), []float64{0.2, 0.6}, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			fmt.Fprintf(&sb, "%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f,%.2f,%d,%d,%t,%t,%d,%d,%d,%d,%d,%d,%d\n",
				r.Load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.OverflowFrac,
				r.CIHalfLatency, r.MeasuredCycles, r.WarmupCycles, r.Saturated, r.Converged,
				r.Marked, r.Notified, r.Throttled, r.Shed, r.Dropped, r.Retried, r.Unroutable)
		}
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("golden mismatch for sweep_tiny_resilience.csv:\n--- want\n%s--- got\n%s", want, got)
	}
}
