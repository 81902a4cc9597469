package sim

import (
	"fmt"
	"io"

	"cbar/internal/routing"
)

// Ablations quantify the design choices called out in DESIGN.md beyond
// the paper's own figures:
//
//   - the ECtN exchange period (the paper fixes 100 cycles and discusses
//     cheaper encodings in §VI-B — the period is the latency/overhead
//     knob);
//   - the allocator's 2× internal speedup (Table I; compensates the
//     separable allocator's matching loss);
//   - the 4-bit saturation of broadcast partial counters (§VI-B sizes
//     the broadcast with 4-bit fields);
//   - Base's threshold at the exact §VI-A bounds.
//
// Each ablation prints a small CSV comparable across its variants.

// AblationECtNPeriod measures ECtN's post-switch adaptation (mean
// misrouted percentage in an early delivery window) as a function of the
// exchange period.
func AblationECtNPeriod(s Scale, b Budget, w io.Writer) error {
	load := transientLoad(s)
	b.Pre = 0 // the trace starts at the switch
	fmt.Fprintf(w, "# ablation: ECtN exchange period (UN->ADV+1 at load %.2f)\n", load)
	fmt.Fprintln(w, "period_cycles,early_misrouted_pct,late_misrouted_pct")
	for _, period := range []int64{25, 50, 100, 200, 400} {
		cfg := b.config(s, routing.ECtN)
		cfg.Opts.ECtNPeriod = period
		r, err := RunTransient(cfg, UN(), ADV(1), load, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d,%.1f,%.1f\n", period,
			windowMean(r, 150, 350, r.MisroutedPct),
			windowMean(r, 350, b.Post, r.MisroutedPct))
	}
	return nil
}

// AblationSpeedup measures uniform-traffic throughput near saturation
// with and without the 2× allocator speedup.
func AblationSpeedup(s Scale, b Budget, w io.Writer) error {
	fmt.Fprintln(w, "# ablation: allocator internal speedup (UN at high load, Base)")
	fmt.Fprintln(w, "speedup,load,avg_latency_cycles,accepted_phits_node_cycle")
	for _, speedup := range []int{1, 2, 3} {
		for _, load := range []float64{0.5, 0.8} {
			cfg := b.config(s, routing.Base)
			cfg.Router.Speedup = speedup
			r, err := RunSteady(cfg, UN(), load, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%.2f,%.2f,%.4f\n", speedup, load, r.AvgLatency, r.Accepted)
		}
	}
	return nil
}

// AblationLocalVCs measures adversarial throughput for Base with 3
// (Table I) versus 4 local VCs: the extra lane relaxes the local
// misroute budget guard.
func AblationLocalVCs(s Scale, b Budget, w io.Writer) error {
	h := s.Params().H
	fmt.Fprintf(w, "# ablation: local VC count under ADV+%d (Base)\n", h)
	fmt.Fprintln(w, "local_vcs,load,avg_latency_cycles,accepted_phits_node_cycle,misrouted_local_frac")
	for _, vcs := range []int{3, 4} {
		for _, load := range []float64{0.15, 0.3} {
			cfg := b.config(s, routing.Base)
			cfg.Router.VCsLocal = vcs
			r, err := RunSteady(cfg, ADV(h), load, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%.2f,%.2f,%.4f,%.4f\n", vcs, load, r.AvgLatency, r.Accepted, r.MisroutedLocal)
		}
	}
	return nil
}

// AblationThresholdBounds pins Base's threshold at the exact §VI-A
// bounds — the saturated-counter mean (rounded) and the injection-port
// count — and reports both traffic classes.
func AblationThresholdBounds(s Scale, b Budget, w io.Writer) error {
	p := s.Params()
	cfg := b.config(s, routing.Base)
	meanVCs := cfg.Router.MeanVCsPerPort()
	lower := int32(meanVCs + 0.5)
	upper := int32(p.P)
	fmt.Fprintf(w, "# ablation: Base threshold at the §VI-A bounds (meanVCs=%.2f -> lower %d, p=%d -> upper %d)\n",
		meanVCs, lower, p.P, upper)
	fmt.Fprintln(w, "threshold,traffic,avg_latency_cycles,accepted_phits_node_cycle")
	for _, th := range []int32{lower, upper} {
		for _, tc := range []struct {
			w    Workload
			load float64
		}{{UN(), 0.5}, {ADV(1), 0.2}} {
			c := cfg
			c.Opts.BaseTh = th
			r, err := RunSteady(c, tc.w, tc.load, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%s,%.2f,%.4f\n", th, r.Workload, r.AvgLatency, r.Accepted)
		}
	}
	return nil
}

// AblationStatisticalTrigger contrasts Base's hard threshold with the
// §VI-C statistical trigger (BaseProb) under heavy adversarial load:
// the paper observes that a fixed threshold can divert *all* traffic
// nonminimally while the minimal path sits empty; the statistical
// variant keeps the minimal path carrying a share.
func AblationStatisticalTrigger(s Scale, b Budget, w io.Writer) error {
	fmt.Fprintln(w, "# ablation: §VI-C statistical misrouting trigger under ADV+1")
	fmt.Fprintln(w, "algo,load,avg_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac")
	for _, algo := range []routing.Algo{routing.Base, routing.BaseProb} {
		for _, load := range []float64{0.1, 0.2} {
			r, err := RunSteady(b.config(s, algo), ADV(1), load, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%.2f,%.2f,%.4f,%.4f\n", r.Algo, load, r.AvgLatency, r.Accepted, r.MisroutedGlobal)
		}
	}
	return nil
}

// windowMean averages series values whose time lies in [lo, hi).
func windowMean(r TransientResult, lo, hi int64, series []float64) float64 {
	var s float64
	n := 0
	for i, t := range r.Times {
		if t >= lo && t < hi {
			s += series[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// AblationExperiments returns the ablation set in registry form.
func AblationExperiments() []Experiment {
	return []Experiment{
		{"abl-ectn-period", "Ablation: ECtN exchange period vs adaptation speed", AblationECtNPeriod},
		{"abl-speedup", "Ablation: allocator internal speedup vs throughput", AblationSpeedup},
		{"abl-local-vcs", "Ablation: local VC count under ADV+h", AblationLocalVCs},
		{"abl-th-bounds", "Ablation: Base threshold at the §VI-A bounds", AblationThresholdBounds},
		{"abl-statistical", "Ablation: §VI-C statistical trigger vs Base under ADV+1", AblationStatisticalTrigger},
	}
}
