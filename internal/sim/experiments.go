package sim

import (
	"fmt"
	"io"
	"sort"

	"cbar/internal/routing"
)

// transientLoad returns the offered load of the Figures 7-9 experiments:
// 20% at the paper's (balanced) scales; the unbalanced tiny topology
// needs 35% to sit in the same per-router pressure regime.
func transientLoad(s Scale) float64 {
	if s == Tiny {
		return 0.35
	}
	return 0.2
}

// mixLoad returns the Figure 6 offered load: 35% in the paper; the tiny
// topology's Valiant limit under ADV+1 is 0.25, so it drops to 20%.
func mixLoad(s Scale) float64 {
	if s == Tiny {
		return 0.2
	}
	return 0.35
}

// Experiment regenerates one table or figure of the paper, writing CSV
// rows to w.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale, b Budget, w io.Writer) error
}

// Experiments returns the full per-figure harness, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig5a", "Latency & throughput vs load, uniform traffic (UN)", runFig5a},
		{"fig5b", "Latency & throughput vs load, adversarial ADV+1", runFig5b},
		{"fig5c", "Latency & throughput vs load, adversarial ADV+h", runFig5c},
		{"fig6", "Latency vs UN/ADV+1 mix at fixed load", runFig6},
		{"fig7", "Transient UN->ADV+1, small buffers: latency & misrouted%", runFig7},
		{"fig8", "Transient UN->ADV+1, large buffers (256/2048 phits)", runFig8},
		{"fig9", "Routing oscillations: PB vs ECtN, long trace", runFig9},
		{"fig10a", "Base threshold sensitivity under UN", runFig10a},
		{"fig10b", "Base threshold sensitivity under ADV+1", runFig10b},
		{"via", "§VI-A: mean saturated contention counter vs mean VCs/port", runVIA},
	}
}

// AllExperiments returns the paper's figures followed by the ablation
// studies of DESIGN.md.
func AllExperiments() []Experiment {
	return append(Experiments(), AblationExperiments()...)
}

// FindExperiment resolves an experiment (figure or ablation) by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// steadyAlgos is the mechanism set of the Figure 5 plots.
var steadyAlgos = []routing.Algo{
	routing.Min, routing.Valiant, routing.PB, routing.OLM,
	routing.Base, routing.Hybrid, routing.ECtN,
}

// adaptiveAlgos is the mechanism set of the transient figures.
var adaptiveAlgos = []routing.Algo{
	routing.PB, routing.OLM, routing.Base, routing.Hybrid, routing.ECtN,
}

// config returns the Table I config of the mechanism at the scale with
// the budget's per-simulation settings applied: shard workers,
// congestion management and the fault plan. Every experiment builds its
// configs here, so none can drop part of its budget.
func (b Budget) config(s Scale, a routing.Algo) Config {
	c := NewConfig(s.Params(), a)
	c.Router.Workers = b.Workers
	c.Router.Congestion = b.Congestion
	c.Router.Faults = b.Faults
	return c
}

// runFig5 runs the (mechanism × load) grid of a Figure 5 plot through
// one pool and prints one CSV row per (load, mechanism), loads
// ascending.
func runFig5(s Scale, b Budget, w io.Writer, workload Workload, title string) error {
	var pts []steadyPoint
	for _, a := range steadyAlgos {
		for _, l := range b.Loads {
			pts = append(pts, steadyPoint{b.config(s, a), workload, l})
		}
	}
	res, err := runGrid(pts, b)
	if err != nil {
		return err
	}
	sort.SliceStable(res, func(i, j int) bool { return res[i].Load < res[j].Load })
	if _, err := fmt.Fprintf(w, "# %s\n", title); err != nil {
		return err
	}
	fmt.Fprintln(w, "load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,misrouted_local_frac,avg_hops")
	for _, r := range res {
		fmt.Fprintf(w, "%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f,%.3f\n",
			r.Load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.MisroutedLocal, r.AvgHops)
	}
	return nil
}

func runFig5a(s Scale, b Budget, w io.Writer) error {
	return runFig5(s, b, w, UN(), "Fig 5a: uniform traffic (UN); reference MIN")
}

func runFig5b(s Scale, b Budget, w io.Writer) error {
	return runFig5(s, b, w, ADV(1), "Fig 5b: adversarial ADV+1; reference VAL (limit 0.5 at balanced scale)")
}

func runFig5c(s Scale, b Budget, w io.Writer) error {
	h := s.Params().H
	return runFig5(s, b, w, ADV(h),
		fmt.Sprintf("Fig 5c: adversarial ADV+h (h=%d), requires local misrouting in the intermediate group", h))
}

func runFig6(s Scale, b Budget, w io.Writer) error {
	load := mixLoad(s)
	fracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	fmt.Fprintf(w, "# Fig 6: mixed ADV+1/UN traffic at load %.2f (0%% = pure ADV+1)\n", load)
	fmt.Fprintln(w, "uniform_pct,algo,avg_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac")
	for _, frac := range fracs {
		for _, a := range adaptiveAlgos {
			r, err := RunSteady(b.config(s, a), MixUN(frac, 1), load, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.0f,%s,%.2f,%.4f,%.4f\n", frac*100, r.Algo, r.AvgLatency, r.Accepted, r.MisroutedGlobal)
		}
	}
	return nil
}

func writeTransientTable(w io.Writer, results []TransientResult) {
	fmt.Fprintln(w, "cycle,algo,avg_latency_cycles,misrouted_pct")
	for _, r := range results {
		for i := range r.Times {
			fmt.Fprintf(w, "%d,%s,%.2f,%.2f\n", r.Times[i], r.Algo, r.Latency[i], r.MisroutedPct[i])
		}
	}
}

func runTransientFigure(s Scale, b Budget, w io.Writer, algos []routing.Algo, post int64,
	mutate func(*Config), title string) error {
	// Validate the transient windows this figure will actually run with
	// (Post or PostLong) before building any network, mirroring the
	// upfront validateSteady of the sweep experiments — a bad budget
	// fails in microseconds instead of after the first algorithm's runs.
	b.Post = post
	if err := b.validateTransient(); err != nil {
		return err
	}
	load := transientLoad(s)
	fmt.Fprintf(w, "# %s (UN->ADV+1 at t=0, load %.2f)\n", title, load)
	results := make([]TransientResult, len(algos))
	for i, a := range algos {
		cfg := b.config(s, a)
		if mutate != nil {
			mutate(&cfg)
		}
		r, err := RunTransient(cfg, UN(), ADV(1), load, b)
		if err != nil {
			return err
		}
		results[i] = r
	}
	writeTransientTable(w, results)
	return nil
}

func runFig7(s Scale, b Budget, w io.Writer) error {
	return runTransientFigure(s, b, w, adaptiveAlgos, b.Post, nil,
		"Fig 7: transient response, small buffers (Table I)")
}

func runFig8(s Scale, b Budget, w io.Writer) error {
	mutate := func(c *Config) {
		// The paper's large-buffer variant: 256-phit local and
		// 2048-phit global input buffers per VC, output unchanged.
		c.Router.BufLocal = 256
		c.Router.BufInjection = 256
		c.Router.BufGlobal = 2048
	}
	return runTransientFigure(s, b, w, adaptiveAlgos, b.PostLong, mutate,
		"Fig 8: transient response, large buffers (256/2048 phits per VC)")
}

func runFig9(s Scale, b Budget, w io.Writer) error {
	return runTransientFigure(s, b, w, []routing.Algo{routing.PB, routing.ECtN}, b.PostLong, nil,
		"Fig 9: routing oscillations after the switch, PB vs ECtN")
}

// fig10Thresholds derives the threshold grids of Figure 10 from the
// scale's default (the paper sweeps 3..7 under UN and 6..12 under ADV+1
// around its default of 6).
func fig10Thresholds(s Scale) (un, adv []int32) {
	d := ScaledOptions(s.Params()).BaseTh
	for t := d - 3; t <= d+1; t++ {
		if t >= 1 {
			un = append(un, t)
		}
	}
	for t := d; t <= d+6; t++ {
		adv = append(adv, t)
	}
	return un, adv
}

func runFig10(s Scale, b Budget, w io.Writer, workload Workload, ths []int32, ref routing.Algo, title string) error {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintln(w, "load,threshold,avg_latency_cycles,accepted_phits_node_cycle")
	for _, l := range b.Loads {
		for _, th := range ths {
			cfg := b.config(s, routing.Base)
			cfg.Opts.BaseTh = th
			r, err := RunSteady(cfg, workload, l, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.3f,th=%d,%.2f,%.4f\n", l, th, r.AvgLatency, r.Accepted)
		}
		// Oblivious reference curve (MIN for UN, VAL for ADV).
		r, err := RunSteady(b.config(s, ref), workload, l, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.3f,%s,%.2f,%.4f\n", l, r.Algo, r.AvgLatency, r.Accepted)
	}
	return nil
}

func runFig10a(s Scale, b Budget, w io.Writer) error {
	un, _ := fig10Thresholds(s)
	return runFig10(s, b, w, UN(), un, routing.Min,
		"Fig 10a: Base misrouting-threshold sensitivity, uniform traffic (MIN reference)")
}

func runFig10b(s Scale, b Budget, w io.Writer) error {
	_, adv := fig10Thresholds(s)
	return runFig10(s, b, w, ADV(1), adv, routing.Valiant,
		"Fig 10b: Base misrouting-threshold sensitivity, ADV+1 (VAL reference)")
}

func runVIA(s Scale, b Budget, w io.Writer) error {
	cfg := b.config(s, routing.Base)
	sample := b
	sample.Measure /= 4
	got, err := MeanSaturatedContention(cfg, 0.95, sample)
	if err != nil {
		return err
	}
	want := cfg.Router.MeanVCsPerPort()
	fmt.Fprintln(w, "# §VI-A: mean contention counter per port under saturated UN traffic")
	fmt.Fprintln(w, "metric,value")
	fmt.Fprintf(w, "mean_saturated_counter,%.3f\n", got)
	fmt.Fprintf(w, "mean_vcs_per_port_estimate,%.3f\n", want)
	return nil
}
