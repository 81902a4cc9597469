package cbar

import (
	"context"
	"fmt"
	"io"

	"cbar/internal/sim"
)

// SteadyOptions sizes a steady-state measurement. Zero values take the
// scale-appropriate defaults (the paper warms up, then measures 15000
// cycles averaged over 10 runs at full scale); explicitly negative
// windows or repeat counts are rejected with an error rather than
// silently replaced.
type SteadyOptions struct {
	// Warmup cycles before measurement starts. In adaptive mode this is
	// the cap of the MSER-detected warmup truncation instead.
	Warmup int64
	// Measure is the measurement window in cycles. In adaptive mode it
	// only sizes the default MaxMeasure cap (4x Measure).
	Measure int64
	// Seeds is the number of independent repeats (averaged; run in
	// parallel).
	Seeds int
	// Adaptive replaces the fixed windows with the adaptive measurement
	// engine: MSER warmup truncation, a batch-means CI stopping rule
	// (simulate until the 95% CI on mean latency and throughput is
	// within CIRelWidth of the mean) and a saturation short-circuit
	// that bails out of non-converging points early. The default fixed
	// mode reproduces pre-adaptive results bit-identically.
	Adaptive bool
	// CIRelWidth is the adaptive stopping target (0 = 0.05).
	CIRelWidth float64
	// MaxMeasure caps the adaptive measurement phase per seed, in
	// cycles (0 = 4x Measure).
	MaxMeasure int64
	// Ctx, when non-nil, cancels the run cooperatively: the cycle loops
	// check it every measurement bucket and the grid pool between
	// (load, seed) tasks, so an interrupted sweep stops mid-run.
	Ctx context.Context
}

// budget resolves the options against the config's scale defaults,
// leaving validation (negative windows, bad CI targets) to the
// simulation layer so every entry point reports the same errors.
func (o SteadyOptions) budget(c Config) sim.Budget {
	def := sim.DefaultBudget(scaleOf(c))
	b := sim.Budget{
		Warmup: o.Warmup, Measure: o.Measure, Seeds: o.Seeds,
		Adaptive: o.Adaptive, CIRelWidth: o.CIRelWidth, MaxMeasure: o.MaxMeasure,
		Ctx: o.Ctx,
	}
	if b.Warmup == 0 {
		b.Warmup = def.Warmup
	}
	if b.Measure == 0 {
		b.Measure = def.Measure
	}
	if b.Seeds == 0 {
		b.Seeds = def.Seeds
	}
	return b
}

// scaleOf classifies a config by node count, for defaulting budgets.
func scaleOf(c Config) sim.Scale {
	switch n := c.Nodes(); {
	case n <= 300:
		return sim.Tiny
	case n <= 4000:
		return sim.Small
	default:
		return sim.Paper
	}
}

// SteadyResult reports a steady-state measurement. It is an alias of
// the simulation layer's result type (cbar/internal/sim.SteadyResult),
// where each field is documented; README.md's "Result fields" section
// lists them.
type SteadyResult = sim.SteadyResult

// RunSteady measures latency and throughput at one offered load
// (phits/(node·cycle), in [0,1]).
func RunSteady(c Config, t Traffic, load float64, opt SteadyOptions) (SteadyResult, error) {
	sc, err := c.internal()
	if err != nil {
		return SteadyResult{}, err
	}
	return sim.RunSteady(sc, t.inner, load, opt.budget(c))
}

// Sweep measures a whole load grid. Every (load, seed) point of the
// grid runs through one bounded worker pool (GOMAXPROCS workers) — a
// sweep of L loads no longer fans out into L independent seed pools.
// The returned slice is ordered like loads.
func Sweep(c Config, t Traffic, loads []float64, opt SteadyOptions) ([]SteadyResult, error) {
	sc, err := c.internal()
	if err != nil {
		return nil, err
	}
	return sim.SweepSteady(sc, t.inner, loads, opt.budget(c))
}

// TransientOptions sizes a traffic-switch experiment.
type TransientOptions struct {
	// Warmup cycles under the pre-switch pattern (rounded up to a
	// multiple of the ECtN exchange period, matching the paper's
	// Figure 7 scenario).
	Warmup int64
	// Pre and Post bound the recorded trace around the switch.
	Pre, Post int64
	// Bucket is the trace averaging width in cycles.
	Bucket int64
	// Seeds is the number of averaged repeats.
	Seeds int
}

// budget resolves zero-valued windows from the scale defaults.
// Explicitly negative values pass through so the simulation layer's
// validation rejects them with a clear error instead of silently
// substituting a default.
func (o TransientOptions) budget(c Config) sim.Budget {
	def := sim.DefaultBudget(scaleOf(c))
	b := sim.Budget{TransientWarmup: o.Warmup, Pre: o.Pre, Post: o.Post, Bucket: o.Bucket, Seeds: o.Seeds}
	if b.TransientWarmup == 0 {
		b.TransientWarmup = def.TransientWarmup
	}
	if b.Pre == 0 {
		b.Pre = def.Pre
	}
	if b.Post == 0 {
		b.Post = def.Post
	}
	if b.Bucket == 0 {
		b.Bucket = def.Bucket
	}
	if b.Seeds == 0 {
		b.Seeds = def.Seeds
	}
	return b
}

// TransientResult is a traced response to a traffic-pattern switch. It
// is an alias of the simulation layer's trace type
// (cbar/internal/sim.TransientResult), where each field is documented:
// the mechanism name, the bucket width, and per-bucket centers (cycles
// relative to the switch), mean latency and misrouted percentage.
type TransientResult = sim.TransientResult

// RunTransient warms the network under `before`, switches to `after` at
// t=0 and traces per-bucket delivery latency and misrouted percentage
// (the Figures 7-9 experiments).
func RunTransient(c Config, before, after Traffic, load float64, opt TransientOptions) (TransientResult, error) {
	sc, err := c.internal()
	if err != nil {
		return TransientResult{}, err
	}
	return sim.RunTransient(sc, before.inner, after.inner, load, opt.budget(c))
}

// ExperimentIDs lists the paper's reproducible tables and figures —
// fig5a-fig5c, fig6, fig7, fig8, fig9, fig10a, fig10b and "via" (the
// §VI-A saturated-counter analysis) — followed by the ablation studies
// (abl-*).
func ExperimentIDs() []string {
	var ids []string
	for _, e := range sim.AllExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// FigureIDs lists only the paper's tables and figures (no ablations).
func FigureIDs() []string {
	var ids []string
	for _, e := range sim.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ExperimentTitle returns the human description of an experiment ID.
func ExperimentTitle(id string) (string, error) {
	e, ok := sim.FindExperiment(id)
	if !ok {
		return "", fmt.Errorf("cbar: unknown experiment %q", id)
	}
	return e.Title, nil
}

// ExperimentOptions overrides parts of an experiment's scale-default
// budget. Zero values keep the defaults.
type ExperimentOptions struct {
	// Seeds overrides the repeat count per plotted point.
	Seeds int
	// Workers is the per-simulation shard worker count (Config.Workers
	// semantics: 0 = automatic split between grid parallelism and
	// intra-run sharding, 1 = sequential stepping). Results are
	// identical at every worker count.
	Workers int
	// Adaptive runs the experiment's steady-state points under the
	// adaptive measurement engine (MSER warmup truncation, batch-means
	// CI stopping, saturation short-circuit) instead of the fixed
	// windows; transient traces keep their fixed windows. Numbers are
	// statistically equivalent but not bit-identical to fixed mode.
	Adaptive bool
	// CIRelWidth is the adaptive stopping target (0 = 0.05).
	CIRelWidth float64
	// MaxMeasure caps the adaptive measurement phase per seed, in
	// cycles (0 = 4x the scale's fixed measurement window).
	MaxMeasure int64
	// Congestion enables the congestion-management layer in every
	// simulation of the experiment. The zero value keeps it off,
	// reproducing pre-congestion figures bit-identically.
	Congestion Congestion
	// Faults schedules the fault-injection plan in every simulation of
	// the experiment. The zero value keeps it off, reproducing pre-fault
	// figures bit-identically.
	Faults Faults
	// Ctx, when non-nil, cancels the experiment cooperatively (checked
	// every measurement bucket and between grid tasks).
	Ctx context.Context
}

// RunExperiment regenerates one of the paper's tables or figures at the
// given scale, writing CSV (with a leading comment line) to w. Seeds
// and windows follow the scale's default budget; opt overrides parts of
// it (the zero value keeps every default).
func RunExperiment(id string, s Scale, opt ExperimentOptions, w io.Writer) error {
	e, ok := sim.FindExperiment(id)
	if !ok {
		return fmt.Errorf("cbar: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	b := sim.DefaultBudget(s.internal())
	// 0 means scale default; anything else (negative included) reaches
	// the budget validation, matching RunSteady/Sweep.
	if opt.Seeds != 0 {
		b.Seeds = opt.Seeds
	}
	if opt.Seeds < 0 {
		// Some experiments (e.g. "via") never consume Seeds, so reject
		// here rather than rely on the experiment's own entry points.
		return fmt.Errorf("cbar: seeds %d must be >= 1 (0 = scale default)", opt.Seeds)
	}
	b.Workers = opt.Workers
	b.Congestion = opt.Congestion.internal()
	b.Faults = opt.Faults.internal()
	b.Ctx = opt.Ctx
	b.Adaptive = opt.Adaptive
	b.CIRelWidth = opt.CIRelWidth
	b.MaxMeasure = opt.MaxMeasure
	return e.Run(s.internal(), b, w)
}
