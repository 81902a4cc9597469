package main

import (
	"fmt"
	"math"

	"cbar"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
)

// spec is one benchmark workload: a steady-state point or load sweep
// described once and run two ways — untraced through the public cbar
// entry points, and traced through the layer entry points (trace.go).
// The two descriptions below must name the same system; the result
// digest comparison in the traced run is what holds them together.
type spec struct {
	name string
	why  string

	// Public-API description (untraced end-to-end path).
	scale cbar.Scale
	alg   cbar.Algorithm
	// Layer description of the same system (traced path).
	simScale sim.Scale
	simAlg   routing.Algo
	workload sim.Workload

	traffic    string    // cbar.ParseTraffic spec of workload
	congestion bool      // congestion management "on"
	faultPct   float64   // random global-cable failures at cycle 0 (draw seed 0), percent
	retry      int       // source retransmission limit
	loads      []float64 // nominal offered loads, phits/(node·cycle)
	pinned     float64   // a nominal load inputs leaves unjittered (0: none)
	workers    int       // cbar.Config.Workers
	opt        cbar.SteadyOptions

	// check returns one message per physics bound a result violates.
	check func(rs []cbar.SteadyResult) []string
}

// specs are the benchmark's workloads. Every one is open-loop: the
// injector offers its load on a schedule whatever the backlog. There is
// no paper-scale point with shard workers: on a 2-vCPU host its
// barrier-stepped threads turn every hypervisor steal episode into wall
// time, and ten runs spread past any usable bound (see README.md).
var specs = []spec{
	{
		name: "paper_un_base",
		why:  "paper-scale Base under UN at a loaded, unsaturated point: the sequential loaded cycle, dominated by fabric work",
		// Paper-scale Table I system, Base, UN @ 0.3, fixed windows,
		// one seed, sequential stepping. Routing hooks are a small share
		// of Step here and elision never fires. The windows are short
		// (about 5.5 s per call) so a run takes its median over several
		// calls; 300 warmup cycles are the least after which accepted
		// load sits within the 1% bound.
		scale: cbar.Paper, alg: cbar.Base,
		simScale: sim.Paper, simAlg: routing.Base, workload: sim.UN(),
		traffic: "un", loads: []float64{0.3}, workers: 1,
		opt: cbar.SteadyOptions{Warmup: 300, Measure: 300, Seeds: 1},
		check: func(rs []cbar.SteadyResult) []string {
			var bad []string
			for _, r := range rs {
				if math.Abs(r.Accepted-r.Load) > 0.01*r.Load {
					bad = append(bad, fmt.Sprintf("accepted %.5f not within 1%% of offered %.5f", r.Accepted, r.Load))
				}
				if r.MisroutedGlobal >= 0.01 {
					bad = append(bad, fmt.Sprintf("misrouted_global %.4f >= 0.01 under UN", r.MisroutedGlobal))
				}
			}
			return bad
		},
	},
	{
		name: "small_sweep_resilience",
		why:  "small-scale PB sweep, bursty UN with congestion control, 5% failed cables and retry, adaptive stopping: the sweep user's path",
		// Light-to-overloaded grid x 2 seeds on the sweep's two-task
		// pool with sequential stepping: the calendar-heap injector, PB's
		// watcher-maintained flags, AIMD throttling, NIC shedding, fault
		// escapes and retry, and adaptive stopping deciding how many
		// cycles each point spends. The overloaded point sits at 0.95,
		// where the saturation detector behaves the same on every seed;
		// at 0.65 a point either is detected early or collapses and runs
		// to the measurement cap, so its cost differs fourfold between
		// seeds. Warmup and Measure size the adaptive caps (warmup at
		// most 500 cycles, measurement at most 2000 per seed) so a sweep
		// takes about 4 s and a run takes its median over about a dozen.
		// The overloaded point's load is pinned: whether the saturation
		// detector fires on its second repeat flips with ±0.5% changes of
		// load (2 of 30 seeds at 0.95, 16 of 30 at 0.99), which moves the
		// sweep's work by ±9%.
		// The grid runs from the costliest point down: the pool starts
		// the overloaded point's long second repeat first instead of
		// last, so both tasks stay busy and no single task's tail sets
		// the wall time.
		scale: cbar.Small, alg: cbar.PB,
		simScale: sim.Small, simAlg: routing.PB, workload: sim.UN().WithBurst(40, 120, 0),
		traffic: "un+burst:40,120", congestion: true, faultPct: 5, retry: 3,
		loads:  []float64{0.95, 0.45, 0.25, 0.05},
		pinned: 0.95,
		opt:    cbar.SteadyOptions{Warmup: 500, Measure: 500, Seeds: 2, Adaptive: true},
		check: func(rs []cbar.SteadyResult) []string {
			var bad []string
			if len(rs) != 4 {
				bad = append(bad, fmt.Sprintf("%d of 4 sweep points returned", len(rs)))
			}
			for _, r := range rs {
				if r.Unroutable != 0 {
					bad = append(bad, fmt.Sprintf("load %.4f: %d unroutable packets", r.Load, r.Unroutable))
				}
			}
			return bad
		},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs are the generated inputs of one run, derived from the
// benchmark seed alone.
type inputs struct {
	seed  uint64
	loads []float64
}

// inputs derives a run's inputs from the benchmark seed. Each nominal
// load is jittered by at most ±0.5% — enough to give every seed its own
// injection trajectory, small enough to leave the amount of work, and
// so the timings, unchanged. The pinned load is not jittered, and the
// fault plan's cable draw stays fixed: either change switches how many
// cycles the adaptive engine spends, and so the work a run times.
func (s spec) inputs(seed uint64) inputs {
	in := inputs{seed: seed}
	x := seed
	for _, l := range s.loads {
		u := float64(splitmix64(&x)>>11) / (1 << 53)
		if l != s.pinned {
			l = math.Round(l*(1+0.01*(u-0.5))*1e6) / 1e6
		}
		in.loads = append(in.loads, l)
	}
	return in
}

// splitmix64 advances *x and returns the next SplitMix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// publicConfig is the workload's system as a cbar user configures it.
func (s spec) publicConfig() (cbar.Config, cbar.Traffic, error) {
	c := cbar.NewConfig(s.scale, s.alg)
	c.Workers = s.workers
	if s.congestion {
		c.Congestion = cbar.Congestion{Enabled: true}
	}
	if s.faultPct > 0 {
		c.Faults = cbar.Faults{RandomPct: s.faultPct, RetryLimit: s.retry}
	}
	t, err := cbar.ParseTraffic(s.traffic)
	return c, t, err
}

// runPublic is the untraced end-to-end call: cbar.RunSteady for a
// single point, cbar.Sweep for a grid.
func (s spec) runPublic(in inputs) ([]cbar.SteadyResult, error) {
	c, t, err := s.publicConfig()
	if err != nil {
		return nil, err
	}
	if len(in.loads) == 1 {
		r, err := cbar.RunSteady(c, t, in.loads[0], s.opt)
		return []cbar.SteadyResult{r}, err
	}
	return cbar.Sweep(c, t, in.loads, s.opt)
}

// simConfig is the same system as a sim.Config, for the layer entry
// points. workers is the per-run shard count the sweep pool would
// choose.
func (s spec) simConfig(workers int) sim.Config {
	c := sim.NewConfig(s.simScale.Params(), s.simAlg)
	if need := routing.RequiredLocalVCs(s.simAlg); c.Router.VCsLocal < need {
		c.Router.VCsLocal = need
	}
	c.Router.Workers = workers
	c.Router.Congestion = router.CongestionConfig{Enabled: s.congestion}
	if s.faultPct > 0 {
		c.Router.Faults = router.FaultConfig{RandomPct: s.faultPct, RetryLimit: s.retry}
	}
	return c
}

// budget resolves the steady options the way cbar and sim do for this
// workload's scale: zero windows take the scale defaults, and adaptive
// runs cap measurement at 4x Measure and target a 5% CI.
func (s spec) budget() sim.Budget {
	def := sim.DefaultBudget(s.simScale)
	b := sim.Budget{
		Warmup: s.opt.Warmup, Measure: s.opt.Measure, Seeds: s.opt.Seeds,
		Adaptive: s.opt.Adaptive, CIRelWidth: s.opt.CIRelWidth, MaxMeasure: s.opt.MaxMeasure,
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
	if b.Adaptive {
		if b.CIRelWidth == 0 {
			b.CIRelWidth = 0.05
		}
		if b.MaxMeasure == 0 {
			b.MaxMeasure = 4 * b.Measure
		}
	}
	return b
}

// plan mirrors the sweep pool's split of GOMAXPROCS between grid tasks
// and per-run shard workers (sim.planWorkers).
func (s spec) plan(procs int) (perRun, taskWorkers, tasks int) {
	tasks = len(s.loads) * s.budget().Seeds
	perRun = s.workers
	if perRun <= 0 {
		perRun = max(1, procs/tasks)
	}
	perRun = min(perRun, procs)
	return perRun, max(1, procs/perRun), tasks
}

// simulatedCycles counts the cycles a result set spent, warmup
// included, summed over seeds and points.
func simulatedCycles(rs []cbar.SteadyResult) int64 {
	var n int64
	for _, r := range rs {
		n += r.WarmupCycles*int64(r.Seeds) + r.MeasuredCycles
	}
	return n
}
