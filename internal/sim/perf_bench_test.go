package sim

import (
	"testing"

	"cbar/internal/rng"
	"cbar/internal/routing"
)

// benchStepRun measures the per-cycle cost of a whole-network step,
// the simulator's fundamental unit of work, from a warmed steady state
// (see NewStepBench).
func benchStepRun(b *testing.B, c Config, w Workload, load float64, fullScan bool) {
	b.Helper()
	net, inj, err := NewStepBench(c, w, load, fullScan)
	if err != nil {
		b.Fatal(err)
	}
	gen0 := net.NumGenerated
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Cycle()
		net.Step()
	}
	// Guard against silently measuring an idle network: over any
	// long measured run new traffic must have been generated (short
	// probe runs at low load can legitimately generate nothing).
	if b.N > 1000 && net.NumGenerated == gen0 {
		b.Fatal("no traffic generated during measurement")
	}
}

// benchStep measures the step at a given scale and uniform load.
func benchStep(b *testing.B, s Scale, algo routing.Algo, load float64) {
	benchStepMode(b, s, algo, load, false, false)
}

// benchStepMode is benchStep with the fabric full scan (fullScan) or
// the reference algorithm state (refScan) selected.
func benchStepMode(b *testing.B, s Scale, algo routing.Algo, load float64, fullScan, refScan bool) {
	b.Helper()
	c := NewConfig(s.Params(), algo)
	c.Opts.ReferenceScan = refScan
	benchStepRun(b, c, UN(), load, fullScan)
}

func BenchmarkStepTinyBase(b *testing.B)  { benchStep(b, Tiny, routing.Base, 0.3) }
func BenchmarkStepSmallBase(b *testing.B) { benchStep(b, Small, routing.Base, 0.3) }
func BenchmarkStepSmallMin(b *testing.B)  { benchStep(b, Small, routing.Min, 0.3) }
func BenchmarkStepSmallECtN(b *testing.B) { benchStep(b, Small, routing.ECtN, 0.3) }
func BenchmarkStepSmallIdle(b *testing.B) { benchStep(b, Small, routing.Base, 0.01) }

// BenchmarkStepPaperIdle is the regime the active-set scheduler exists
// for: the full Table I system (2064 routers, 16512 nodes) at 1% load,
// where nearly every component is idle on any given cycle.
func BenchmarkStepPaperIdle(b *testing.B) { benchStep(b, Paper, routing.Base, 0.01) }

// The ElideIdle benchmarks measure quiet-cycle elision, the O(events)
// idle stepper: one op advances ElideIdleSpan cycles of a deep-idle
// network through sim.Advance, which jumps the clock between events
// instead of stepping every cycle. Divide ns/op by ElideIdleSpan to
// compare against the per-cycle Idle entries — the acceptance bar of
// the elision change is >= 10x their cycles/sec.
func benchElideIdle(b *testing.B, s Scale, algo routing.Algo, load float64) {
	b.Helper()
	net, inj, err := NewStepBench(NewConfig(s.Params(), algo), UN(), load, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := ElideIdleWarm(net, inj); err != nil {
		b.Fatal(err)
	}
	gen0 := net.NumGenerated
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Advance(net, inj, ElideIdleSpan)
	}
	if b.N > 100 && net.NumGenerated == gen0 {
		b.Fatal("no traffic generated during measurement")
	}
}

func BenchmarkStepSmallElideIdle(b *testing.B) { benchElideIdle(b, Small, routing.Base, ElideIdleLoad) }
func BenchmarkStepPaperElideIdle(b *testing.B) { benchElideIdle(b, Paper, routing.Base, ElideIdleLoad) }

// BenchmarkStepSmallFullScanIdle pins the cost of the original
// every-component loop at the same operating point as StepSmallIdle, so
// the active-set win is visible within one benchmark run.
func BenchmarkStepSmallFullScanIdle(b *testing.B) {
	benchStepMode(b, Small, routing.Base, 0.01, true, false)
}

// The PB and ECtN step benchmarks measure the event-driven algorithm
// layer: with watcher-maintained saturation flags and dirty-group
// combines, an idle PB/ECtN cycle must cost about the same as an idle
// Base cycle — no residual O(network) BeginCycle term. The *RefScanIdle
// variants pin the retained full-recompute reference (the seed
// implementation) at the same operating point, so the win is visible
// within one benchmark run.
func BenchmarkStepSmallPB(b *testing.B)       { benchStep(b, Small, routing.PB, 0.3) }
func BenchmarkStepSmallPBIdle(b *testing.B)   { benchStep(b, Small, routing.PB, 0.01) }
func BenchmarkStepSmallECtNIdle(b *testing.B) { benchStep(b, Small, routing.ECtN, 0.01) }
func BenchmarkStepSmallPBRefScanIdle(b *testing.B) {
	benchStepMode(b, Small, routing.PB, 0.01, false, true)
}
func BenchmarkStepSmallECtNRefScanIdle(b *testing.B) {
	benchStepMode(b, Small, routing.ECtN, 0.01, false, true)
}

// BenchmarkStepPaperPBIdle is the acceptance regime of the event-driven
// algorithm layer: the full Table I system at 1% load under PB, which
// previously paid a 16512-port saturation recompute every cycle.
func BenchmarkStepPaperPBIdle(b *testing.B)   { benchStep(b, Paper, routing.PB, 0.01) }
func BenchmarkStepPaperECtNIdle(b *testing.B) { benchStep(b, Paper, routing.ECtN, 0.01) }

// The bursty/hotspot idle benchmarks pin the stateful calendar
// injector's per-cycle cost beside the Bernoulli skip-sampler at the
// same operating points: the calendar only touches nodes that inject
// this cycle, so an idle bursty cycle must cost about the same as an
// idle Bernoulli cycle — no O(nodes) per-cycle term, at Paper scale in
// particular (16512 mostly-silent sources).
func benchStepWorkload(b *testing.B, s Scale, algo routing.Algo, w Workload, load float64) {
	b.Helper()
	benchStepRun(b, NewConfig(s.Params(), algo), w, load, false)
}

func BenchmarkStepSmallBurstyIdle(b *testing.B) {
	benchStepWorkload(b, Small, routing.Base, UN().WithBurst(50, 150, 0), 0.01)
}

func BenchmarkStepSmallHotspotIdle(b *testing.B) {
	benchStepWorkload(b, Small, routing.Base, HotspotUN(0.2, 8), 0.01)
}

func BenchmarkStepPaperBurstyIdle(b *testing.B) {
	benchStepWorkload(b, Paper, routing.Base, UN().WithBurst(50, 150, 0), 0.01)
}

// The worker benchmarks measure the shard-parallel stepper against the
// sequential stepper at a loaded operating point (30% uniform load, the
// acceptance regime of the parallel-stepper change): both run the exact
// same cycles — the stepper is bit-identical at every worker count — so
// the ratio is pure parallel speedup minus barrier cost. The Workers1
// variants pin the same operating point on the sequential path so the
// comparison lives inside one benchmark run.
func benchStepWorkers(b *testing.B, s Scale, load float64, workers int) {
	b.Helper()
	c := NewConfig(s.Params(), routing.Base)
	c.Router.Workers = workers
	benchStepRun(b, c, UN(), load, false)
}

func BenchmarkStepSmallWorkers1(b *testing.B) { benchStepWorkers(b, Small, 0.3, 1) }
func BenchmarkStepSmallWorkers4(b *testing.B) { benchStepWorkers(b, Small, 0.3, 4) }
func BenchmarkStepPaperWorkers1(b *testing.B) { benchStepWorkers(b, Paper, 0.3, 1) }
func BenchmarkStepPaperWorkers4(b *testing.B) { benchStepWorkers(b, Paper, 0.3, 4) }

// BenchmarkStepSmallBurstDrain measures the burst-then-drain regime: a
// synchronized burst enters the NIC queues, then the network is stepped
// until it fully drains. Most of those cycles have only a dwindling tail
// of active components, which a full scan pays topology cost for.
func BenchmarkStepSmallBurstDrain(b *testing.B) {
	c := NewConfig(Small.Params(), routing.Base)
	net, err := BuildNetwork(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BurstDrainStep(net, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildNetworkSmall(b *testing.B) {
	c := NewConfig(Small.Params(), routing.Base)
	for i := 0; i < b.N; i++ {
		if _, err := BuildNetwork(c, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
