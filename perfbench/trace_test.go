package main

import (
	"fmt"
	"reflect"
	"testing"

	"cbar"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/traffic"
)

// deliveryTrace runs a tiny ECtN network at a load light enough that
// most cycles are quiet, through the traced runner's step loop, and
// returns every delivery with the number of cycles elided.
func deliveryTrace(t *testing.T, wrap bool, workers int) ([]string, int64) {
	t.Helper()
	c := sim.NewConfig(sim.Tiny.Params(), routing.ECtN)
	c.Router.Workers = workers
	var alg router.Algorithm
	alg, err := routing.New(c.Algo, c.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if wrap {
		alg = newTimedAlg(alg)
	}
	net, err := router.Build(c.Router, alg, 7)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := sim.UN().Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.002, 9)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	net.OnDeliver = func(p *router.Packet, now int64) {
		got = append(got, fmt.Sprintf("%d:%d:%d>%d:%d", now, p.ID, p.Src, p.Dst, p.TotalHops))
	}
	d := &runner{net: net, inj: inj, tr: &taskTrace{}, heap: newHeapSample()}
	for net.Now() < 20000 {
		d.step(20000)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return got, d.tr.Elided
}

// The decorator must forward CycleHorizon: without it ElideHorizon sees
// a policy with no horizon and stops eliding, which changes no result
// and so would pass unnoticed by a digest check alone.
func TestTimedAlgKeepsElisionAndResults(t *testing.T) {
	ref, refElided := deliveryTrace(t, false, 1)
	if len(ref) == 0 || refElided == 0 {
		t.Fatalf("reference run delivered %d packets and elided %d cycles; the test needs both", len(ref), refElided)
	}
	for _, workers := range []int{1, 2} {
		got, elided := deliveryTrace(t, true, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: wrapped delivery trace differs from the unwrapped one", workers)
		}
		if elided != refElided {
			t.Errorf("workers=%d: wrapped run elided %d cycles, unwrapped %d", workers, elided, refElided)
		}
	}
}

// The traced rebuild must reproduce the public entry points' results
// exactly, for both measurement engines, so the per-layer trace
// describes the run the end-to-end metrics time.
func TestTracedRunMatchesPublicAPI(t *testing.T) {
	tiny := []spec{
		{
			name: "tiny_fixed", scale: cbar.Tiny, alg: cbar.ECtN,
			simScale: sim.Tiny, simAlg: routing.ECtN, workload: sim.ADV(1),
			traffic: "adv+1", loads: []float64{0.3}, workers: 2,
			opt: cbar.SteadyOptions{Warmup: 300, Measure: 400, Seeds: 1},
		},
		{
			name: "tiny_adaptive", scale: cbar.Tiny, alg: cbar.PB,
			simScale: sim.Tiny, simAlg: routing.PB, workload: sim.UN().WithBurst(40, 120, 0),
			traffic: "un+burst:40,120", congestion: true, faultPct: 5, retry: 3,
			loads: []float64{0.1, 0.9},
			opt:   cbar.SteadyOptions{Warmup: 500, Measure: 500, Seeds: 2, Adaptive: true},
		},
	}
	for _, s := range tiny {
		in := s.inputs(3)
		want, err := s.runPublic(in)
		if err != nil {
			t.Fatal(err)
		}
		got, traces, err := runTraced(s, in, procs)
		if err != nil {
			t.Fatal(err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: traced results differ\n got %+v\nwant %+v", s.name, got, want)
		}
		var cycles int64
		for _, tr := range traces {
			cycles += tr.Cycles
		}
		if cycles == 0 {
			t.Errorf("%s: traced run simulated no cycles", s.name)
		}
	}
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	s, _ := findSpec("small_sweep_resilience")
	a, b := s.inputs(5), s.inputs(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different inputs")
	}
	if reflect.DeepEqual(a, s.inputs(6)) {
		t.Fatal("different seeds gave identical inputs")
	}
	for i, l := range a.loads {
		if nominal := s.loads[i]; l < nominal*0.995 || l > nominal*1.005 {
			t.Errorf("load %v strays more than 0.5%% from nominal %v", l, nominal)
		}
		if s.loads[i] == s.pinned && l != s.pinned {
			t.Errorf("pinned load %v jittered to %v", s.pinned, l)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}
