package sim

import (
	"fmt"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/traffic"
)

// Step-benchmark harness shared by the in-tree benchmarks
// (perf_bench_test.go) and cmd/bench, so the tracked BENCH_step.json
// record and `go test -bench` always measure the same operating points.

// StepBenchWarmup is the number of cycles a step benchmark runs before
// measurement so the network is in steady state (populated freelist,
// settled active sets) rather than cold.
const StepBenchWarmup = 500

// ElideIdleSpan and ElideIdleLoad are the operating point of the
// ElideIdle benchmarks (in-tree and cmd/bench): one op advances
// ElideIdleSpan cycles of a network offered ElideIdleLoad through
// Advance, so most of the span is elided and ns/op divided by the span
// is the effective per-cycle cost of the O(events) idle stepper. The
// load is deep idle — a few arrivals per span — rather than zero, so
// the jump/step composition (not just one long jump) is what's timed.
const (
	ElideIdleSpan = 10000
	ElideIdleLoad = 1e-5
)

// ElideIdleWarm deterministically warms every lazily-grown pool an
// ElideIdle measurement span can touch: one packet through every NIC
// (first-touch queue backing arrays, the packet freelist), stepped to
// delivery. At deep idle the statistical StepBenchWarmup leaves most
// sources untouched, so without this the first-touch growth trickles
// through the measured spans and allocs/op decays with b.N — a flaky
// regression gate.
func ElideIdleWarm(net *router.Network, inj *traffic.Injector) error {
	nodes := net.Topo.Nodes
	for src := 0; src < nodes; src++ {
		net.Inject(src, (src+nodes/2)%nodes)
	}
	for i := 0; i < 1<<20 && net.InFlight > 0; i++ {
		inj.Cycle()
		net.Step()
	}
	if net.InFlight > 0 {
		return fmt.Errorf("sim: elide warm burst did not drain")
	}
	return nil
}

// NewStepBench builds a network and injector for config c under
// workload w (pattern and arrival process) at the offered load, and
// warms the network into steady state. The config carries the step
// modes: Opts.ReferenceScan selects the full-recompute reference
// algorithm state (polled PB flags, combine-every-group ECtN),
// Router.Workers the shard-parallel stepper and Router.Faults a fault
// plan; fullScan selects the every-component fabric loop
// (router.Network.FullScan).
func NewStepBench(c Config, w Workload, load float64, fullScan bool) (*router.Network, *traffic.Injector, error) {
	net, err := BuildNetwork(c, 1)
	if err != nil {
		return nil, nil, err
	}
	net.FullScan = fullScan
	pat, err := w.Pattern(net.Topo)
	if err != nil {
		return nil, nil, err
	}
	inj, err := w.injector(net, traffic.Constant(pat), load, 2)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < StepBenchWarmup; i++ {
		inj.Cycle()
		net.Step()
	}
	return net, inj, nil
}

// BurstDrainStep runs one episode of the burst-then-drain benchmark: a
// 256-packet random burst into the NIC queues, then stepping until the
// network fully drains.
func BurstDrainStep(net *router.Network, r *rng.PCG) error {
	const burst = 256
	nodes := net.Topo.Nodes
	for k := 0; k < burst; k++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes)
		if dst == src {
			dst = (dst + 1) % nodes
		}
		net.Inject(src, dst)
	}
	if !net.Drain(1 << 20) {
		return fmt.Errorf("sim: burst did not drain")
	}
	return nil
}
