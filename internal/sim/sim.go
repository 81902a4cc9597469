// Package sim assembles networks and runs the paper's two experiment
// shapes: steady-state load sweeps (latency and accepted throughput
// after warmup, §IV-B) and transient traces (per-cycle latency and
// misrouted fraction around a traffic-pattern switch, §V-B/§V-C).
// Repeated runs over different seeds execute in parallel and are
// averaged, as the paper averages 10 simulations per plotted point.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/stats"
	"cbar/internal/topology"
	"cbar/internal/traffic"
)

// Config is a complete simulation setup: the router micro-architecture,
// the routing mechanism and its policy options.
type Config struct {
	Router router.Config
	Algo   routing.Algo
	Opts   routing.Options
}

// NewConfig returns the Table I configuration for the given topology and
// mechanism, with thresholds scaled to the topology (ScaledOptions).
func NewConfig(p topology.Params, algo routing.Algo) Config {
	return Config{
		Router: router.DefaultConfig(p),
		Algo:   algo,
		Opts:   ScaledOptions(p),
	}
}

// normalized returns the config with the VC counts the mechanism needs
// (VAL and PB require a fourth local VC, Table I).
func (c Config) normalized() Config {
	if need := routing.RequiredLocalVCs(c.Algo); c.Router.VCsLocal < need {
		c.Router.VCsLocal = need
	}
	return c
}

// BuildNetwork constructs a ready-to-run network for the config.
func BuildNetwork(c Config, seed uint64) (*router.Network, error) {
	c = c.normalized()
	alg, err := routing.New(c.Algo, c.Opts)
	if err != nil {
		return nil, err
	}
	return router.Build(c.Router, alg, seed)
}

// WorkloadKind enumerates the synthetic destination-pattern families:
// the paper's §IV-B set (UN, ADV, mix) plus the workload-engine families
// (hotspot, fixed permutations, group-tornado).
type WorkloadKind int

// Workload kinds.
const (
	Uniform WorkloadKind = iota
	Adversarial
	Mix
	Hotspot
	Shift
	Complement
	Tornado
)

// SourceSpec declares the arrival process of every node,
// topology-independently. The zero value is the paper's homogeneous
// Bernoulli process, which runs on the skip-sampling fast path.
type SourceSpec struct {
	// Bursty selects the two-state on-off (Markov-modulated) process.
	Bursty bool
	// OnMean/OffMean are mean ON/OFF phase lengths in cycles (Bursty).
	OnMean, OffMean float64
	// PeakLoad, when nonzero, fixes the ON-phase offered load in
	// phits/(node·cycle) and lets the duty cycle adapt to the aggregate.
	PeakLoad float64
	// SkewFrac/SkewShare describe heterogeneous per-node loads:
	// SkewFrac of the nodes (evenly spread over the id space) generate
	// SkewShare of the aggregate traffic. Zero values are homogeneous.
	SkewFrac, SkewShare float64
}

// homogeneous reports whether the spec is the plain Bernoulli process
// the fast path covers.
func (s SourceSpec) homogeneous() bool {
	return !s.Bursty && s.SkewFrac == 0
}

// Name returns a suffix describing the arrival process ("" when
// homogeneous Bernoulli).
func (s SourceSpec) Name() string {
	var n string
	if s.Bursty {
		if s.PeakLoad > 0 {
			n = fmt.Sprintf("+burst(%g,%g,%g)", s.OnMean, s.OffMean, s.PeakLoad)
		} else {
			n = fmt.Sprintf("+burst(%g,%g)", s.OnMean, s.OffMean)
		}
	}
	if s.SkewFrac != 0 {
		n += fmt.Sprintf("+skew(%.0f%%:%.0f%%)", s.SkewFrac*100, s.SkewShare*100)
	}
	return n
}

// Workload is a declarative traffic specification — destination pattern
// plus arrival process — resolved against a topology at run time.
type Workload struct {
	Kind WorkloadKind
	// Offset is the ADV group offset (Adversarial and Mix kinds) or the
	// node offset of the Shift permutation.
	Offset int
	// UniformFrac is the fraction of uniform traffic in a Mix.
	UniformFrac float64
	// HotFrac is the fraction of traffic aimed at the hot set, and
	// HotNodes its size (Hotspot kind).
	HotFrac  float64
	HotNodes int
	// Source selects the arrival process (zero: homogeneous Bernoulli).
	Source SourceSpec
}

// UN is the uniform random workload.
func UN() Workload { return Workload{Kind: Uniform} }

// ADV is the adversarial workload with the given group offset.
func ADV(offset int) Workload { return Workload{Kind: Adversarial, Offset: offset} }

// MixUN blends uniformFrac uniform traffic with ADV+offset for the rest
// (the Figure 6 workload).
func MixUN(uniformFrac float64, offset int) Workload {
	return Workload{Kind: Mix, Offset: offset, UniformFrac: uniformFrac}
}

// HotspotUN aims frac of the traffic at `hot` evenly-spread hot nodes,
// the rest uniformly.
func HotspotUN(frac float64, hot int) Workload {
	return Workload{Kind: Hotspot, HotFrac: frac, HotNodes: hot}
}

// ShiftPerm is the fixed node-shift permutation dest = src + offset.
func ShiftPerm(offset int) Workload { return Workload{Kind: Shift, Offset: offset} }

// ComplementPerm is the fixed complement permutation dest = N-1-src.
func ComplementPerm() Workload { return Workload{Kind: Complement} }

// TornadoPerm is the group-tornado permutation (maximal group offset).
func TornadoPerm() Workload { return Workload{Kind: Tornado} }

// WithBurst returns the workload with an on-off bursty arrival process:
// mean ON/OFF phase lengths in cycles, and optionally (peak > 0) a fixed
// ON-phase load in phits/(node·cycle).
func (w Workload) WithBurst(onMean, offMean, peak float64) Workload {
	w.Source.Bursty = true
	w.Source.OnMean, w.Source.OffMean, w.Source.PeakLoad = onMean, offMean, peak
	return w
}

// WithSkew returns the workload with heterogeneous per-node loads: frac
// of the nodes carry share of the aggregate traffic.
func (w Workload) WithSkew(frac, share float64) Workload {
	w.Source.SkewFrac, w.Source.SkewShare = frac, share
	return w
}

// Name returns the paper's name for the workload (with an arrival
// process suffix when not homogeneous Bernoulli).
func (w Workload) Name() string {
	var n string
	switch w.Kind {
	case Uniform:
		n = "UN"
	case Adversarial:
		n = fmt.Sprintf("ADV+%d", w.Offset)
	case Mix:
		n = fmt.Sprintf("mix(%.0f%%UN,ADV+%d)", w.UniformFrac*100, w.Offset)
	case Hotspot:
		n = fmt.Sprintf("hotspot(%.0f%%->%d)", w.HotFrac*100, w.HotNodes)
	case Shift:
		n = fmt.Sprintf("shift+%d", w.Offset)
	case Complement:
		n = "complement"
	case Tornado:
		n = "tornado"
	default:
		n = fmt.Sprintf("workload(%d)", int(w.Kind))
	}
	return n + w.Source.Name()
}

// Pattern resolves the workload's destination pattern against a
// topology.
func (w Workload) Pattern(t *topology.Dragonfly) (traffic.Pattern, error) {
	switch w.Kind {
	case Uniform:
		return traffic.NewUniform(t)
	case Adversarial:
		return traffic.NewAdversarial(t, w.Offset)
	case Mix:
		un, err := traffic.NewUniform(t)
		if err != nil {
			return nil, err
		}
		adv, err := traffic.NewAdversarial(t, w.Offset)
		if err != nil {
			return nil, err
		}
		return traffic.NewMix(un, adv, w.UniformFrac)
	case Hotspot:
		return traffic.NewHotspot(t, w.HotFrac, w.HotNodes)
	case Shift:
		return traffic.NewShift(t, w.Offset)
	case Complement:
		return traffic.NewComplement(t)
	case Tornado:
		return traffic.NewTornado(t)
	}
	return nil, fmt.Errorf("sim: unknown workload kind %d", w.Kind)
}

// skewWeights materializes a skew spec as per-node rate weights: the
// chosen nodes (evenly spread over the id space, like hotspot's hot set)
// share `share` of the aggregate load.
func skewWeights(frac, share float64, nodes int) ([]float64, error) {
	if frac <= 0 || frac >= 1 || share < 0 || share > 1 {
		return nil, fmt.Errorf("sim: skew frac %v must be in (0,1) and share %v in [0,1]", frac, share)
	}
	hot := int(math.Round(frac * float64(nodes)))
	if hot < 1 {
		hot = 1
	}
	if hot >= nodes {
		hot = nodes - 1
	}
	w := make([]float64, nodes)
	wHot := share * float64(nodes) / float64(hot)
	wCold := (1 - share) * float64(nodes) / float64(nodes-hot)
	for i := range w {
		w[i] = wCold
	}
	for i := 0; i < hot; i++ {
		w[i*nodes/hot] = wHot
	}
	return w, nil
}

// injector builds the right injector for the workload: the bit-identical
// homogeneous fast path when the source spec is zero, the stateful
// calendar path otherwise.
func (w Workload) injector(net *router.Network, sched *traffic.Schedule, load float64, seed uint64) (*traffic.Injector, error) {
	if w.Source.homogeneous() {
		return traffic.NewInjector(net, sched, load, seed)
	}
	spec := traffic.SourceSpec{
		OnMean:   w.Source.OnMean,
		OffMean:  w.Source.OffMean,
		PeakLoad: w.Source.PeakLoad,
	}
	if w.Source.Bursty {
		spec.Kind = traffic.OnOffArrivals
	}
	if w.Source.SkewFrac != 0 {
		weights, err := skewWeights(w.Source.SkewFrac, w.Source.SkewShare, net.Topo.Nodes)
		if err != nil {
			return nil, err
		}
		spec.Weights = weights
	}
	return traffic.NewSourceInjector(net, sched, load, seed, spec)
}

// SteadyResult aggregates a steady-state measurement across seeds. The
// public package re-exports it as cbar.SteadyResult, so these field
// docs are the public API's.
type SteadyResult struct {
	// Algo and Workload name the simulated mechanism and traffic pattern
	// (the forms cbar's Algorithm.String and ParseTraffic accept).
	Algo, Workload string
	// Load is the offered load in phits/(node·cycle); with 8-phit
	// packets and 10-byte phits at 1 GHz this is tenths of 10 GB/s.
	Load float64
	// AvgLatency is the mean packet latency in cycles, generation to
	// tail delivery (source queueing included).
	AvgLatency float64
	// P50 and P99 are latency percentiles in cycles, taken over the
	// seeds' merged latency histogram.
	P50, P99 int64
	// Accepted is the delivered throughput in phits/(node·cycle).
	Accepted float64
	// MisroutedGlobal is the fraction of delivered packets that took a
	// nonminimal global hop; MisroutedLocal likewise for local hops.
	MisroutedGlobal, MisroutedLocal float64
	// AvgHops is the mean number of router-to-router hops.
	AvgHops float64
	// UtilLocal and UtilGlobal are the mean utilizations (0..1) of the
	// local and global links over the measurement window — useful for
	// spotting which tier saturates first (global links under ADV+1,
	// source-group local links under ADV+h).
	UtilLocal, UtilGlobal float64
	// OverflowFrac is the fraction of measured latencies at or above
	// the latency-histogram cap. Nonzero means the reported percentiles
	// are saturated at the cap (the true tail is worse) — typical when
	// the offered load exceeds the saturation throughput.
	OverflowFrac float64
	// Delivered counts packets measured across all seeds.
	Delivered uint64
	// Seeds is the number of averaged repeats.
	Seeds int
	// CIHalfLatency and CIHalfAccepted are the 95% confidence
	// half-widths of AvgLatency and Accepted from the adaptive engine's
	// batch-means estimator, combined across seeds (zero in fixed mode).
	CIHalfLatency, CIHalfAccepted float64
	// MeasuredCycles is the total number of measured cycles summed over
	// all seeds — Measure x Seeds in fixed mode, whatever the stopping
	// rule actually spent in adaptive mode.
	MeasuredCycles int64
	// WarmupCycles is the mean unmeasured warmup prefix per seed: the
	// fixed Warmup window, or the MSER-truncated length in adaptive mode
	// (zero for a run cut short as saturated before measuring).
	WarmupCycles int64
	// Saturated reports that the adaptive saturation detector cut at
	// least one seed short (non-converging backlog growth or persistent
	// source throttling): the point does not reach a steady state at
	// this load and its averages describe a growing transient.
	Saturated bool
	// Converged reports that every seed reached the relative-CI target
	// (adaptive mode only; always false in fixed mode).
	Converged bool
	// Congestion-management activity over the measurement windows,
	// summed across seeds; all zero unless the router config enables
	// congestion management (router.CongestionConfig). Marked counts
	// delivered packets carrying ECN marks, Notified the notifications
	// replayed to sources, Throttled the injection attempts deferred or
	// suppressed by the AIMD throttle, and Shed the injection attempts
	// dropped at the NIC shed cap.
	Marked, Notified, Throttled, Shed uint64
	// Fault-injection activity over the measurement windows, summed
	// across seeds; all zero unless the router config schedules faults
	// (router.FaultConfig). Dropped counts packets killed on failing
	// links or routers, Retried the killed packets successfully
	// re-injected by their sources, and Unroutable the packets aimed at
	// (or caught inside) a partitioned region of the fabric.
	Dropped, Retried, Unroutable uint64
}

// latencyHistCap bounds the latency histogram; latencies beyond it still
// count toward the mean but saturate percentile reporting.
const latencyHistCap = 1 << 15

// steadySeed is one seed of a steady-state point: the network, its
// injector and the delivery accounting. The fixed-window and adaptive
// modes share it and differ only in the loop that decides when warmup
// ends (beginMeasure) and when measurement stops (fixed, adaptive).
type steadySeed struct {
	net *router.Network
	inj *traffic.Injector
	// Delivery aggregates. beginMeasure resets them, so after the run
	// they cover the measurement window (the whole run if it never
	// began measuring).
	hist                       *stats.Histogram
	hops                       stats.Welford
	phits, misG, misL, counted uint64
	// Current-bucket accumulators; the adaptive loop zeroes them at
	// every bucket start.
	bSum         float64
	bCnt, bPhits uint64
	// Counter snapshot at the warmup boundary (zero until beginMeasure).
	busyLocal0, busyGlobal0               int64
	marked0, notified0, shed0, throttled0 uint64
	dropped0, retried0, unroutable0       uint64
}

func newSteadySeed(c Config, w Workload, load float64, seed uint64) (*steadySeed, error) {
	net, err := BuildNetwork(c, seed)
	if err != nil {
		return nil, err
	}
	pat, err := w.Pattern(net.Topo)
	if err != nil {
		return nil, err
	}
	inj, err := w.injector(net, traffic.Constant(pat), load, seed^0x9E3779B97F4A7C15)
	if err != nil {
		return nil, err
	}
	s := &steadySeed{net: net, inj: inj, hist: stats.NewHistogram(latencyHistCap)}
	net.OnDeliver = s.deliver
	return s, nil
}

func (s *steadySeed) deliver(p *router.Packet, now int64) {
	lat := now - p.GenTime
	s.bSum += float64(lat)
	s.bCnt++
	s.bPhits += uint64(p.Size)
	s.hist.Add(lat)
	s.hops.Add(float64(p.TotalHops))
	s.phits += uint64(p.Size)
	if p.GlobalMisroute {
		s.misG++
	}
	if p.LocalMisroutes > 0 {
		s.misL++
	}
	s.counted++
}

// beginMeasure ends warmup: it discards the delivery aggregates and
// snapshots every counter the result reports as a measurement-window
// delta.
func (s *steadySeed) beginMeasure() {
	s.hist.Reset()
	s.hops.Reset()
	s.phits, s.misG, s.misL, s.counted = 0, 0, 0, 0
	net := s.net
	_, s.busyLocal0, s.busyGlobal0 = net.LinkBusy()
	s.marked0, s.notified0, s.shed0 = net.NumMarked, net.NumNotified, net.NumShed
	s.throttled0 = s.inj.Throttled()
	s.dropped0, s.retried0, s.unroutable0 = net.NumDropped, s.inj.Retried(), net.NumUnroutable
}

// fixed runs the fixed-window mode: b.Warmup unmeasured cycles, then a
// b.Measure-cycle measurement window.
func (s *steadySeed) fixed(b Budget) (SteadyResult, error) {
	if err := runTo(b.Ctx, s.net, s.inj, b.Warmup); err != nil {
		return SteadyResult{}, err
	}
	s.beginMeasure()
	if err := runTo(b.Ctx, s.net, s.inj, b.Warmup+b.Measure); err != nil {
		return SteadyResult{}, err
	}
	return s.result(b.Measure, b.Warmup), nil
}

// result assembles the seed's measurement over the last `measure`
// cycles, after a `warmup`-cycle prefix. The latency summary fields
// (AvgLatency, P50, P99, OverflowFrac) stay zero: reduceSteady computes
// them from the merged histograms, so cross-seed percentiles are exact
// instead of averages of per-seed ones.
func (s *steadySeed) result(measure, warmup int64) SteadyResult {
	net := s.net
	_, busyLocal, busyGlobal := net.LinkBusy()
	_, nLocal, nGlobal := net.LinkCounts()
	r := SteadyResult{
		Accepted:       float64(s.phits) / (float64(measure) * float64(net.Topo.Nodes)),
		Delivered:      s.counted,
		AvgHops:        s.hops.Mean(),
		UtilLocal:      float64(busyLocal-s.busyLocal0) / (float64(measure) * float64(nLocal)),
		UtilGlobal:     float64(busyGlobal-s.busyGlobal0) / (float64(measure) * float64(nGlobal)),
		Seeds:          1,
		MeasuredCycles: measure,
		WarmupCycles:   warmup,
		Marked:         net.NumMarked - s.marked0,
		Notified:       net.NumNotified - s.notified0,
		Throttled:      s.inj.Throttled() - s.throttled0,
		Shed:           net.NumShed - s.shed0,
		Dropped:        net.NumDropped - s.dropped0,
		Retried:        s.inj.Retried() - s.retried0,
		Unroutable:     net.NumUnroutable - s.unroutable0,
	}
	if s.counted > 0 {
		r.MisroutedGlobal = float64(s.misG) / float64(s.counted)
		r.MisroutedLocal = float64(s.misL) / float64(s.counted)
	}
	return r
}

// measureSeed runs one seed of a steady-state point under the budget's
// measurement mode and returns its result with the latency histogram
// reduceSteady merges.
func measureSeed(c Config, w Workload, load float64, b Budget, seed uint64) (SteadyResult, *stats.Histogram, error) {
	s, err := newSteadySeed(c, w, load, seed)
	if err != nil {
		return SteadyResult{}, nil, err
	}
	var r SteadyResult
	if b.Adaptive {
		r, err = s.adaptive(b, w.Source)
	} else {
		r, err = s.fixed(b)
	}
	if err != nil {
		return SteadyResult{}, nil, err
	}
	r.Algo, r.Workload, r.Load = c.Algo.String(), w.Name(), load
	return r, s.hist, nil
}

// ctxErr reports a cancelled context (nil contexts never cancel); the
// cycle loops poll it once per measurement bucket so a cancelled sweep
// stops mid-run at bucket granularity.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// seedFor returns the run seed of repeat i, shared by every steady
// entry point so single runs and sweeps measure identical systems.
func seedFor(i int) uint64 { return uint64(i)*0x1000003 + 1 }

// RunSteady measures steady-state latency and throughput at one offered
// load; see SweepSteady for the contract.
func RunSteady(c Config, w Workload, load float64, b Budget) (SteadyResult, error) {
	rs, err := SweepSteady(c, w, []float64{load}, b)
	if err != nil {
		return SteadyResult{}, err
	}
	return rs[0], nil
}

// SweepSteady measures a whole load grid. Each (load, seed) run warms
// up unmeasured for b.Warmup cycles and then records deliveries for
// b.Measure cycles; b.Seeds runs per load are averaged (scalars) or
// merged (latency histograms, so cross-seed percentiles are exact). With
// b.Adaptive set, each run uses the adaptive measurement engine instead
// (MSER warmup truncation, batch-means CI stopping, saturation
// short-circuit; see steadySeed.adaptive). The returned slice is
// ordered like loads.
//
// The load×seed grid runs through one bounded worker pool (forEachRun).
// The config's Router.Workers, or b.Workers when it is unset, is the
// per-run shard worker count; 0 splits GOMAXPROCS automatically.
// Results are identical at any worker count.
func SweepSteady(c Config, w Workload, loads []float64, b Budget) ([]SteadyResult, error) {
	pts := make([]steadyPoint, len(loads))
	for i, l := range loads {
		pts[i] = steadyPoint{c, w, l}
	}
	return runGrid(pts, b)
}

// steadyPoint is one point of a steady-state grid.
type steadyPoint struct {
	c    Config
	w    Workload
	load float64
}

// runGrid measures every point over b.Seeds seeds. All (point, seed)
// runs share one pool; each point's seeds are then reduced in seed
// order. The points share one router config up to the mechanism (the
// first point's sets the worker split). The result is ordered like pts.
func runGrid(pts []steadyPoint, b Budget) ([]SteadyResult, error) {
	b = b.steadyDefaults()
	if err := b.validateSteady(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("sim: empty load grid")
	}
	tasks := len(pts) * b.Seeds
	results := make([]SteadyResult, tasks)
	hists := make([]*stats.Histogram, tasks)
	err := forEachRun(pts[0].c, b, tasks, func(k, workers int) error {
		p := pts[k/b.Seeds]
		p.c.Router.Workers = workers
		var err error
		results[k], hists[k], err = measureSeed(p.c, p.w, p.load, b, seedFor(k%b.Seeds))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]SteadyResult, len(pts))
	for i := range pts {
		out[i] = reduceSteady(results[i*b.Seeds:(i+1)*b.Seeds], hists[i*b.Seeds:(i+1)*b.Seeds])
	}
	return out, nil
}

// reduceSteady reduces per-seed results to one measurement: scalar
// metrics are averaged across seeds, while the latency distribution is
// merged and summarized exactly — averaging per-seed percentiles is
// biased for the tail (each seed's P99 is a noisy order statistic whose
// mean is not the P99 of the pooled distribution).
func reduceSteady(rs []SteadyResult, hists []*stats.Histogram) SteadyResult {
	out := rs[0]
	merged := hists[0]
	var acc, misG, misL, hops, utilL, utilG float64
	var delivered uint64
	for i, r := range rs {
		acc += r.Accepted
		misG += r.MisroutedGlobal
		misL += r.MisroutedLocal
		hops += r.AvgHops
		utilL += r.UtilLocal
		utilG += r.UtilGlobal
		delivered += r.Delivered
		if i > 0 {
			merged.Merge(hists[i])
		}
	}
	n := float64(len(rs))
	out.Accepted = acc / n
	out.MisroutedGlobal = misG / n
	out.MisroutedLocal = misL / n
	out.AvgHops = hops / n
	out.UtilLocal = utilL / n
	out.UtilGlobal = utilG / n
	out.AvgLatency = merged.Mean()
	out.P50 = merged.Percentile(0.50)
	out.P99 = merged.Percentile(0.99)
	out.OverflowFrac = merged.OverflowFrac()
	out.Delivered = delivered
	out.Seeds = len(rs)
	// Measurement-accounting reduction: seed CIs are independent, so the
	// half-width of the averaged estimate is sqrt(sum half^2)/n; cycle
	// costs add up, warmup lengths average, saturation is sticky and
	// convergence must hold for every seed.
	out.MeasuredCycles, out.WarmupCycles = 0, 0
	out.Saturated, out.Converged = false, true
	var ciLat2, ciAcc2 float64
	var warm int64
	out.Marked, out.Notified, out.Throttled, out.Shed = 0, 0, 0, 0
	out.Dropped, out.Retried, out.Unroutable = 0, 0, 0
	for _, r := range rs {
		out.MeasuredCycles += r.MeasuredCycles
		warm += r.WarmupCycles
		ciLat2 += r.CIHalfLatency * r.CIHalfLatency
		ciAcc2 += r.CIHalfAccepted * r.CIHalfAccepted
		out.Saturated = out.Saturated || r.Saturated
		out.Converged = out.Converged && r.Converged
		out.Marked += r.Marked
		out.Notified += r.Notified
		out.Throttled += r.Throttled
		out.Shed += r.Shed
		out.Dropped += r.Dropped
		out.Retried += r.Retried
		out.Unroutable += r.Unroutable
	}
	out.WarmupCycles = warm / int64(len(rs))
	out.CIHalfLatency = math.Sqrt(ciLat2) / n
	out.CIHalfAccepted = math.Sqrt(ciAcc2) / n
	return out
}

// TransientResult is the averaged trace of a traffic-switch experiment:
// per-bucket mean latency and globally-misrouted percentage of the
// packets delivered in that bucket, on a time axis relative to the
// switch instant (negative = before the switch). The public package
// re-exports it as cbar.TransientResult.
type TransientResult struct {
	// Algo names the traced mechanism (cbar's Algorithm.String form).
	Algo string
	// BucketWidth is the trace averaging width in cycles.
	BucketWidth int64
	// Times are bucket centers in cycles relative to the switch.
	Times []int64
	// Latency[i] is the mean delivery latency of bucket i (NaN-free:
	// empty buckets are omitted from Times/Latency/MisroutedPct).
	Latency []float64
	// MisroutedPct[i] is the percentage (0-100) of packets delivered
	// in bucket i that had taken a nonminimal global hop.
	MisroutedPct []float64
}

// RunTransient warms the network with workload `before` for
// b.TransientWarmup cycles, switches to `after`, and traces deliveries
// from b.Pre cycles before the switch until b.Post cycles after it in
// b.Bucket-wide buckets, averaged over b.Seeds runs. The seed runs share
// one pool with SweepSteady's worker split and cancellation (b.Ctx).
//
// Only the destination pattern switches: the arrival process is
// `before`'s for the whole run. An `after` workload carrying a
// different non-default source spec is rejected rather than silently
// measured under the wrong arrivals.
//
// The warmup is rounded up to a multiple of the ECtN exchange period so
// the pattern change coincides with a partial-array distribution, the
// scenario of Figure 7 ("the traffic changed exactly when the partial
// counters were being distributed").
func RunTransient(c Config, before, after Workload, load float64, b Budget) (TransientResult, error) {
	if err := b.validateTransient(); err != nil {
		return TransientResult{}, err
	}
	if !after.Source.homogeneous() && after.Source != before.Source {
		return TransientResult{}, fmt.Errorf("sim: transient arrival process is %q's for the whole run; %q's source spec would be ignored — put it on the pre-switch workload",
			before.Name(), after.Name())
	}
	warmup := b.TransientWarmup
	if p := c.Opts.ECtNPeriod; p > 0 && warmup%p != 0 {
		warmup += p - warmup%p
	}
	nBuckets := int((b.Pre + b.Post) / b.Bucket)
	latSeries := make([]*stats.TimeSeries, b.Seeds)
	misSeries := make([]*stats.TimeSeries, b.Seeds)
	err := forEachRun(c, b, b.Seeds, func(i, workers int) error {
		c := c
		c.Router.Workers = workers
		seed := uint64(i)*0x2000003 + 17
		net, err := BuildNetwork(c, seed)
		if err != nil {
			return err
		}
		patBefore, err := before.Pattern(net.Topo)
		if err != nil {
			return err
		}
		patAfter, err := after.Pattern(net.Topo)
		if err != nil {
			return err
		}
		sched, err := traffic.NewSchedule(
			traffic.Phase{FromCycle: 0, Pattern: patBefore},
			traffic.Phase{FromCycle: warmup, Pattern: patAfter},
		)
		if err != nil {
			return err
		}
		// The arrival process follows the pre-switch workload's source
		// spec; the schedule switches only the destination pattern.
		inj, err := before.injector(net, sched, load, seed^0xA5A5A5A5)
		if err != nil {
			return err
		}
		lat := stats.NewTimeSeries(-b.Pre, b.Bucket, nBuckets)
		mis := stats.NewTimeSeries(-b.Pre, b.Bucket, nBuckets)
		net.OnDeliver = func(p *router.Packet, now int64) {
			rel := now - warmup
			lat.Add(rel, float64(now-p.GenTime))
			v := 0.0
			if p.GlobalMisroute {
				v = 100.0
			}
			mis.Add(rel, v)
		}
		latSeries[i] = lat
		misSeries[i] = mis
		// The destination-pattern switch at cycle `warmup` needs no jump
		// cap: arrival times never depend on the pattern, and a jump
		// lands on the next arrival, which then draws its destination
		// from the schedule in force at that cycle.
		return runTo(b.Ctx, net, inj, warmup+b.Post)
	})
	if err != nil {
		return TransientResult{}, err
	}
	for i := 1; i < b.Seeds; i++ {
		latSeries[0].Merge(latSeries[i])
		misSeries[0].Merge(misSeries[i])
	}
	res := TransientResult{Algo: c.Algo.String(), BucketWidth: b.Bucket}
	for i := 0; i < latSeries[0].Buckets(); i++ {
		if latSeries[0].CountAt(i) == 0 {
			continue
		}
		res.Times = append(res.Times, latSeries[0].BucketTime(i)+b.Bucket/2)
		res.Latency = append(res.Latency, latSeries[0].Mean(i))
		res.MisroutedPct = append(res.MisroutedPct, misSeries[0].Mean(i))
	}
	return res, nil
}

// forEachRun is the one pool every multi-run entry point (SweepSteady's
// grid, RunTransient's seeds) runs through: it runs f(0..tasks-1) with
// the per-run shard worker count and checks b.Ctx before every task.
// The worker request is c.Router.Workers, else b.Workers; 0 splits
// GOMAXPROCS automatically (planWorkers).
func forEachRun(c Config, b Budget, tasks int, f func(i, workers int) error) error {
	requested := c.Router.Workers
	if requested == 0 {
		requested = b.Workers
	}
	if requested == 0 && !autoShardable(c.Router) {
		requested = 1
	}
	perRun, taskWorkers := planWorkers(requested, tasks)
	return forEachTaskN(tasks, taskWorkers, func(i int) error {
		if err := ctxErr(b.Ctx); err != nil {
			return err
		}
		return f(i, perRun)
	})
}

// autoShardable reports whether a run with this router config may be
// sharded by the automatic worker split: router.Build rejects Workers >
// 1 for configs whose cross-shard packet handoffs would not be
// barrier-ordered (PipelineLatency + LatencyGlobal must exceed
// PacketSize), so auto mode must keep such configs sequential — they
// were valid sequential sweeps before sharding existed and must stay
// so on every core count. An explicit Workers > 1 request still
// surfaces the Build error, since the caller asked for the impossible.
func autoShardable(rc router.Config) bool {
	return rc.PipelineLatency+rc.LatencyGlobal > rc.PacketSize
}

// planWorkers splits GOMAXPROCS between grid tasks and intra-run shard
// workers: a grid at least GOMAXPROCS wide keeps each run sequential
// (grid parallelism already saturates the machine), a narrower grid
// hands the idle cores to each run as shard workers. An explicit
// requested count (> 0) is honored up to GOMAXPROCS — the sweep pool
// never oversubscribes the machine, so a -workers request beyond the
// core count is clamped (unlike a direct BuildNetwork, which takes the
// config verbatim); the task pool is then sized so tasks × per-run
// workers never exceeds GOMAXPROCS.
func planWorkers(requested, tasks int) (perRun, taskWorkers int) {
	maxProcs := runtime.GOMAXPROCS(0)
	perRun = requested
	if perRun <= 0 {
		perRun = maxProcs / tasks
		if perRun < 1 {
			perRun = 1
		}
	}
	if perRun > maxProcs {
		perRun = maxProcs
	}
	taskWorkers = maxProcs / perRun
	if taskWorkers < 1 {
		taskWorkers = 1
	}
	return perRun, taskWorkers
}

// forEachTaskN runs f(0..n-1) on a pool of `workers` goroutines and
// returns the first error; it is the pool underneath forEachRun, sized
// so tasks × per-run shard workers stays within GOMAXPROCS. A panicking
// task is recovered in its worker and converted to an error carrying
// the panic value and stack, which — like any task error — cancels the
// tasks not yet started and is returned to the caller; sibling workers
// finish their current task and exit rather than wedging mid-sweep.
func forEachTaskN(n, workers int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sim: task %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		return f(i)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				bad := ferr != nil
				mu.Unlock()
				if bad || i >= n {
					return
				}
				if err := run(i); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}

// MeanSaturatedContention runs the §VI-A diagnostic: uniform traffic at
// the given (over)load with the Base mechanism, returning the mean
// contention-counter value per output port averaged over the b.Measure
// cycles that follow a b.Warmup-cycle warmup, for the first repeat's
// seed. Under saturation the paper estimates it at the mean number of
// VCs per input port (2.74 for the Table I router). b.Ctx cancels the
// run at bucket granularity.
func MeanSaturatedContention(c Config, load float64, b Budget) (float64, error) {
	c.Algo = routing.Base
	seed := seedFor(0)
	net, err := BuildNetwork(c, seed)
	if err != nil {
		return 0, err
	}
	pat, err := UN().Pattern(net.Topo)
	if err != nil {
		return 0, err
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), load, seed)
	if err != nil {
		return 0, err
	}
	// The run steps every cycle, deliberately un-elided: at a saturating
	// load the network is never quiet (so elision could not fire anyway),
	// and the sampling phase reads the contention counters once per
	// cycle — its observable is the per-cycle trajectory itself, which a
	// clock jump would undersample.
	var acc stats.Welford
	ports := float64(net.Topo.Radix())
	for cyc := int64(0); cyc < b.Warmup+b.Measure; cyc++ {
		if cyc%adaptiveBucket == 0 {
			if err := ctxErr(b.Ctx); err != nil {
				return 0, err
			}
		}
		inj.Cycle()
		net.Step()
		if cyc < b.Warmup {
			continue
		}
		for _, r := range net.Routers {
			acc.Add(float64(r.Contention.Sum()) / ports)
		}
	}
	return acc.Mean(), nil
}
