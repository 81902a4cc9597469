package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"cbar"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/stats"
	"cbar/internal/traffic"
)

// The traced run rebuilds each workload from the layer entry points
// (routing.New, router.Build, traffic.NewInjector/NewSourceInjector,
// Injector.Cycle, Network.Step) and times every call into them from
// here, so no simulator package carries tracing code. It reproduces
// the sim package's measurement loops statement for statement — the
// fixed-window loop and the adaptive engine, elision included — and
// its result digest must equal the untraced run's, which is what makes
// the per-layer numbers describe the run the end-to-end numbers time.

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// clock returns monotonic nanoseconds since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// hookSlot accumulates one router's routing-hook activity. Hooks run
// on the goroutine of the shard that owns the router, so each slot has
// a single writer per section and the stepper's barriers order it
// before the reads at the end of the run.
type hookSlot struct {
	routeNs int64 // inside Route
	hookNs  int64 // inside any per-router hook, Route included
	routes  uint64
	grants  uint64
	_       [32]byte // one cache line per slot: shards never share a line
}

// timedAlg decorates a router.Algorithm with per-hook timing. It
// forwards the optional router.CycleHorizon and router.StateChecker
// extensions: without the first, ElideHorizon would see a policy with
// no horizon and silently never elide.
type timedAlg struct {
	inner   router.Algorithm
	slots   []hookSlot
	beginNs int64 // BeginCycle runs at the stepper's sequential point
}

var (
	_ router.CycleHorizon = (*timedAlg)(nil)
	_ router.StateChecker = (*timedAlg)(nil)
)

func newTimedAlg(inner router.Algorithm) *timedAlg { return &timedAlg{inner: inner} }

func (t *timedAlg) Name() string { return t.inner.Name() }

func (t *timedAlg) Attach(n *router.Network) {
	t.slots = make([]hookSlot, len(n.Routers))
	t.inner.Attach(n)
}

func (t *timedAlg) BeginCycle(n *router.Network) {
	t0 := clock()
	t.inner.BeginCycle(n)
	t.beginNs += clock() - t0
}

func (t *timedAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	t0 := clock()
	req := t.inner.Route(r, p, port, vc)
	d := clock() - t0
	s := &t.slots[r.ID]
	s.routes++
	s.routeNs += d
	s.hookNs += d
	return req
}

func (t *timedAlg) OnArrive(r *router.Router, p *router.Packet, port, vc int) {
	t0 := clock()
	t.inner.OnArrive(r, p, port, vc)
	t.slots[r.ID].hookNs += clock() - t0
}

func (t *timedAlg) OnHead(r *router.Router, p *router.Packet, port, vc int) {
	t0 := clock()
	t.inner.OnHead(r, p, port, vc)
	t.slots[r.ID].hookNs += clock() - t0
}

func (t *timedAlg) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	t0 := clock()
	t.inner.OnGrant(r, p, port, vc, out, outVC)
	s := &t.slots[r.ID]
	s.grants++
	s.hookNs += clock() - t0
}

func (t *timedAlg) OnDequeue(r *router.Router, p *router.Packet, port, vc int) {
	t0 := clock()
	t.inner.OnDequeue(r, p, port, vc)
	t.slots[r.ID].hookNs += clock() - t0
}

// NextAlgCycle forwards the elision horizon; a policy without one
// vetoes elision, exactly as if it were not wrapped.
func (t *timedAlg) NextAlgCycle(n *router.Network) (int64, bool) {
	if h, ok := t.inner.(router.CycleHorizon); ok {
		return h.NextAlgCycle(n)
	}
	return n.Now(), false
}

// CheckState forwards the event-driven state audit.
func (t *timedAlg) CheckState(n *router.Network) error {
	if c, ok := t.inner.(router.StateChecker); ok {
		return c.CheckState(n)
	}
	return nil
}

// span is one timed call: start on the benchmark clock and duration.
type span struct{ Start, Dur int64 }

// taskTrace is the in-memory trace of one (load, seed) grid task.
type taskTrace struct {
	Load    float64
	Seed    uint64
	BuildNs int64
	LoopNs  int64  // wall time of the cycle loop
	Steps   []span // one per Network.Step
	InjNs   int64  // inside Injector.Cycle
	Cycles  int64  // simulated, elided ones included
	Elided  int64
	// Observed over the whole run, warmup included.
	InFlightSum int64
	Delivered   uint64
	MisroutedG  uint64
	HeapPeak    uint64
	// Final fabric and injector counters.
	Generated, Blocked, Marked, Shed, Dropped, Throttled, Retried uint64
	alg                                                           *timedAlg
}

// newHeapSample is the sample heapSample reads.
func newHeapSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

// heapSample reads the live-plus-unswept heap object bytes.
func heapSample(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runner runs one traced task: the injector/network pair and its trace.
type runner struct {
	net  *router.Network
	inj  *traffic.Injector
	tr   *taskTrace
	heap []metrics.Sample
}

// step runs one iteration of the sim package's cycle loops: jump a
// quiet span capped at bound (sim.elideStep), or else one timed
// Injector.Cycle and Network.Step.
func (d *runner) step(bound int64) {
	now := d.net.Now()
	if j, ok := d.net.ElideHorizon(bound); ok {
		if a := d.inj.NextArrival(j - 1); a < j {
			j = a
		}
		if j > now {
			d.net.ElideTo(j)
			d.tr.Elided += j - now
			d.tr.Cycles += j - now
			return
		}
	}
	t0 := clock()
	d.inj.Cycle()
	t1 := clock()
	d.net.Step()
	t2 := clock()
	d.tr.InjNs += t1 - t0
	d.tr.Steps = append(d.tr.Steps, span{t1, t2 - t1})
	d.tr.Cycles++
	d.tr.InFlightSum += d.net.InFlight
	if len(d.tr.Steps)%64 == 0 {
		d.tr.HeapPeak = max(d.tr.HeapPeak, heapSample(d.heap))
	}
}

// Constants of the sim package's measurement engine, mirrored.
const (
	latencyHistCap            = 1 << 15
	adaptiveBucket            = 25
	adaptiveCheckEvery        = 5
	adaptiveMSERBatch         = 5
	adaptiveMinWarmupBuckets  = 8 * adaptiveMSERBatch
	adaptiveBatches           = 20
	adaptiveMinMeasureBuckets = 2 * adaptiveBatches
	satWindow                 = 30
	satBurstPeriods           = 3
	satBlockedFrac            = 0.05
	satGrowthFrac             = 0.5
	satConsecutive            = 2
)

// seedFor mirrors the sim package's run seed of repeat i.
func seedFor(i int) uint64 { return uint64(i)*0x1000003 + 1 }

// seedResult is one task's result before the cross-seed reduction.
type seedResult struct {
	r    cbar.SteadyResult
	hist *stats.Histogram
}

// buildTask builds one task's network around a timed algorithm, and its
// injector, exactly as the sim package builds a steady-state seed.
func buildTask(s spec, workers int, load float64, seed uint64) (*runner, error) {
	c := s.simConfig(workers)
	alg, err := routing.New(c.Algo, c.Opts)
	if err != nil {
		return nil, err
	}
	ta := newTimedAlg(alg)
	t0 := clock()
	net, err := router.Build(c.Router, ta, seed)
	if err != nil {
		return nil, err
	}
	tr := &taskTrace{Load: load, Seed: seed, BuildNs: clock() - t0, alg: ta}
	inj, err := newInjector(s, net, load, seed^injSeedMix)
	if err != nil {
		return nil, err
	}
	return &runner{net: net, inj: inj, tr: tr, heap: newHeapSample()}, nil
}

// newInjector builds the workload's injector: the Bernoulli skip-sampler
// for homogeneous sources, the calendar injector otherwise.
func newInjector(s spec, net *router.Network, load float64, seed uint64) (*traffic.Injector, error) {
	pat, err := s.workload.Pattern(net.Topo)
	if err != nil {
		return nil, err
	}
	src := s.workload.Source
	if !src.Bursty && src.SkewFrac == 0 {
		return traffic.NewInjector(net, traffic.Constant(pat), load, seed)
	}
	spec := traffic.SourceSpec{Kind: traffic.OnOffArrivals, OnMean: src.OnMean, OffMean: src.OffMean, PeakLoad: src.PeakLoad}
	return traffic.NewSourceInjector(net, traffic.Constant(pat), load, seed, spec)
}

// finish records the end-of-run counters.
func (d *runner) finish() {
	n, tr := d.net, d.tr
	tr.Generated, tr.Blocked = n.NumGenerated, n.NumBlocked
	tr.Marked, tr.Shed, tr.Dropped = n.NumMarked, n.NumShed, n.NumDropped
	tr.Throttled, tr.Retried = d.inj.Throttled(), d.inj.Retried()
	tr.HeapPeak = max(tr.HeapPeak, heapSample(d.heap))
}

// observer accumulates the delivery statistics of a measurement window.
type observer struct {
	hist                       *stats.Histogram
	hops                       stats.Welford
	phits, misG, misL, counted uint64
}

func newObserver() *observer { return &observer{hist: stats.NewHistogram(latencyHistCap)} }

func (o *observer) add(p *router.Packet, lat int64) {
	o.hist.Add(lat)
	o.hops.Add(float64(p.TotalHops))
	o.phits += uint64(p.Size)
	if p.GlobalMisroute {
		o.misG++
	}
	if p.LocalMisroutes > 0 {
		o.misL++
	}
	o.counted++
}

// counters snapshots the fabric counters a result reports as deltas.
type counters struct {
	busyLocal, busyGlobal                                           int64
	marked, notified, shed, throttled, dropped, retried, unroutable uint64
}

func (d *runner) counters() counters {
	_, bl, bg := d.net.LinkBusy()
	n := d.net
	return counters{bl, bg, n.NumMarked, n.NumNotified, n.NumShed,
		d.inj.Throttled(), n.NumDropped, d.inj.Retried(), n.NumUnroutable}
}

// result assembles a seed's result the way the sim package does.
func (d *runner) result(s spec, load float64, o *observer, c0 counters, measure, warm int64) cbar.SteadyResult {
	c1 := d.counters()
	_, nLocal, nGlobal := d.net.LinkCounts()
	nodes := float64(d.net.Topo.Nodes)
	r := cbar.SteadyResult{
		Algo:           s.simAlg.String(),
		Workload:       s.workload.Name(),
		Load:           load,
		Accepted:       float64(o.phits) / (float64(measure) * nodes),
		Delivered:      o.counted,
		AvgHops:        o.hops.Mean(),
		UtilLocal:      float64(c1.busyLocal-c0.busyLocal) / (float64(measure) * float64(nLocal)),
		UtilGlobal:     float64(c1.busyGlobal-c0.busyGlobal) / (float64(measure) * float64(nGlobal)),
		Seeds:          1,
		MeasuredCycles: measure,
		WarmupCycles:   warm,
		Marked:         c1.marked - c0.marked,
		Notified:       c1.notified - c0.notified,
		Throttled:      c1.throttled - c0.throttled,
		Shed:           c1.shed - c0.shed,
		Dropped:        c1.dropped - c0.dropped,
		Retried:        c1.retried - c0.retried,
		Unroutable:     c1.unroutable - c0.unroutable,
	}
	if o.counted > 0 {
		r.MisroutedGlobal = float64(o.misG) / float64(o.counted)
		r.MisroutedLocal = float64(o.misL) / float64(o.counted)
	}
	return r
}

// observeAll counts every delivery for the routing-layer misroute share.
func (d *runner) observeAll(p *router.Packet) {
	d.tr.Delivered++
	if p.GlobalMisroute {
		d.tr.MisroutedG++
	}
}

// fixed mirrors the sim package's fixed-window steady-state loop.
func (d *runner) fixed(s spec, load float64, warmup, measure int64) seedResult {
	o := newObserver()
	d.net.OnDeliver = func(p *router.Packet, now int64) {
		d.observeAll(p)
		if now < warmup {
			return
		}
		o.add(p, now-p.GenTime)
	}
	var c0 counters
	for cyc := d.net.Now(); cyc < warmup+measure; cyc = d.net.Now() {
		if cyc == warmup {
			c0 = d.counters()
		}
		bound := warmup + measure
		if cyc < warmup {
			bound = warmup
		}
		d.step(bound)
	}
	return seedResult{d.result(s, load, o, c0, measure, warmup), o.hist}
}

// satDetector mirrors the sim package's saturation short-circuit.
type satDetector struct {
	nodes                     float64
	window                    int
	inflight, blocked, offers []float64
	lastBlk, lastOff          uint64
	hits                      int
}

func newSatDetector(net *router.Network, src sim.SourceSpec) *satDetector {
	d := &satDetector{nodes: float64(net.Topo.Nodes), window: satWindow}
	if src.Bursty {
		period := src.OnMean + src.OffMean
		if w := int(math.Ceil(satBurstPeriods * period / adaptiveBucket)); w > d.window {
			d.window = w
		}
	}
	return d
}

func (d *satDetector) sample(net *router.Network) {
	off := net.NumGenerated + net.NumBlocked
	d.inflight = append(d.inflight, float64(net.InFlight))
	d.blocked = append(d.blocked, float64(net.NumBlocked-d.lastBlk))
	d.offers = append(d.offers, float64(off-d.lastOff))
	d.lastBlk = net.NumBlocked
	d.lastOff = off
}

func (d *satDetector) saturated() bool {
	n := len(d.inflight)
	if n < d.window {
		return false
	}
	win := d.inflight[n-d.window:]
	meanIF := stats.Mean(win)
	growth := stats.TrendSlope(win) * float64(d.window)
	var blk, off float64
	for i := n - d.window; i < n; i++ {
		blk += d.blocked[i]
		off += d.offers[i]
	}
	growing := growth > satGrowthFrac*meanIF && meanIF > d.nodes
	throttled := off > 0 && blk/off > satBlockedFrac
	if growing || throttled {
		d.hits++
	} else {
		d.hits = 0
	}
	return d.hits >= satConsecutive
}

// adaptive mirrors the sim package's adaptive engine: MSER warmup
// truncation, batch-means CI stopping and the saturation short-circuit.
func (d *runner) adaptive(s spec, load float64, b sim.Budget) seedResult {
	nodes := float64(d.net.Topo.Nodes)
	o := newObserver()
	var bSum float64
	var bCnt, bPhits uint64
	d.net.OnDeliver = func(p *router.Packet, now int64) {
		d.observeAll(p)
		lat := now - p.GenTime
		bSum += float64(lat)
		bCnt++
		bPhits += uint64(p.Size)
		o.add(p, lat)
	}
	var cyc int64
	runBucket := func() {
		bSum, bCnt, bPhits = 0, 0, 0
		end := d.net.Now() + adaptiveBucket
		for d.net.Now() < end {
			d.step(end)
		}
		cyc += adaptiveBucket
	}
	sat := newSatDetector(d.net, s.workload.Source)
	saturated := false

	var warmSeries []float64
	lastMean := 0.0
	for warmupDone := false; !warmupDone && !saturated; {
		runBucket()
		sat.sample(d.net)
		if bCnt > 0 {
			lastMean = bSum / float64(bCnt)
		}
		warmSeries = append(warmSeries, lastMean)
		if len(warmSeries)%adaptiveCheckEvery == 0 {
			if sat.saturated() {
				saturated = true
				break
			}
			if len(warmSeries) >= adaptiveMinWarmupBuckets {
				if _, ok := stats.MSERTruncate(warmSeries, adaptiveMSERBatch); ok {
					warmupDone = true
				}
			}
		}
		if cyc >= b.Warmup {
			warmupDone = true
		}
	}

	truncWarm := cyc
	var c0 counters
	var ciLat, ciAcc float64
	converged := false
	measStart := cyc
	if !saturated {
		o = newObserver()
		c0 = d.counters()
		var latB, thrB []float64
		for buckets := 1; ; buckets++ {
			runBucket()
			sat.sample(d.net)
			if bCnt > 0 {
				latB = append(latB, bSum/float64(bCnt))
			}
			thrB = append(thrB, float64(bPhits)/(adaptiveBucket*nodes))
			if buckets%adaptiveCheckEvery == 0 {
				if sat.saturated() {
					saturated = true
					break
				}
				if buckets >= adaptiveMinMeasureBuckets {
					lm, lh, ok1 := stats.BatchMeansCI(latB, adaptiveBatches)
					tm, th, ok2 := stats.BatchMeansCI(thrB, adaptiveBatches)
					if ok1 && ok2 {
						ciLat, ciAcc = lh, th
					}
					batchCycles := float64(buckets/adaptiveBatches) * adaptiveBucket
					if ok1 && ok2 && lm > 0 && tm > 0 && 2*batchCycles >= lm &&
						lh <= b.CIRelWidth*lm && th <= b.CIRelWidth*tm {
						converged = true
						break
					}
				}
			}
			if int64(buckets)*adaptiveBucket >= b.MaxMeasure {
				break
			}
		}
	}
	measure := cyc - measStart
	if measure == 0 {
		measure = cyc
		truncWarm = 0
	}
	r := d.result(s, load, o, c0, measure, truncWarm)
	r.CIHalfLatency, r.CIHalfAccepted = ciLat, ciAcc
	r.Saturated, r.Converged = saturated, converged
	return seedResult{r, o.hist}
}

// reduce mirrors the sim package's cross-seed reduction: scalars are
// averaged, histograms merged, measurement accounting summed.
func reduce(rs []seedResult) cbar.SteadyResult {
	out := rs[0].r
	merged := rs[0].hist
	var acc, misG, misL, hops, utilL, utilG float64
	var delivered uint64
	for i, sr := range rs {
		r := sr.r
		acc += r.Accepted
		misG += r.MisroutedGlobal
		misL += r.MisroutedLocal
		hops += r.AvgHops
		utilL += r.UtilLocal
		utilG += r.UtilGlobal
		delivered += r.Delivered
		if i > 0 {
			merged.Merge(sr.hist)
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
	out.MeasuredCycles, out.WarmupCycles = 0, 0
	out.Saturated, out.Converged = false, true
	out.Marked, out.Notified, out.Throttled, out.Shed = 0, 0, 0, 0
	out.Dropped, out.Retried, out.Unroutable = 0, 0, 0
	var ciLat2, ciAcc2 float64
	var warm int64
	for _, sr := range rs {
		r := sr.r
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

// runTraced runs the workload through the layer entry points on the
// same task pool shape as the sweep (sim.planWorkers) and returns the
// reduced results with every task's trace.
func runTraced(s spec, in inputs, procs int) ([]cbar.SteadyResult, []*taskTrace, error) {
	b := s.budget()
	perRun, taskWorkers, tasks := s.plan(procs)
	loads := in.loads
	results := make([]seedResult, tasks)
	traces := make([]*taskTrace, tasks)
	errs := make([]error, tasks)
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < min(taskWorkers, tasks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= tasks {
					return
				}
				load := loads[k/b.Seeds]
				d, err := buildTask(s, perRun, load, seedFor(k%b.Seeds))
				if err != nil {
					errs[k] = err
					continue
				}
				t0 := clock()
				if b.Adaptive {
					results[k] = d.adaptive(s, load, b)
				} else {
					results[k] = d.fixed(s, load, b.Warmup, b.Measure)
				}
				d.tr.LoopNs = clock() - t0
				d.finish()
				traces[k] = d.tr
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	out := make([]cbar.SteadyResult, len(loads))
	for li := range loads {
		out[li] = reduce(results[li*b.Seeds : (li+1)*b.Seeds])
	}
	return out, traces, nil
}
