package sim

import (
	"math"

	"cbar/internal/router"
	"cbar/internal/stats"
)

// Adaptive measurement engine. Instead of the paper's fixed
// warmup+measure windows, an adaptive steady-state run spends cycles
// only where the statistics demand them:
//
//  1. Warmup truncation: the run streams per-bucket mean delivery
//     latency and applies the MSER rule (stats.MSERTruncate) until the
//     detected truncation point is well inside the collected series —
//     the initialization transient is over. Budget.Warmup caps the
//     phase, so adaptive warmup never exceeds the fixed budget's.
//  2. CI-driven stopping: measurement then proceeds bucket by bucket,
//     maintaining batch-means 95% confidence intervals (fixed batch
//     count, growing batch size) on mean latency and throughput. The
//     run stops when both relative half-widths drop below
//     Budget.CIRelWidth — with a guard that a batch spans at least one
//     mean latency, so neighboring batches are roughly decorrelated —
//     or when Budget.MaxMeasure cycles have been spent.
//  3. Saturation short-circuit: a point past its saturation load never
//     converges — backlog grows without bound until the NIC queues fill
//     and then the sources throttle. The detector watches the in-flight
//     packet population trend and the blocked-injection fraction over a
//     trailing window and bails out early, marking the result
//     Saturated, instead of spending the full cycle cap.
//
// All knobs below are in buckets of adaptiveBucket cycles. They trade
// statistical delicacy for simplicity; the point of the engine is not a
// perfect estimator but spending ~the right order of cycles per point,
// with the fixed-window path left untouched as the reproducible default.
const (
	// adaptiveBucket is the time-series bucket width in cycles.
	adaptiveBucket = 25
	// adaptiveCheckEvery is the bucket stride between stopping-rule and
	// saturation checks.
	adaptiveCheckEvery = 5
	// adaptiveMSERBatch is the MSER batch size in buckets (MSER-5).
	adaptiveMSERBatch = 5
	// adaptiveMinWarmupBuckets is the minimum warmup series length
	// before the first MSER check (8 MSER batches).
	adaptiveMinWarmupBuckets = 8 * adaptiveMSERBatch
	// adaptiveBatches is the fixed batch count of the batch-means CI.
	adaptiveBatches = 20
	// adaptiveMinMeasureBuckets is the minimum measurement series length
	// before the first CI check (2 buckets per batch).
	adaptiveMinMeasureBuckets = 2 * adaptiveBatches
	// satWindow is the saturation detector's default trailing window in
	// buckets; a bursty source spec widens it to cover several ON+OFF
	// periods (newSatDetector).
	satWindow = 30
	// satBurstPeriods is how many source ON+OFF periods the widened
	// window must cover under a bursty spec: shorter windows alias the
	// periodic backlog breathing of long phases as unbounded growth.
	satBurstPeriods = 3
	// satBlockedFrac is the blocked-injection fraction above which the
	// sources are considered throttled by full NIC queues.
	satBlockedFrac = 0.05
	// satGrowthFrac is the relative in-flight growth over the trailing
	// window that counts as unbounded backlog accumulation.
	satGrowthFrac = 0.5
	// satConsecutive is how many consecutive positive checks the
	// detector needs before declaring saturation, so a single burst or
	// transient spike cannot short-circuit a healthy run.
	satConsecutive = 2
)

// satDetector watches for the two signatures of an offered load past the
// saturation point: the in-flight packet population growing without
// bound (queues filling), and — once the bounded NIC queues are full and
// backlog can no longer grow — a persistent fraction of generation
// attempts being refused (sources throttled). Samples are taken once
// per bucket; the decision looks at a trailing window and must fire on
// consecutive checks.
type satDetector struct {
	nodes float64
	// window is the trailing decision window in buckets: satWindow for
	// memoryless sources, widened to satBurstPeriods ON+OFF periods for
	// bursty ones (a window shorter than the source period sees the ON
	// phase's backlog ramp as monotone growth and the OFF phase's
	// blocked spike as throttling, and false-positives on healthy runs).
	window   int
	inflight []float64
	blocked  []float64
	offered  []float64
	lastBlk  uint64
	lastOff  uint64
	hits     int
}

func newSatDetector(net *router.Network, src SourceSpec) *satDetector {
	d := &satDetector{nodes: float64(net.Topo.Nodes), window: satWindow}
	if src.Bursty {
		period := src.OnMean + src.OffMean
		if w := int(math.Ceil(satBurstPeriods * period / adaptiveBucket)); w > d.window {
			d.window = w
		}
	}
	return d
}

// sample records the bucket-end backlog and the bucket's injection
// acceptance deltas.
func (d *satDetector) sample(net *router.Network) {
	off := net.NumGenerated + net.NumBlocked
	d.inflight = append(d.inflight, float64(net.InFlight))
	d.blocked = append(d.blocked, float64(net.NumBlocked-d.lastBlk))
	d.offered = append(d.offered, float64(off-d.lastOff))
	d.lastBlk = net.NumBlocked
	d.lastOff = off
}

// saturated evaluates the trailing window; call once per check stride.
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
		off += d.offered[i]
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

// adaptive runs the seed under the adaptive engine: warmup ends when
// MSER says the transient is over (capped by b.Warmup), measurement
// ends when the batch-means CIs hit b.CIRelWidth (capped by
// b.MaxMeasure), and the saturation detector can cut either phase
// short.
func (s *steadySeed) adaptive(b Budget, src SourceSpec) (SteadyResult, error) {
	net := s.net
	nodes := float64(net.Topo.Nodes)
	sat := newSatDetector(net, src)
	// bucket runs one adaptiveBucket-cycle bucket. Jumps are capped at
	// the bucket boundary, so every bucket's bookkeeping (series
	// entries, saturation samples) still runs; an elided sub-span
	// delivers nothing, so the synthesized bucket is exactly what
	// stepping it would have produced.
	bucket := func() error {
		s.bSum, s.bCnt, s.bPhits = 0, 0, 0
		if err := runTo(b.Ctx, net, s.inj, net.Now()+adaptiveBucket); err != nil {
			return err
		}
		sat.sample(net)
		return nil
	}
	saturated := false

	// Phase 1: warmup detection. The latency series carries the last
	// seen bucket mean through empty buckets — before the first delivery
	// it is zero, which MSER correctly treats as part of the transient.
	var warmSeries []float64
	lastMean := 0.0
	warmupDone := false
	for !warmupDone && !saturated {
		if err := bucket(); err != nil {
			return SteadyResult{}, err
		}
		if s.bCnt > 0 {
			lastMean = s.bSum / float64(s.bCnt)
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
		if net.Now() >= b.Warmup { // the fixed budget's warmup is the cap
			warmupDone = true
		}
	}

	// Phase boundary: everything before this cycle is discarded warmup.
	truncWarm := net.Now()
	var ciLat, ciAcc float64
	converged := false
	if !saturated {
		s.beginMeasure()

		// Phase 2: CI-driven measurement.
		var latB, thrB []float64
		for buckets := 1; ; buckets++ {
			if err := bucket(); err != nil {
				return SteadyResult{}, err
			}
			if s.bCnt > 0 {
				latB = append(latB, s.bSum/float64(s.bCnt))
			}
			thrB = append(thrB, float64(s.bPhits)/(adaptiveBucket*nodes))
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
					// The decorrelation guard: a CI batch must span at
					// least half a mean latency — the correlation
					// timescale of the bucket-mean series — or
					// neighboring batch means share in-flight packets
					// and the CI is optimistic.
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

	measure := net.Now() - truncWarm
	if measure == 0 {
		// Saturated before any measurement: report the whole run so the
		// point still carries throughput/latency evidence, flagged.
		measure = net.Now()
		truncWarm = 0
	}
	r := s.result(measure, truncWarm)
	r.CIHalfLatency, r.CIHalfAccepted = ciLat, ciAcc
	r.Saturated, r.Converged = saturated, converged
	return r, nil
}
