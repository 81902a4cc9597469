// Command perfbench is the repository benchmark. It runs one named
// workload end to end through the public cbar API and prints the
// end-to-end metrics, or (-trace 1) rebuilds the workload from the
// layer entry points with every layer call timed and prints the
// per-layer metrics. Either way it checks the simulated results: a
// digest over every result field that must repeat exactly and match the
// recorded table, plus physics bounds per workload.
//
//	go run . -workload paper_un_base -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full record (host stamp, inputs, every sample). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cbar"
	"cbar/internal/router"
	"cbar/internal/routing"
)

const (
	// procs pins GOMAXPROCS: nothing in a run uses more threads.
	procs = 2
	// setupRepeats is how many times a run builds the workload's
	// networks and injectors to time set-up (a paper-scale Build takes
	// only tens of milliseconds, so one sample is noise).
	setupRepeats = 25
	// injSeedMix derives an injector seed from its network seed, as the
	// sim package does.
	injSeedMix = 0x9E3779B97F4A7C15
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(names, " | "))
	seed := fl.Uint64("seed", 1, "workload seed; the inputs are derived from it alone")
	seconds := fl.Float64("seconds", 30, "host seconds an untraced run spends repeating the entry call")
	trace := fl.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	record := fl.String("record-digests", "", "print digests.json entries for seeds `LO-HI` of every workload (or only -workload) and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *record != "" {
		if err := recordDigests(stdout, stderr, *record, *name); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	s, ok := findSpec(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (%s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	in := s.inputs(*seed)
	var (
		rec *runRecord
		err error
	)
	if *trace == 1 {
		rec, err = tracedRun(s, in)
	} else {
		rec, err = endToEndRun(s, in, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "perfbench: FAILED CHECK:", p)
	}
	if err := printJSON(stdout, rec); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := printJSON(stdout, rec.result()); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run measured and checked.
type runRecord struct {
	Stamp    stamp     `json:"stamp"`
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Traced   bool      `json:"traced"`
	Loads    []float64 `json:"loads"`
	// Digest is the result digest every call produced; Recorded the
	// table's entry for this seed ("" when the table has none).
	Digest   string   `json:"digest"`
	Recorded string   `json:"recorded_digest"`
	Problems []string `json:"problems"`
	// Attempted counts entry calls; Failed those whose results broke a
	// check (digest, physics bound or error).
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	SetupS    []float64 `json:"setup_s_samples"`
	Calls     []call    `json:"calls"`
	// Quartiles holds [q1, median, q3] of every per-call metric.
	Quartiles map[string][3]float64 `json:"quartiles"`
	Metrics   map[string]metric     `json:"metrics"`
	TraceFile string                `json:"trace_file,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runRecord) result() result {
	return result{Correct: r.Failed == 0 && len(r.Problems) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func newRecord(s spec, in inputs, traced bool) (*runRecord, error) {
	rec := &runRecord{Stamp: newStamp(), Workload: s.name, Seed: in.seed, Traced: traced,
		Loads: in.loads, Metrics: map[string]metric{}, Quartiles: map[string][3]float64{}}
	var err error
	if rec.Recorded, err = recordedDigest(s.name, in.seed); err != nil {
		return nil, err
	}
	return rec, nil
}

// check records one entry call's outcome: an error, a physics bound
// broken, a digest differing from the run's first call or from the
// recorded table each fail the call.
func (r *runRecord) check(s spec, rs []cbar.SteadyResult, err error) {
	r.Attempted++
	var bad []string
	if err != nil {
		bad = append(bad, err.Error())
	} else {
		d := digest(rs)
		bad = append(bad, s.check(rs)...)
		switch {
		case r.Digest == "":
			r.Digest = d
		case d != r.Digest:
			bad = append(bad, fmt.Sprintf("digest %s differs from the run's first %s", d, r.Digest))
		}
		if r.Recorded != "" && d != r.Recorded {
			bad = append(bad, fmt.Sprintf("digest %s differs from recorded %s", d, r.Recorded))
		}
	}
	if len(bad) > 0 {
		r.Failed++
		r.Problems = append(r.Problems, bad...)
	}
}

// call is one timed, untraced entry call.
type call struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	Allocs uint64  `json:"allocs"`
	Cycles int64   `json:"cycles"`
	// PeakRSSMB is the call's peak resident set.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rusage returns the process's user+sys CPU seconds and peak RSS in MB.
func rusage() (cpuS, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS mark, so the next peakRSS covers only what follows. It
// reports false where the mark cannot be reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS reads the peak resident set in MB since the last reset
// (VmHWM), or the process-lifetime peak where that is unavailable.
func peakRSS(reset bool) float64 {
	if reset {
		if b, err := os.ReadFile("/proc/self/status"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	_, mb := rusage()
	return mb
}

// setupOnce builds every network and injector the workload's entry call
// builds, with the untimed algorithm, and reports the total seconds,
// the seconds inside router.Build and the heap allocations.
func setupOnce(s spec, in inputs) (total, build float64, allocs uint64, err error) {
	perRun, _, tasks := s.plan(procs)
	seeds := s.budget().Seeds
	runtime.GC()
	a0 := heapAllocs()
	t0 := clock()
	var buildNs int64
	for k := 0; k < tasks; k++ {
		c := s.simConfig(perRun)
		alg, err := routing.New(c.Algo, c.Opts)
		if err != nil {
			return 0, 0, 0, err
		}
		tb := clock()
		net, err := router.Build(c.Router, alg, seedFor(k%seeds))
		buildNs += clock() - tb
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := newInjector(s, net, in.loads[k/seeds], seedFor(k%seeds)^injSeedMix); err != nil {
			return 0, 0, 0, err
		}
	}
	total = float64(clock()-t0) / 1e9
	return total, float64(buildNs) / 1e9, heapAllocs() - a0, nil
}

// setup times setupRepeats set-ups; it returns the per-sample totals,
// the median Build-only seconds and the median allocations.
func setup(s spec, in inputs) (totals []float64, build float64, allocs float64, err error) {
	var builds, as []float64
	for i := 0; i < setupRepeats; i++ {
		t, b, a, err := setupOnce(s, in)
		if err != nil {
			return nil, 0, 0, err
		}
		totals = append(totals, t)
		builds = append(builds, b)
		as = append(as, float64(a))
	}
	return totals, quartiles(builds)[1], quartiles(as)[1], nil
}

// publicCall times one untraced entry call. Each call starts from a
// collected heap with freed memory returned to the OS, so its peak RSS
// is its own.
func publicCall(s spec, in inputs) (call, []cbar.SteadyResult, error) {
	reset := resetPeakRSS()
	a0 := heapAllocs()
	cpu0, _ := rusage()
	t0 := time.Now()
	rs, err := s.runPublic(in)
	wall := time.Since(t0).Seconds()
	cpu1, _ := rusage()
	c := call{WallS: wall, CPUS: cpu1 - cpu0, Allocs: heapAllocs() - a0, PeakRSSMB: peakRSS(reset)}
	if err == nil {
		c.Cycles = simulatedCycles(rs)
	}
	return c, rs, err
}

// endToEndRun measures the workload untraced: set-up, one warm-up entry
// call (checked, not timed), then entry calls repeated until the next
// one would overrun the time budget (at least one), every call checked.
func endToEndRun(s spec, in inputs, seconds float64) (*runRecord, error) {
	rec, err := newRecord(s, in, false)
	if err != nil {
		return nil, err
	}
	if rec.SetupS, _, _, err = setup(s, in); err != nil {
		return nil, err
	}
	start := time.Now()
	_, rs, err := publicCall(s, in)
	rec.check(s, rs, err)
	var walls []float64
	for {
		c, rs, err := publicCall(s, in)
		rec.check(s, rs, err)
		rec.Calls = append(rec.Calls, c)
		walls = append(walls, c.WallS)
		if time.Since(start).Seconds()+quartiles(walls)[1] > seconds {
			break
		}
	}
	per := map[string][]float64{}
	for _, c := range rec.Calls {
		cyc := float64(max(c.Cycles, 1))
		per["wall_s"] = append(per["wall_s"], c.WallS)
		per["cpu_s"] = append(per["cpu_s"], c.CPUS)
		per["sim_cycles_per_s"] = append(per["sim_cycles_per_s"], cyc/c.WallS)
		per["allocs_per_cycle"] = append(per["allocs_per_cycle"], float64(c.Allocs)/cyc)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], c.PeakRSSMB)
	}
	per["setup_s"] = rec.SetupS
	units := map[string]string{"wall_s": "s", "cpu_s": "s", "sim_cycles_per_s": "cycles/s",
		"allocs_per_cycle": "count", "peak_rss_mb": "MB", "setup_s": "s"}
	for k, v := range per {
		q := quartiles(v)
		rec.Quartiles[k] = q
		rec.Metrics[k] = metric{q[1], units[k]}
	}
	return rec, nil
}

// tracedRun measures the per-layer metrics: set-up (for router.build_s),
// one untraced entry call (the reference digest and wall time), then
// the traced rebuild, whose digest must match.
func tracedRun(s spec, in inputs) (*runRecord, error) {
	rec, err := newRecord(s, in, true)
	if err != nil {
		return nil, err
	}
	var buildS, setupAllocs float64
	if rec.SetupS, buildS, setupAllocs, err = setup(s, in); err != nil {
		return nil, err
	}
	c, rs, err := publicCall(s, in)
	rec.check(s, rs, err)
	rec.Calls = append(rec.Calls, c)

	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rt0 := make([]metrics.Sample, len(rt))
	copy(rt0, rt)
	runtime.GC()
	metrics.Read(rt0)
	cpu0, _ := rusage()
	t0 := time.Now()
	trs, traces, err := runTraced(s, in, procs)
	wall := time.Since(t0).Seconds()
	cpu1, _ := rusage()
	metrics.Read(rt)
	rec.check(s, trs, err)
	if err != nil {
		return rec, nil
	}

	rec.Metrics = layerMetrics(traces, trs, s)
	add := func(name string, v float64, unit string) { rec.Metrics[name] = metric{v, unit} }
	steps := rec.Metrics["router.step_samples"].Value
	loopAllocs := float64(rt[0].Value.Uint64()-rt0[0].Value.Uint64()) - setupAllocs
	add("router.build_s", buildS, "s")
	add("router.allocs_per_step", max(loopAllocs, 0)/max(steps, 1), "count")
	add("router.parallel_cores", (cpu1-cpu0)/wall, "cores")
	add("runtime.gc_cycles", float64(rt[1].Value.Uint64()-rt0[1].Value.Uint64()), "count")
	if dt := rt[3].Value.Float64() - rt0[3].Value.Float64(); dt > 0 {
		add("runtime.gc_cpu_frac", (rt[2].Value.Float64()-rt0[2].Value.Float64())/dt, "fraction")
	} else {
		add("runtime.gc_cpu_frac", 0, "fraction")
	}
	add("trace.untraced_wall_s", c.WallS, "s")
	add("trace.traced_wall_s", wall, "s")
	add("trace.overhead_s", wall-c.WallS, "s")
	rec.TraceFile, err = writeTrace(s, in, rec.Stamp, traces)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// layerMetrics aggregates the task traces into the per-layer metrics
// that need no run-level counters.
func layerMetrics(traces []*taskTrace, rs []cbar.SteadyResult, s spec) map[string]metric {
	perRun, _, _ := s.plan(procs)
	var (
		stepUs                              []float64
		selfNs, injNs, loopNs               int64
		routeNs, beginNs                    int64
		routes, grants                      uint64
		cycles, elided, inflight            int64
		delivered, misG, gen, blocked       uint64
		marked, shed, dropped, thr, retried uint64
		heapPeak                            uint64
	)
	for _, t := range traces {
		var tStep, tHook int64
		for _, sp := range t.Steps {
			stepUs = append(stepUs, float64(sp.Dur)/1e3)
			tStep += sp.Dur
		}
		for _, sl := range t.alg.slots {
			tHook += sl.hookNs
			routeNs += sl.routeNs
			routes += sl.routes
			grants += sl.grants
		}
		// Per-router hooks run on the shard workers concurrently; their
		// summed time is divided by the worker count to estimate the
		// share of the Step interval they cover (exact at one worker).
		selfNs += tStep - t.alg.beginNs - tHook/int64(perRun)
		beginNs += t.alg.beginNs
		injNs += t.InjNs
		loopNs += t.LoopNs
		cycles += t.Cycles
		elided += t.Elided
		inflight += t.InFlightSum
		delivered += t.Delivered
		misG += t.MisroutedG
		gen += t.Generated
		blocked += t.Blocked
		marked += t.Marked
		shed += t.Shed
		dropped += t.Dropped
		thr += t.Throttled
		retried += t.Retried
		heapPeak = max(heapPeak, t.HeapPeak)
	}
	var measured int64
	var converged, saturated int
	for _, r := range rs {
		measured += r.MeasuredCycles
		if r.Converged {
			converged++
		}
		if r.Saturated {
			saturated++
		}
	}
	q := quartiles(stepUs)
	nSteps := float64(len(stepUs))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]metric{
		"router.step_us_p50":           {q[1], "us"},
		"router.step_us_p99":           {percentile(stepUs, 0.99), "us"},
		"router.step_samples":          {nSteps, "count"},
		"router.step_self_s":           {float64(selfNs) / 1e9, "s"},
		"router.inflight_mean":         {ratio(float64(inflight), nSteps), "packets"},
		"router.delivered":             {float64(delivered), "count"},
		"router.marked":                {float64(marked), "count"},
		"router.shed":                  {float64(shed), "count"},
		"router.dropped":               {float64(dropped), "count"},
		"routing.route_calls":          {float64(routes), "count"},
		"routing.route_ns_mean":        {ratio(float64(routeNs), float64(routes)), "ns"},
		"routing.route_s":              {float64(routeNs) / 1e9, "s"},
		"routing.route_per_grant":      {ratio(float64(routes), float64(grants)), "ratio"},
		"routing.begin_cycle_s":        {float64(beginNs) / 1e9, "s"},
		"routing.misroute_global_frac": {ratio(float64(misG), float64(delivered)), "fraction"},
		"traffic.cycle_ns_mean":        {ratio(float64(injNs), nSteps), "ns"},
		"traffic.busy_frac":            {ratio(float64(injNs), float64(loopNs)), "fraction"},
		"traffic.generated":            {float64(gen), "count"},
		"traffic.blocked_frac":         {ratio(float64(blocked), float64(gen+blocked)), "fraction"},
		"traffic.throttled":            {float64(thr), "count"},
		"traffic.retried":              {float64(retried), "count"},
		"sim.cycles":                   {float64(cycles), "cycles"},
		"sim.measured_cycles":          {float64(measured), "cycles"},
		"sim.points_converged":         {float64(converged), "count"},
		"sim.points_saturated":         {float64(saturated), "count"},
		"sim.elided_frac":              {ratio(float64(elided), float64(cycles)), "fraction"},
		"runtime.heap_peak_mb":         {float64(heapPeak) / (1 << 20), "MB"},
	}
}

// writeTrace writes the in-memory spans and per-router hook totals to
// .bench_build/traces, once the run is over.
func writeTrace(s spec, in inputs, st stamp, traces []*taskTrace) (string, error) {
	type routerTotals struct {
		Routes, Grants  uint64
		RouteNs, HookNs int64
	}
	type task struct {
		*taskTrace
		BeginCycleNs int64
		Routers      []routerTotals
	}
	out := struct {
		Stamp    stamp
		Workload string
		Seed     uint64
		Tasks    []task
	}{Stamp: st, Workload: s.name, Seed: in.seed}
	for _, t := range traces {
		tk := task{taskTrace: t, BeginCycleNs: t.alg.beginNs}
		for _, sl := range t.alg.slots {
			tk.Routers = append(tk.Routers, routerTotals{sl.routes, sl.grants, sl.routeNs, sl.hookNs})
		}
		out.Tasks = append(out.Tasks, tk)
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", s.name, in.seed))
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// quartiles returns [q1, median, q3] of xs (statistics.quantiles with
// n=4, exclusive method; the value itself for one sample).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Exclusive method: position i*(n+1)/4, 1-based, clamped.
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
		}
	}
	return q
}

// percentile returns the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// recordDigests prints digests.json entries for seeds lo..hi of every
// workload (only the named one when name is set), running the untraced
// entry call once per seed; a seed whose results break a physics bound
// is reported and left out.
func recordDigests(w, errw io.Writer, span, name string) error {
	loS, hiS, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseUint(loS, 10, 64)
	hi, err2 := strconv.ParseUint(hiS, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("perfbench: -record-digests wants LO-HI, got %q", span)
	}
	out := map[string]map[string]string{}
	for _, s := range specs {
		if name != "" && s.name != name {
			continue
		}
		out[s.name] = map[string]string{}
		for seed := lo; seed <= hi; seed++ {
			rs, err := s.runPublic(s.inputs(seed))
			if err != nil {
				return fmt.Errorf("perfbench: %s seed %d: %w", s.name, seed, err)
			}
			if bad := s.check(rs); len(bad) > 0 {
				fmt.Fprintf(errw, "perfbench: %s seed %d not recorded: %v\n", s.name, seed, bad)
				continue
			}
			out[s.name][strconv.FormatUint(seed, 10)] = digest(rs)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
