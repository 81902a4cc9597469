// Package cbar is a cycle-level Dragonfly network simulator implementing
// Contention-Based Nonminimal Adaptive Routing, a reproduction of
// Fuentes, Vallejo, García, Beivide, Rodríguez, Minkenberg and Valero,
// "Contention-based Nonminimal Adaptive Routing in High-radix Networks",
// IEEE IPDPS 2015 (DOI 10.1109/IPDPS.2015.78).
//
// The library simulates canonical Dragonfly networks (palmtree global
// arrangement) with input/output-buffered virtual-cut-through routers,
// credit-based flow control, virtual channels and a separable batch
// allocator, and provides the seven routing mechanisms of the paper's
// evaluation: the oblivious MIN and VAL, the congestion-based adaptive
// baselines PB (PiggyBacking) and OLM (Opportunistic Local Misrouting),
// and the paper's three contention-based mechanisms Base, Hybrid and
// ECtN (Explicit Contention Notification).
//
// # Quick start
//
//	cfg := cbar.NewConfig(cbar.Tiny, cbar.Base)
//	res, err := cbar.RunSteady(cfg, cbar.Uniform(), 0.2, cbar.SteadyOptions{})
//	if err != nil { ... }
//	fmt.Printf("latency %.1f cycles, throughput %.3f phits/node/cycle\n",
//		res.AvgLatency, res.Accepted)
//
// Three experiment shapes cover the paper's evaluation: [RunSteady]
// (latency/throughput at one offered load), [Sweep] (a load grid in
// parallel) and [RunTransient] (traced response to a traffic-pattern
// switch). [RunExperiment] regenerates any of the paper's tables and
// figures by ID ([ExperimentIDs] enumerates them; cmd/figures is the
// CLI front end); its one [ExperimentOptions] argument overrides parts
// of the scale's default budget, and the zero value keeps them all:
//
//	err := cbar.RunExperiment("fig5a", cbar.Small, cbar.ExperimentOptions{Seeds: 3}, os.Stdout)
//
// [SteadyResult] and [TransientResult] are aliases of the simulation
// layer's result types (package cbar/internal/sim), which carry the
// per-field documentation; README.md's "Result fields" section lists
// every field. README.md also collects the CLI surface and the
// workload/congestion/fault spec grammars in one place.
//
// All simulations are deterministic for a fixed configuration and seed;
// repeated seeds run on all available cores. A sweep flattens its whole
// load×seed grid through one bounded worker pool, and multi-seed
// percentiles come from merged latency histograms (exact cross-seed
// order statistics, with SteadyResult.OverflowFrac flagging saturated
// tails).
//
// # Measurement methodology
//
// Steady-state measurement has two modes. The default fixed mode is
// the paper's §IV methodology: simulate [SteadyOptions].Warmup cycles
// unmeasured, record deliveries for Measure cycles, repeat over Seeds
// seeds (15000-cycle windows and 10 seeds at Paper scale). It is
// deterministic and bit-identical across releases — the golden CSVs
// under testdata/golden pin it — but it spends the same cycle budget
// whether a point converged in a fifth of the window or will never
// converge at all.
//
// Adaptive mode ([SteadyOptions].Adaptive, cmd/sweep and cmd/figures
// -adaptive) spends cycles only where the statistics demand them:
//
//   - Warmup truncation: the run streams per-bucket mean delivery
//     latency and ends warmup when the MSER rule (minimize the squared
//     standard error of the remaining batch means) places the
//     truncation point well inside the collected series. The fixed
//     Warmup acts as a cap, so adaptive warmup never exceeds it.
//   - CI-driven stopping: measurement proceeds in bucket-sized chunks,
//     maintaining batch-means 95% confidence intervals (fixed batch
//     count, growing batch size, so autocorrelation is absorbed as
//     batches widen) on mean latency and throughput; the run stops
//     when both relative half-widths drop below CIRelWidth (default
//     5%) or MaxMeasure cycles (default 4x Measure) are spent.
//   - Saturation short-circuit: a point past its saturation load never
//     converges — the in-flight population grows until the bounded NIC
//     queues fill, after which sources throttle. The detector watches
//     the backlog trend and the blocked-injection fraction over a
//     trailing window and bails out early, flagging the result.
//
// [SteadyResult] reports what was spent and decided: CIHalfLatency and
// CIHalfAccepted (95% half-widths), MeasuredCycles (total measured
// cycles across seeds), WarmupCycles (mean truncated warmup),
// Saturated and Converged. cmd/sweep -adaptive appends them as CSV
// columns (ci_half_latency, measured_cycles, warmup_cycles, saturated,
// converged); fixed-mode CSV output is unchanged. Adaptive results are
// statistically equivalent but not bit-identical to fixed mode; use
// fixed windows when reproducing the paper's exact figures and
// adaptive mode when sweeping large grids for shape.
//
// # Workload catalog
//
// A [Traffic] value combines a destination pattern with an arrival
// process. The paper's §IV-B patterns:
//
//   - [Uniform] (UN): every packet targets a uniformly random other node.
//   - [Adversarial](i) (ADV+i): every node targets a random node in the
//     group i positions away, saturating one global link per group.
//   - [Mixed](f, i): per-packet blend of UN and ADV+i (Figure 6).
//
// The workload-engine patterns, modeling the regimes the congestion
// management literature evaluates adaptive routing under (hotspot and
// bursty congestion in Rocher-Gonzalez et al.; permutation/tornado
// workloads in Versaci's OutFlank routing):
//
//   - Hotspot(f, h): fraction f of all traffic aims at h hot nodes
//     spread evenly over the id space, the rest uniform — persistent
//     endpoint contention (storage targets, parameter servers).
//   - ShiftPermutation(k): fixed bijection dest = (src+k) mod N; single
//     persistent flows with no statistical smoothing.
//   - ComplementPermutation: fixed bijection dest = N-1-src, the
//     arbitrary-size analogue of bit-complement.
//   - Tornado: every node targets its own in-group position
//     floor(Groups/2) groups away — ADV-like global-link pressure as a
//     deterministic permutation.
//
// Arrival-process modifiers compose onto any pattern:
//
//   - WithBurst(on, off, peak): two-state Markov-modulated (on-off)
//     sources; geometric ON phases (mean `on` cycles) injecting at the
//     peak rate alternate with silent OFF phases (mean `off`). peak > 0
//     pins the ON-phase load and adapts the duty cycle; peak == 0 keeps
//     the duty cycle and derives the ON rate from the aggregate load.
//   - WithSkew(frac, share): heterogeneous per-node loads; frac of the
//     nodes carry share of the aggregate traffic.
//
// [ParseTraffic] accepts the same catalog as strings ("hotspot:0.2,8",
// "perm:shift+16", "tornado", "burst:50,200", "adv+1+burst:50,200,0.8",
// "un+skew:0.1,0.5"), which cmd/sweep exposes via -traffic; README.md
// tabulates the full grammar.
//
// Stateful sources keep their next injection time on a calendar (a
// min-heap over nodes), so the per-cycle injection cost stays
// proportional to packets generated, not node count — the homogeneous
// Bernoulli case bypasses the calendar entirely on the original
// skip-sampling fast path, bit-identically.
//
// # Congestion management
//
// [Config].Congestion (cmd/sweep, cmd/figures and cmd/dfsim -congestion,
// specs parsed by [ParseCongestion]) enables a closed-loop
// congestion-control layer modeled on the ECN-style notification
// schemes of the congestion-management literature (Rocher-Gonzalez et
// al.). Four mechanisms compose:
//
//   - Marking: every output port above MarkPct of its credit capacity
//     is mark-hot (maintained by the same threshold watchers PB's
//     saturation flags use, so the hot path stays O(1)); packets
//     granted through a hot port carry a congestion mark to delivery,
//     like an ECN bit piggybacked on the payload.
//   - Notification: a marked delivery schedules a notification back to
//     the source on the event calendar, NotifyLatency cycles later —
//     the signal travels at realistic link latency, it does not
//     teleport.
//   - AIMD throttling: each notification multiplicatively cuts the
//     source NIC's injection rate (DecreasePct, floored at MinRatePct,
//     with a HoldCycles hold-off absorbing the in-flight notification
//     wave of a single event); the rate recovers additively
//     (RecoverPct per RecoverEvery cycles). A throttled node's
//     injection attempts are paced — calendar sources are deferred,
//     not dropped; Bernoulli attempts are suppressed at the source.
//   - Graceful degradation: NIC backlog at ShedCap sheds new packets
//     (counted in SteadyResult.Shed) instead of queueing them, so
//     source queues stay bounded under sustained overload.
//
// SteadyResult reports the loop's activity (Marked, Notified,
// Throttled, Shed); cmd/sweep appends them as CSV columns behind
// -congestion. The layer preserves both determinism contracts: with
// congestion off every simulation is bit-identical to previous
// releases (the golden CSVs pin it), and with it on, results are
// bit-identical at every worker count — notifications are replayed at
// the cycle's sequential point in ascending source-node order (pinned
// by TestParallelCongestionEquivalence).
//
// # Fault model
//
// [Config].Faults (cmd/sweep, cmd/figures and cmd/dfsim -faults, specs
// parsed by [ParseFaults]) schedules a deterministic plan of fabric
// faults: explicit LinkDown/LinkUp and RouterDown/RouterUp events at
// fixed cycles, plus a random clause failing a percentage of the global
// cables at one cycle (expanded from its own seed at build time, so the
// same triple always fails the same cables). Events apply at the
// sequential point of Step — after the event barrier, before the
// routing algorithm's BeginCycle — so fault state, and everything
// downstream of it, is bit-identical at every worker count
// (TestParallelFaultEquivalence pins traces, drop order and counters at
// workers 1-4).
//
// A fault does three things. Liveness: the affected output ports on
// both ends of each failed link go dead, and routing filters every
// candidate set on one per-port flag — adaptive mechanisms treat a dead
// link exactly like an unattractive one and misroute around it, PB
// advertises a dead minimal channel as saturated, and a mechanism with
// no live policy-compliant choice falls back to a router-level escape
// that redirects through a random live transit port (a packet
// exhausting its escape budget is dropped). Kills: packets already
// committed to a failed link — staged, in the pipeline, serializing on
// the wire, or queued on a dead router — are removed and counted in
// SteadyResult.Dropped, with each kill reversing exactly the credit and
// grant accounting its location held, so CheckInvariants stays clean
// through any fault sequence. Reachability: a live-component map is
// recomputed per event; packets to a partitioned destination are
// counted Unroutable at injection (and in-flight ones at their next
// routing decision) instead of wandering a fabric with no path.
//
// Faults.RetryLimit enables the optional source-side reaction:
// dropped packets are re-offered by the NIC up to the limit with
// exponential backoff (SteadyResult.Retried); the default mode is
// drop-and-count. With no plan scheduled the layer is bit-inert — the
// golden CSVs and TestFaultsOffIsInert pin that a zero Faults value,
// and even an armed plan before its first event, simulate every cycle
// bit-identically to a build without the layer.
//
// # Performance architecture
//
// The per-cycle cost of the simulator scales with traffic, not topology
// size. Network.Step services three intrusive active sets — NICs with
// backlog, routers with unrouted head packets and routers with staged
// output work — whose membership is updated at the mutation points
// (injection, event handling, allocation grants), so an idle component
// costs nothing. Between cycles, work in flight lives on a calendar
// event ring sized to the maximum link+pipeline horizon. Delivered
// packets are recycled through a freelist and traffic generation
// skip-samples the next injecting node geometrically, so a steady-state
// cycle allocates no memory at all.
//
// The routing-algorithm layer is event-driven on the same principle.
// Each output port's occupancy is a running counter updated at its three
// mutation points (allocation grant, credit return, output-buffer free),
// so the credit estimate congestion-based mechanisms read is O(1), and
// occupancy-threshold watchers fire exactly when a registered threshold
// is crossed: PB's saturation flags flip at the crossing instant instead
// of a per-cycle all-port recompute, as a hardware credit comparator
// would raise the piggybacked bit. ECtN's periodic group combine visits
// only the groups whose partial counters changed since their last
// exchange (a dirty-group set maintained by the counter mutations), so
// an idle period costs O(1). The original full recomputes survive behind
// debug flags (the fabric's FullScan, the policies' ReferenceScan) and
// equivalence tests pin both modes to cycle-for-cycle identical results;
// `go run ./cmd/bench` tracks the hot path's speed in BENCH_step.json.
//
// A single run can additionally be stepped by multiple cores
// (Config.Workers, cmd/sweep and cmd/figures -workers): the network is
// partitioned into contiguous blocks of whole groups and each cycle runs
// its phases in parallel across the shards, with barriers between
// phases. Cross-shard effects — packets crossing global links, credit
// returns to upstream groups — travel through per-(source, target)
// mailboxes drained at the cycle barrier in ascending (shard, seq)
// order, and delivery callbacks are collected per shard and replayed at
// the handle barrier in ascending destination order. Every routing
// decision consults only the deciding router and its own group's
// broadcast state, and per-router RNG streams keep random choices
// shard-local, so the parallel stepper is cycle-for-cycle and
// bit-for-bit identical to the sequential one at every worker count
// (pinned by TestParallelStepEquivalence) — the -workers flag changes
// wall-clock time and nothing else. Sweeps split GOMAXPROCS
// automatically: wide load×seed grids parallelize across runs, narrow
// (paper-scale) grids shard inside each run.
//
// # Quiet-cycle elision
//
// Idle time costs events, not cycles. When a cycle is provably quiet —
// no fault event pending and, on every shard, empty event rings and
// empty active sets — nothing in the fabric can change until the next
// scheduled event, so the runner jumps the clock straight to it instead
// of stepping through the gap. The jump target is the minimum of the
// next event-ring occupancy, the next calendar injection, the next
// retransmit due-time, the next ECtN combine tick, the next fault
// event, and the measurement boundary that called for the advance
// (warmup end, adaptive bucket end, transient trace edge), so every
// measurement series keeps its exact geometry.
//
// Elision is an optimization, never a semantic: an elided span consumes
// exactly the PRNG draws that stepping it would have, so results are
// bit-identical with elision on or off, at every worker count
// (TestElisionEquivalence and the golden CSVs pin it). For Bernoulli
// sources that means the skip-sampling geometric draw for a span is
// taken once, up front, and replayed when the clock reaches it; for
// calendar sources the next injection is a heap peek. Deep-idle regimes
// run at O(events) — the StepSmallElideIdle/StepPaperElideIdle entries
// in BENCH_step.json pin the win beside the per-cycle idle entries.
//
// New implementations join by answering two horizon queries:
//
//   - A routing algorithm with periodic or scheduled work implements
//     the optional CycleHorizon interface (internal/router):
//     NextAlgCycle(n) returns the next cycle at which the algorithm
//     must observe the network, or NoPendingCycle if it is purely
//     reactive (driven entirely by packet events, like the contention
//     counters), or ok=false to veto elision outright (the
//     reference-scan debug modes do this, since they recompute state
//     every cycle by design). Returning a cycle earlier than necessary
//     is always safe; returning one later than the algorithm's next
//     observable action breaks bit-identity.
//   - A traffic source must answer Injector.NextArrival(limit): the
//     cycle of the first arrival at or before limit, or limit+1 if
//     there is none — and, critically, it must consume exactly the
//     random draws that per-cycle generation over the certified-empty
//     span would have consumed, so that stepping and jumping leave the
//     source streams in identical states.
//
// Network.ElideHorizon(target) composes the queries and the quiet
// check; Network.ElideTo(cycle) performs the jump. The horizon is
// conservative by construction: any doubt (non-quiet shard, vetoing
// algorithm, pending fault) falls back to plain stepping, which is
// always correct.
//
// # Determinism contracts
//
// Everything above rests on one promise: a (configuration, seed) pair
// produces bit-identical traces at every worker count and across
// commits. The dynamic guards — the equivalence tests, golden CSVs and
// CheckInvariants sweeps — catch a violation after it happens, on some
// input; the source-level contracts below make violations build breaks
// instead. They are enforced mechanically by detlint (internal/lint,
// run as `go run ./cmd/detlint ./...`, a hard CI gate) over the
// deterministic packages internal/{router,routing,sim,traffic,core,
// topology}:
//
//   - Map-iteration order (maprange): no `range` over a map. Go
//     randomizes iteration order per run, so any map range whose visit
//     order can reach simulation state — counters, schedules, RNG
//     draws, output rows — is a bug. A range that provably normalizes
//     its order (sorts the keys, reduces commutatively into per-key
//     slots, asserts per-key facts in tests) carries a
//     `//lint:ordered <reason>` annotation; the annotation analyzer
//     rejects reason-less or stale annotations.
//   - RNG purity (rngpurity): no math/rand, no time.Now. Every random
//     decision draws from the per-entity PCG streams of internal/rng,
//     and every stream is seeded from (run seed, entity id) or split
//     off an existing stream — never from wall clock, process state or
//     a value whose derivation the analyzer cannot trace to a seed.
//   - Sequential points (sequentialpoint): delivery and notification
//     replay, fault-event application, Alg.BeginCycle and the outbox
//     merge mutate cross-shard state with no synchronization of their
//     own; they are registered barrier-only and may only be called
//     from their registered call sites in Step/stepParallel, may never
//     be taken as function values, and may not be reachable through
//     the call graph from the parallel phase roots (the shard worker
//     bodies and the routing hook surface Route/OnHead/OnArrive/
//     OnDequeue/OnGrant).
//   - Field encapsulation (fieldenc): the accounting fields the
//     invariant auditor and the watcher pipeline lean on — port
//     occupancy (written only via Router.occDelta, which fires the
//     threshold watchers), credit/output-buffer counters, ECN-hot
//     flags, active-set membership — may only be assigned inside their
//     registered mutator functions.
//   - Float accumulation order (floatorder): no compound float
//     assignment inside a loop whose iteration order is
//     nondeterministic; float addition is not associative, and
//     run-dependent low bits poison the golden CSVs and the CI
//     regression gates.
//   - Shard isolation (shardisolation): a whole-program dataflow over
//     the call graph from the parallel roots. Within a parallel
//     section, every write must target state the executing shard
//     provably owns: derived from the worker's own shard, reached
//     through a registered shard table with a locally-derived index,
//     or produced fresh. Reading a registered cross-shard field (a
//     packet's destination coordinates, a port's upstream/peer
//     coordinates) taints the derivation, including through function
//     parameters — handing a tainted index to a helper demotes that
//     helper's parameter program-wide. Cross-shard effects must flow
//     through a registered conduit (the mailbox append, the GroupDirty
//     shard lanes); anything else needs a reviewed
//     `//lint:sharded <reason>` stating the ownership argument (e.g.
//     the occupancy watchers, which fire on the port-owning shard).
//   - Hot-path allocation freedom (allocfree): a whole-program sweep
//     over the call graph from the hot roots (Step and the parallel
//     coordinator, event handling, NIC drain, steady-state injection,
//     the per-cycle traffic driver, the routing hook surface).
//     make/new, escaping composite literals, appends onto slices not
//     registered as pooled (or compacted via [:0]), closures, fmt
//     calls, string concatenation and interface boxing are findings;
//     panic arguments are exempt, registered ColdPath functions
//     (fault application, invariant sweeps) prune the walk, and a
//     reviewed `//lint:alloc <reason>` states why a remaining
//     allocation is not steady-state (freelist warm-up, amortized
//     ring doubling, non-escaping predicates). Stale or reason-less
//     annotations are findings themselves.
//
// The registry of contracts lives in lint.DefaultConfig; new
// deterministic packages (e.g. additional topology backends) join by
// adding their import path and registering their own barrier-only
// functions and encapsulated fields — plus, for the whole-program
// rules, their shard tables, cross-shard fields and index-preserving
// id accessors, and any cross-shard conduit they introduce (a
// direction-1 topology backend that delivers across shards by a new
// path must register that function in ShardConduits, or every write it
// performs is a finding).
package cbar
