package sim

import (
	"context"

	"cbar/internal/router"
	"cbar/internal/traffic"
)

// Quiet-cycle elision for the (injector, network) pair: the network
// knows the next cycle anything scheduled can happen
// (router.Network.ElideHorizon) and the injector knows its next arrival
// (traffic.Injector.NextArrival); the clock may jump to the earlier of
// the two. Both queries are exact — elided spans are bit-identical to
// stepping them — so every cycle loop in this package elides freely,
// capping jumps only at its own bookkeeping boundaries (measurement
// buckets, warmup ends) so per-bucket series are synthesized exactly as
// the stepping path would have produced them.

// elisionOff pins every loop in this package to plain stepping. Only
// the equivalence tests flip it (to prove elided runs bit-identical to
// stepped ones); production code never sets it.
var elisionOff bool

// elideStep tries to jump the pair over a quiet span, at most to the
// absolute cycle `target`; it reports whether the clock advanced. When
// it returns false the caller must run one normal inj.Cycle + net.Step.
func elideStep(net *router.Network, inj *traffic.Injector, target int64) bool {
	if elisionOff {
		return false
	}
	j, ok := net.ElideHorizon(target)
	if !ok {
		return false
	}
	if a := inj.NextArrival(j - 1); a < j {
		j = a
	}
	if j <= net.Now() {
		return false
	}
	net.ElideTo(j)
	return true
}

// runTo runs the pair to the absolute cycle end — the canonical
// inj.Cycle(); net.Step() loop with quiet spans elided, jumps capped at
// end — polling ctx once per bucket-aligned cycle so a cancelled run
// stops at bucket granularity. Every measurement loop of the package
// runs through it, choosing end at its own bookkeeping boundaries.
func runTo(ctx context.Context, net *router.Network, inj *traffic.Injector, end int64) error {
	for cyc := net.Now(); cyc < end; cyc = net.Now() {
		if cyc%adaptiveBucket == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		if elideStep(net, inj, end) {
			continue
		}
		inj.Cycle()
		net.Step()
	}
	return nil
}

// Advance runs the pair for `cycles` cycles with quiet spans elided.
// Benchmarks and tests drive deep-idle regimes through it.
func Advance(net *router.Network, inj *traffic.Injector, cycles int64) {
	_ = runTo(context.TODO(), net, inj, net.Now()+cycles)
}
