package check

// Chaos-plan generation for the fault-injection harness. A chaos case is a
// differential Case (algorithm × graph × machine × topology, verified
// against internal/ref) with a seeded faults.Plan armed on the transport for
// the traversal phase. The plans are drawn from four families that together
// cover the fault model in DESIGN.md §8:
//
//   - lossy:    drop/duplicate/corrupt on the mailbox plane (each ≤ 10%),
//     plus mild delay everywhere — requires the reliable mailbox.
//   - churn:    heavy delay + reordering on EVERY plane, no loss — the base
//     stack must tolerate this without the reliable layer (visitor
//     application is order-independent and the termination waves are
//     versioned), so Reliable stays off to keep that claim honest.
//   - stall:    periodic rank stalls plus delay — models GC pauses, OS
//     scheduling jitter and stragglers.
//   - combined: lossy mailbox + churn + stalls at once.
//
// Everything is derived deterministically from (seed, index): a failing
// chaos case reproduces from the two integers printed in its name.

import (
	"fmt"
	"time"

	"havoqgt/internal/engine"
	"havoqgt/internal/faults"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

// ChaosFamily names the shape of a generated fault plan.
type ChaosFamily int

const (
	FamilyLossy ChaosFamily = iota
	FamilyChurn
	FamilyStall
	FamilyCombined
	numFamilies
)

func (f ChaosFamily) String() string {
	switch f {
	case FamilyLossy:
		return "lossy"
	case FamilyChurn:
		return "churn"
	case FamilyStall:
		return "stall"
	case FamilyCombined:
		return "combined"
	}
	return fmt.Sprintf("family(%d)", int(f))
}

// Family returns the plan family ChaosPlan assigns to index (round-robin,
// so any contiguous index range covers all four).
func Family(index int) ChaosFamily { return ChaosFamily(index % int(numFamilies)) }

// ChaosPlan derives fault plan number index from seed. The second return is
// whether the plan's rules require the reliable mailbox: true exactly when
// the plan can lose or damage mailbox frames (drop/duplicate/corrupt), which
// the base protocol is documented NOT to survive.
func ChaosPlan(seed uint64, index int) (faults.Plan, bool) {
	rng := xrand.New(xrand.Mix64(seed ^ (uint64(index)+1)*0x9e3779b97f4a7c15))
	plan := faults.Plan{Seed: rng.Uint64()}

	// Rule builders; all probabilities are drawn per-plan so the sweep
	// covers a spread of rates, with drop capped at 10%.
	lossyMailbox := func() faults.MsgRule {
		return faults.MsgRule{
			From: faults.Wildcard, To: faults.Wildcard, Kind: int(rt.KindMailbox),
			Drop:      0.02 + 0.08*rng.Float64(),
			Duplicate: 0.05 * rng.Float64(),
			Corrupt:   0.05 * rng.Float64(),
		}
	}
	churnEverywhere := func() faults.MsgRule {
		return faults.MsgRule{
			From: faults.Wildcard, To: faults.Wildcard, Kind: faults.Wildcard,
			Delay:    0.2 + 0.4*rng.Float64(),
			DelayMin: 20 * time.Microsecond,
			DelayMax: time.Duration(100+rng.Intn(400)) * time.Microsecond,
			Reorder:  0.2 + 0.4*rng.Float64(),
		}
	}
	mildDelayEverywhere := func() faults.MsgRule {
		return faults.MsgRule{
			From: faults.Wildcard, To: faults.Wildcard, Kind: faults.Wildcard,
			Delay:    0.1 + 0.2*rng.Float64(),
			DelayMin: 10 * time.Microsecond,
			DelayMax: 200 * time.Microsecond,
		}
	}
	stalls := func() []faults.StallRule {
		rank := faults.Wildcard // every rank stutters...
		if rng.Bool(0.5) {
			rank = 0 // ...or one straggler limps
		}
		return []faults.StallRule{{
			Rank:     rank,
			After:    time.Duration(rng.Intn(3)) * time.Millisecond,
			Duration: time.Duration(200+rng.Intn(800)) * time.Microsecond,
			Period:   time.Duration(2+rng.Intn(6)) * time.Millisecond,
		}}
	}

	reliable := false
	switch Family(index) {
	case FamilyLossy:
		plan.Msgs = []faults.MsgRule{lossyMailbox(), mildDelayEverywhere()}
		reliable = true
	case FamilyChurn:
		plan.Msgs = []faults.MsgRule{churnEverywhere()}
	case FamilyStall:
		plan.Msgs = []faults.MsgRule{mildDelayEverywhere()}
		plan.Stalls = stalls()
	case FamilyCombined:
		plan.Msgs = []faults.MsgRule{lossyMailbox(), churnEverywhere()}
		plan.Stalls = stalls()
		reliable = true
	}
	return plan, reliable
}

// ChaosCaseAt builds the deterministic chaos case for (algo, topo, seed,
// index): a small random graph whose traversal exchanges enough messages for
// the plan's rates to bite, with the plan from ChaosPlan armed and the
// reliable mailbox switched on exactly when the plan requires it.
func ChaosCaseAt(algo engine.Algo, topo string, seed uint64, index int) Case {
	rng := xrand.New(xrand.Mix64(seed + uint64(index)*0x61c8864680b583eb))
	plan, reliable := ChaosPlan(seed, index)
	return Case{
		Algo:       algo,
		Seed:       rng.Uint64(),
		N:          32 + rng.Uint64n(32),
		EdgeFactor: 2 + rng.Intn(3),
		Ranks:      []int{3, 4, 5, 8}[rng.Intn(4)],
		Topo:       topo,
		FlushBytes: []int{1, 24, 256}[rng.Intn(3)],
		K:          1 + uint32(rng.Intn(3)),
		Fault:      &plan,
		Reliable:   reliable,
		RTOBase:    time.Millisecond,
		RTOMax:     20 * time.Millisecond,
	}
}
