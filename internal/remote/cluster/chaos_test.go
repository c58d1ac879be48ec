package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"
)

// soakSeeds are the committed chaos schedules. Every seed must pass
// the full property suite on every run — a failure here is a real
// protocol or harness bug, not flake, because the run is on virtual
// time. The mix matters: across these seeds the generated plans cover
// crash/restart episodes, symmetric and asymmetric partitions,
// connection resets, and mid-stream truncations (seed 10's truncation
// is the schedule that originally exposed the need for the wire CRC).
var soakSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// shortSoakSeeds is the -short subset: one plain-partition schedule,
// one crash/restart schedule, one truncation schedule.
var shortSoakSeeds = []int64{1, 4, 10}

// soakDuration is the virtual plan length for the committed seeds.
// 4s keeps the chaos window (~2.2s) long enough for every fault kind
// while the whole run stays cheap in wall time.
const soakDuration = 4 * time.Second

// TestChaosSoakSeeds runs every committed seed twice and checks the
// acceptance contract of the harness (DESIGN S19):
//
//   - both runs report zero property failures (exclusion, wait-freedom,
//     ◇2-BW, blast radius — see RunChaosSoak);
//   - the two per-seed event traces are byte-identical, proving the
//     schedule and every verdict are a pure function of the seed.
func TestChaosSoakSeeds(t *testing.T) {
	seeds := soakSeeds
	if testing.Short() {
		seeds = shortSoakSeeds
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			var first string
			for run := 0; run < 2; run++ {
				res, err := RunChaosSoak(SoakConfig{Seed: seed, Duration: soakDuration})
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if res.Failed() {
					t.Fatalf("run %d: property failures:\n%s\ntrace:\n%s",
						run, join(res.Failures), res.Trace)
				}
				if run == 0 {
					first = res.Trace
				} else if res.Trace != first {
					t.Fatalf("traces differ between runs:\nrun 0:\n%s\nrun 1:\n%s", first, res.Trace)
				}
			}
		})
	}
}

// TestChaosOvertakeBound is the end-to-end ◇2-BW conformance check
// (Theorem 3): a hand-scripted schedule crashes a node, partitions two
// more links while it is down, restarts it with a fresh incarnation,
// and heals. After stabilization no bounded-waiting window may see a
// hungry process overtaken more than twice, and the monitors must
// record zero exclusion violations — on a 5-process ring where the
// greedy coloring gives process 4 color 2, the worst-case chain the
// bound quantifies over actually occurs.
func TestChaosOvertakeBound(t *testing.T) {
	addrs := []string{"n0", "n1", "n2", "n3", "n4"}
	plan := netsim.ChaosPlan{Seed: 42, Duration: soakDuration}
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			plan.Events = append(plan.Events, netsim.ChaosEvent{
				Kind: netsim.ChaosSetLink, A: addrs[i], B: addrs[j],
				Latency: 500 * time.Microsecond,
			})
		}
	}
	plan.Events = append(plan.Events,
		netsim.ChaosEvent{At: 300 * time.Millisecond, Kind: netsim.ChaosCrash, A: "n2"},
		netsim.ChaosEvent{At: 450 * time.Millisecond, Kind: netsim.ChaosPartition, A: "n0", B: "n4"},
		netsim.ChaosEvent{At: 600 * time.Millisecond, Kind: netsim.ChaosPartitionDir, A: "n3", B: "n4"},
		netsim.ChaosEvent{At: 900 * time.Millisecond, Kind: netsim.ChaosRestart, A: "n2"},
		netsim.ChaosEvent{At: 2200 * time.Millisecond, Kind: netsim.ChaosHealAll},
	)

	res, err := RunChaosSoak(SoakConfig{Seed: 42, Duration: soakDuration, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("property failures:\n%s", join(res.Failures))
	}
	if res.MaxOvertakePostStable > 2 {
		t.Fatalf("max post-stabilization overtake %d, want <= 2 (Theorem 3)", res.MaxOvertakePostStable)
	}
}

// longPartitionPlan scripts the ISSUE-6 endurance schedule: a full
// bidirectional partition of one ring link that lasts outage — chosen
// by the callers to exceed the dial-backoff cap by two orders of
// magnitude — then a heal and a stabilization tail.
func longPartitionPlan(outage, tail time.Duration) *netsim.ChaosPlan {
	plan := &netsim.ChaosPlan{Seed: 77, Duration: 200*time.Millisecond + outage + tail}
	plan.Events = append(plan.Events,
		netsim.ChaosEvent{At: 200 * time.Millisecond, Kind: netsim.ChaosPartition, A: "n1", B: "n2"},
		netsim.ChaosEvent{At: 200*time.Millisecond + outage, Kind: netsim.ChaosHealAll},
	)
	return plan
}

// TestChaosLongPartition holds one link down for 100x the reconnect
// backoff cap — the regime where an unbounded send queue or an
// unbounded retransmit schedule would show up as resource growth —
// and then requires the full post-heal property suite plus the
// bounded-window verdict, twice, with byte-identical traces.
func TestChaosLongPartition(t *testing.T) {
	t.Parallel()
	const cap = 40 * time.Millisecond // backoff cap; outage = 4s = 100x
	plan := longPartitionPlan(4*time.Second, 1500*time.Millisecond)
	var first string
	for run := 0; run < 2; run++ {
		res, err := RunChaosSoak(SoakConfig{
			Seed:           77,
			Duration:       plan.Duration,
			Plan:           plan,
			DialBackoff:    10 * time.Millisecond,
			DialBackoffMax: cap,
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Failed() {
			t.Fatalf("run %d: property failures:\n%s\ntrace:\n%s", run, join(res.Failures), res.Trace)
		}
		if run == 0 {
			first = res.Trace
		} else if res.Trace != first {
			t.Fatalf("traces differ between runs:\nrun 0:\n%s\nrun 1:\n%s", first, res.Trace)
		}
	}
}

// TestChaosPartitionMemoryFlat pins the resource half of the bounded-
// window contract: during a partition lasting far beyond the backoff
// cap, the bytes parked in ARQ rings must stop growing once the
// windows fill (coalescing keeps heartbeats and re-stated acks out of
// the rings), and the process-wide live heap must stay flat rather
// than scale with outage length. Deliberately not parallel: it reads
// runtime.MemStats, so concurrent tests would pollute the samples.
func TestChaosPartitionMemoryFlat(t *testing.T) {
	clk := netsim.NewClock()
	nw := netsim.NewNet(clk, 7)
	g := graph.Ring(5)
	placement := [][]int{{0}, {1}, {2}, {3}, {4}}
	cl, err := New(g, placement, Options{
		HeartbeatPeriod:  10 * time.Millisecond,
		InitialTimeout:   120 * time.Millisecond,
		TimeoutIncrement: 60 * time.Millisecond,
		EatTime:          4 * time.Millisecond,
		ThinkTime:        4 * time.Millisecond,
		RTO:              20 * time.Millisecond,
		DialBackoff:      10 * time.Millisecond,
		DialBackoffMax:   40 * time.Millisecond,
		Seed:             7,
		Network:          nw,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	if err := cl.WaitEats(nil, 2, 10*time.Second); err != nil {
		t.Fatalf("pre-partition progress: %v", err)
	}

	nw.Partition("n1", "n2")
	advance := func(d time.Duration) {
		for step := time.Duration(0); step < d; step += advanceStep {
			cl.Advance(advanceStep)
		}
	}
	heapSample := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// One virtual second in: the windows toward the dead link have
	// absorbed whatever residual traffic the parked diner emits.
	advance(time.Second)
	bytesEarly := cl.QueuedFrameBytes()
	heapEarly := heapSample()

	// Eight more virtual seconds of outage — 200x the backoff cap.
	// Flat means flat: no per-tick, per-retransmit, or per-redial
	// accumulation anywhere in the stack.
	advance(8 * time.Second)
	bytesLate := cl.QueuedFrameBytes()
	heapLate := heapSample()

	if bytesLate > bytesEarly+256 {
		t.Fatalf("queued frame bytes grew during partition: %d -> %d", bytesEarly, bytesLate)
	}
	if d := cl.MaxPairDepth(); d > cl.SendWindow() {
		t.Fatalf("peak pair depth %d exceeds send window %d", d, cl.SendWindow())
	}
	const heapSlack = 4 << 20
	if heapLate > heapEarly+heapSlack {
		t.Fatalf("live heap grew %d bytes across the partition (early %d, late %d)",
			heapLate-heapEarly, heapEarly, heapLate)
	}

	nw.HealAll()
	base := cl.EatCounts()
	if err := cl.WaitEats(base, 2, 15*time.Second); err != nil {
		t.Fatalf("post-heal progress: %v", err)
	}
}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += "  " + s + "\n"
	}
	return out
}
