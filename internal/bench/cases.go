// Package bench hosts the repository's benchmark bodies in one
// registry shared by two front ends: the root bench_test.go wraps each
// case as a conventional `go test -bench` target, and cmd/bench runs
// the same cases via testing.Benchmark to emit machine-readable
// BENCH_sweep.json (with a -baseline regression gate). Keeping one
// body per case guarantees the two front ends can never measure
// different code.
package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mc"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/sweep"
)

// Benchmark families. Each family feeds its own committed baseline
// file: sweep cases emit BENCH_sweep.json, remote (transport) cases
// emit BENCH_remote.json, and cmd/bench -family selects one.
const (
	FamilySweep  = "sweep"
	FamilyRemote = "remote"
)

// Case is one registered benchmark.
type Case struct {
	// Name is the benchmark name without the "Benchmark" prefix.
	Name string
	// Family groups cases for selection (cmd/bench -family) and ties
	// each to its committed baseline file.
	Family string
	// Quick marks the case for cmd/bench -quick smoke runs (fast
	// micro-benchmarks and the small sweep, suitable for CI).
	Quick bool
	Fn    func(b *testing.B)
}

// Cases returns the registry in fixed order.
func Cases() []Case {
	sweep := func(name string, quick bool, fn func(b *testing.B)) Case {
		return Case{Name: name, Family: FamilySweep, Quick: quick, Fn: fn}
	}
	remote := func(name string, quick bool, fn func(b *testing.B)) Case {
		return Case{Name: name, Family: FamilyRemote, Quick: quick, Fn: fn}
	}
	return []Case{
		sweep("E1SafetyMistakes", false, E1SafetyMistakes),
		sweep("E2WaitFreedom", false, E2WaitFreedom),
		sweep("E3BoundedWaiting", false, E3BoundedWaiting),
		sweep("E3ForksBaseline", false, E3ForksBaseline),
		sweep("E4ChannelBound", false, E4ChannelBound),
		sweep("E5Quiescence", false, E5Quiescence),
		sweep("E6SpaceBound", true, E6SpaceBound),
		sweep("E7Stabilization", false, E7Stabilization),
		sweep("E8ScalabilityRing64", false, E8ScalabilityRing64),
		sweep("E8ScalabilityClique12", false, E8ScalabilityClique12),
		sweep("E9ModelCheck", false, E9ModelCheck),
		sweep("E11LossyLinks", false, E11LossyLinks),
		sweep("A1RepliedAblation", false, A1RepliedAblation),
		sweep("A2DetectorSweep", false, A2DetectorSweep),
		sweep("A3KBound", false, A3KBound),
		sweep("SweepE8Workers1", false, SweepE8Workers1),
		sweep("SweepE8WorkersMax", false, SweepE8WorkersMax),
		sweep("CoreDinerCycle", true, CoreDinerCycle),
		sweep("KernelThroughput", true, KernelThroughput),
		sweep("NetworkSendDeliver", true, NetworkSendDeliver),
		sweep("GreedyColoring", true, GreedyColoring),
		remote("WireEncodeData", true, WireEncodeData),
		remote("WireDecodeData", true, WireDecodeData),
		remote("WireDecoderStream", true, WireDecoderStream),
		remote("WireReadFrameLegacy", true, WireReadFrameLegacy),
		remote("LinkLoopbackPerFrame", true, LinkLoopbackPerFrame),
		remote("LinkLoopbackBatched", true, LinkLoopbackBatched),
		remote("LinkLatencyP99Netsim", false, LinkLatencyP99Netsim),
	}
}

// Lookup returns the named case, or false.
func Lookup(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// benchExecute runs one harness spec per iteration, varying the seed,
// and reports an aggregate metric.
func benchExecute(b *testing.B, mkSpec func(seed int64) harness.Spec, metric func(harness.Result) (string, float64)) {
	b.Helper()
	var agg float64
	var name string
	for i := 0; i < b.N; i++ {
		res, err := harness.Execute(mkSpec(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if res.InvariantErr != nil {
			b.Fatal(res.InvariantErr)
		}
		n, v := metric(res)
		name = n
		if v > agg {
			agg = v
		}
	}
	if name != "" {
		b.ReportMetric(agg, name)
	}
}

// E1SafetyMistakes measures Theorem 1: exclusion mistakes per
// hostile-detector run (all pre-convergence).
func E1SafetyMistakes(b *testing.B) {
	hp := harness.DefaultHeartbeatParams()
	hp.PreNoise = 80
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Ring(16),
			Seed:      seed,
			Algorithm: harness.Algorithm1,
			Detector:  harness.DetectorHeartbeat,
			Heartbeat: hp,
			Workload:  runner.Saturated(),
			Horizon:   15000,
		}
	}, func(res harness.Result) (string, float64) {
		// All violations must predate convergence; report the count.
		conv := res.FDLastMistakeEnd + 100
		if after := res.ViolationsAfter(conv); after != 0 {
			b.Fatalf("%d violations after detector convergence", after)
		}
		return "mistakes/run", float64(res.Violations)
	})
}

// E2WaitFreedom measures Theorem 2: a half-ring crash storm with zero
// starvation.
func E2WaitFreedom(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		spec := harness.Spec{
			Graph:     graph.Ring(16),
			Seed:      seed,
			Algorithm: harness.Algorithm1,
			Detector:  harness.DetectorHeartbeat,
			Heartbeat: harness.DefaultHeartbeatParams(),
			Workload:  runner.Saturated(),
			Horizon:   20000,
		}
		for c := 0; c < 8; c++ {
			spec.Crashes = append(spec.Crashes, harness.Crash{At: sim.Time(2500 + 200*c), ID: 2 * c})
		}
		return spec
	}, func(res harness.Result) (string, float64) {
		if len(res.Starving) != 0 {
			b.Fatalf("starving: %v", res.Starving)
		}
		return "live-sessions/run", float64(res.LiveCompleted())
	})
}

// E3BoundedWaiting measures Theorem 3 on the adversarial path:
// Algorithm 1's max consecutive overtakes (must be ≤ 2).
func E3BoundedWaiting(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Path(3),
			Colors:    []int{1, 0, 2},
			Seed:      seed,
			Delays:    sim.FixedDelay{D: 2},
			Algorithm: harness.Algorithm1,
			Workload:  runner.Saturated(),
			Horizon:   15000,
		}
	}, func(res harness.Result) (string, float64) {
		if res.MaxOvertake > 2 {
			b.Fatalf("overtakes = %d, exceeds paper bound", res.MaxOvertake)
		}
		return "max-overtakes", float64(res.MaxOvertake)
	})
}

// E3ForksBaseline shows the contrast: the doorway-free baseline
// overtakes without bound on the same workload.
func E3ForksBaseline(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Path(3),
			Colors:    []int{1, 0, 2},
			Seed:      seed,
			Delays:    sim.FixedDelay{D: 2},
			Algorithm: harness.Forks,
			Workload:  runner.Saturated(),
			Horizon:   15000,
		}
	}, func(res harness.Result) (string, float64) {
		return "max-overtakes", float64(res.MaxOvertake)
	})
}

// E4ChannelBound measures the Section 7 per-edge occupancy bound under
// heavy delay variance.
func E4ChannelBound(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Clique(6),
			Seed:      seed,
			Delays:    sim.UniformDelay{Min: 1, Max: 50},
			Algorithm: harness.Algorithm1,
			Workload:  runner.Saturated(),
			Horizon:   15000,
		}
	}, func(res harness.Result) (string, float64) {
		if res.OccupancyHW > 4 {
			b.Fatalf("occupancy = %d, exceeds paper bound", res.OccupancyHW)
		}
		return "max-edge-occupancy", float64(res.OccupancyHW)
	})
}

// E5Quiescence measures residual traffic to crashed processes.
func E5Quiescence(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:          graph.Ring(8),
			Seed:           seed,
			Algorithm:      harness.Algorithm1,
			Detector:       harness.DetectorPerfect,
			PerfectLatency: 20,
			Workload:       runner.Saturated(),
			Crashes:        []harness.Crash{{At: 1000, ID: 3}},
			Horizon:        15000,
		}
	}, func(res harness.Result) (string, float64) {
		if !res.QuiescentLastHalf {
			b.Fatal("not quiescent by mid-run")
		}
		return "sends-after-crash", float64(res.SendsToCrashed)
	})
}

// E6SpaceBound measures per-process protocol state on a clique (the
// worst case, δ = n-1).
func E6SpaceBound(b *testing.B) {
	g := graph.Clique(16)
	colors := g.GreedyColoring()
	var bits int
	for i := 0; i < b.N; i++ {
		bits = 0
		for v := 0; v < g.N(); v++ {
			nbrColors := make(map[int]int)
			for _, j := range g.Neighbors(v) {
				nbrColors[j] = colors[j]
			}
			d, err := core.NewDiner(core.Config{ID: v, Color: colors[v], NeighborColors: nbrColors})
			if err != nil {
				b.Fatal(err)
			}
			if s := d.SpaceBits(); s > bits {
				bits = s
			}
		}
	}
	b.ReportMetric(float64(bits), "bits/process")
}

// E7Stabilization measures convergence of a stabilizing protocol under
// the wait-free daemon with a crash.
func E7Stabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.Ring(10)
		proto := stabilize.NewColoring(g)
		var ad *stabilize.DaemonAdapter
		r, err := runner.New(runner.Config{
			Graph: g,
			Seed:  int64(i + 1),
			NewDetector: func(k *sim.Kernel, gg *graph.Graph) detector.Detector {
				return detector.NewPerfect(k, gg, 15)
			},
			Workload: runner.Saturated(),
			OnTransition: func(at sim.Time, id int, from, to core.State) {
				ad.OnTransition(at, id, from, to)
			},
			OnCrash: func(at sim.Time, id int) { ad.OnCrash(at, id) },
		})
		if err != nil {
			b.Fatal(err)
		}
		ad = stabilize.NewDaemonAdapter(proto, g.Neighbors, r.Kernel().Now, r.Kernel().Rand())
		r.CrashAt(1000, 2)
		r.Run(15000)
		if err := r.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
		if _, ok := ad.Converged(); !ok {
			b.Fatal("did not converge")
		}
	}
}

// e8Ring64Spec is the spec shared by the single-run E8 benchmark and
// the sweep benchmarks, so their numbers divide cleanly.
func e8Ring64Spec(seed int64) harness.Spec {
	return harness.Spec{
		Graph:     graph.Ring(64),
		Seed:      seed,
		Delays:    sim.UniformDelay{Min: 1, Max: 3},
		Algorithm: harness.Algorithm1,
		Workload:  runner.Saturated(),
		Horizon:   10000,
	}
}

// E8ScalabilityRing64 profiles throughput on the largest sparse
// topology of the E8 sweep.
func E8ScalabilityRing64(b *testing.B) {
	benchExecute(b, e8Ring64Spec, func(res harness.Result) (string, float64) {
		return "sessions/run", float64(res.Sessions.Completed)
	})
}

// E8ScalabilityClique12 profiles the dense extreme.
func E8ScalabilityClique12(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Clique(12),
			Seed:      seed,
			Delays:    sim.UniformDelay{Min: 1, Max: 3},
			Algorithm: harness.Algorithm1,
			Workload:  runner.Saturated(),
			Horizon:   10000,
		}
	}, func(res harness.Result) (string, float64) {
		return "sessions/run", float64(res.Sessions.Completed)
	})
}

// E9ModelCheck measures exhaustive P2+1crash verification (590 states,
// every interleaving, wait-freedom included).
func E9ModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		checker, err := mc.New(graph.Path(2), mc.Options{MaxCrashes: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := checker.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Closed || rep.Violation != nil {
			b.Fatalf("closed=%v violation=%v", rep.Closed, rep.Violation)
		}
	}
}

// E11LossyLinks measures the rlink sublayer masking a 10% drop + 10%
// duplication adversary: Algorithm 1 must stay wait-free (no
// starvation) and within the suffix overtake bound; the metric is the
// retransmission cost of the masking.
func E11LossyLinks(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Ring(8),
			Seed:      seed,
			Algorithm: harness.Algorithm1,
			Detector:  harness.DetectorHeartbeat,
			Heartbeat: harness.DefaultHeartbeatParams(),
			Workload:  runner.Saturated(),
			Horizon:   15000,
			Faults:    &sim.FaultPlan{DropP: 0.10, DupP: 0.10, HealAt: 8000},
			Reliable:  true,
		}
	}, func(res harness.Result) (string, float64) {
		if len(res.Starving) != 0 {
			b.Fatalf("starving over rlink: %v", res.Starving)
		}
		if res.MaxOvertakeSuffix > 2 {
			b.Fatalf("suffix overtakes = %d over rlink", res.MaxOvertakeSuffix)
		}
		return "retransmits/run", float64(res.Retransmits)
	})
}

// A1RepliedAblation measures the original doorway's overtaking on the
// adversarial star (compare with E3BoundedWaiting).
func A1RepliedAblation(b *testing.B) {
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Star(5),
			Seed:      seed,
			Delays:    sim.SpikeDelay{Base: 2, Spike: 300, SpikeP: 0.1},
			Algorithm: harness.Algorithm1NoReplied,
			Workload:  runner.Saturated(),
			Horizon:   15000,
		}
	}, func(res harness.Result) (string, float64) {
		return "max-overtakes", float64(res.MaxOvertake)
	})
}

// A2DetectorSweep measures detector mistakes at the noisiest sweep
// point.
func A2DetectorSweep(b *testing.B) {
	hp := harness.DefaultHeartbeatParams()
	hp.Period = 3
	hp.InitialTimeout = 6
	hp.PreNoise = 120
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:     graph.Ring(8),
			Seed:      seed,
			Algorithm: harness.Algorithm1,
			Detector:  harness.DetectorHeartbeat,
			Heartbeat: hp,
			Workload:  runner.Saturated(),
			Horizon:   15000,
		}
	}, func(res harness.Result) (string, float64) {
		return "false-positives", float64(res.FDFalsePositives)
	})
}

// A3KBound measures the generalized (m+1)-bounded doorway at m = 3 on
// the adversarial star (compare with E3BoundedWaiting at m = 1).
func A3KBound(b *testing.B) {
	const m = 3
	benchExecute(b, func(seed int64) harness.Spec {
		return harness.Spec{
			Graph:          graph.Star(5),
			Seed:           seed,
			Delays:         sim.SpikeDelay{Base: 2, Spike: 300, SpikeP: 0.1},
			Algorithm:      harness.Algorithm1,
			AcksPerSession: m,
			Workload:       runner.Saturated(),
			Horizon:        15000,
		}
	}, func(res harness.Result) (string, float64) {
		if res.MaxOvertake > m+1 {
			b.Fatalf("overtakes = %d, exceeds k = m+1 = %d", res.MaxOvertake, m+1)
		}
		return "max-overtakes", float64(res.MaxOvertake)
	})
}

// sweepE8 drives the acceptance-criterion sweep: the 8-seed E8 ring64
// batch through the worker pool. Workers=1 vs workers=GOMAXPROCS
// isolates the pool's parallel speedup on one fixed workload.
func sweepE8(b *testing.B, workers int) {
	specs := sweep.SeedRange(e8Ring64Spec(0), 1, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sweep.Run(specs, sweep.Options{Workers: workers})
		if rep.FirstFailure != nil {
			b.Fatal(rep.FirstFailure.FailureNote())
		}
	}
}

// SweepE8Workers1 is the sequential floor of the sweep comparison.
func SweepE8Workers1(b *testing.B) { sweepE8(b, 1) }

// SweepE8WorkersMax is the same batch across all cores.
func SweepE8WorkersMax(b *testing.B) { sweepE8(b, 0) }

// CoreDinerCycle micro-benchmarks one complete hungry cycle of the raw
// state machine (two diners, hand-pumped messages). The queue is
// consumed by index, so allocs/op counts the diners alone.
func CoreDinerCycle(b *testing.B) {
	hi, err := core.NewDiner(core.Config{ID: 0, Color: 2, NeighborColors: map[int]int{1: 1}})
	if err != nil {
		b.Fatal(err)
	}
	lo, err := core.NewDiner(core.Config{ID: 1, Color: 1, NeighborColors: map[int]int{0: 2}})
	if err != nil {
		b.Fatal(err)
	}
	diners := []*core.Diner{hi, lo}
	queue := make([]core.Message, 0, 16)
	pump := func() {
		for head := 0; head < len(queue); head++ {
			m := queue[head]
			queue = append(queue, diners[m.To].Deliver(m)...)
		}
		queue = queue[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue = append(queue, hi.BecomeHungry()...)
		queue = append(queue, lo.BecomeHungry()...)
		pump()
		for _, d := range diners {
			if d.State() == core.Eating {
				queue = append(queue, d.ExitEating()...)
			}
		}
		pump()
		for _, d := range diners {
			if d.State() == core.Eating {
				d.ExitEating()
			}
		}
		if hi.Err() != nil || lo.Err() != nil {
			b.Fatal(hi.Err(), lo.Err())
		}
	}
}

// KernelThroughput micro-benchmarks raw event scheduling.
func KernelThroughput(b *testing.B) {
	k := sim.NewKernel(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {})
		k.Step()
	}
}

// NetworkSendDeliver micro-benchmarks one message round trip through
// the simulated FIFO network.
func NetworkSendDeliver(b *testing.B) {
	k := sim.NewKernel(1)
	net := sim.NewNetwork(k, 2, sim.FixedDelay{D: 1})
	if err := net.Register(1, func(int, any) {}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Send(0, 1, i); err != nil {
			b.Fatal(err)
		}
		k.Step()
	}
}

// GreedyColoring micro-benchmarks the priority-assignment substrate on
// a dense graph.
func GreedyColoring(b *testing.B) {
	g := graph.Clique(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colors := g.GreedyColoring()
		if !g.IsProperColoring(colors) {
			b.Fatal("improper coloring")
		}
	}
}
