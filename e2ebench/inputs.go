package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
)

// Inputs is everything a run feeds the program, generated from the
// workload name and the seed alone. The program under test never sees
// the seed: only these values.
type Inputs struct {
	Workload string
	Seed     int64

	// NodeSeeds are the remote.Config.Seed values (ARQ and dial
	// jitter), one per node.
	NodeSeeds []int64
	// Crashes is the ring5-crash schedule, replayed cyclically. The
	// node order is one seeded permutation repeated round after round,
	// so between two crashes of the same node every other node has
	// restarted once and no detector timeout drifts (a restart widens
	// each neighbour's timeout toward the restarted node).
	Crashes []Crash

	// Resources is the dsvc-http resource count; Edges the seeded
	// conflict graph over them.
	Resources int
	Edges     [][2]int
	// Sets holds, per client, the cyclic list of resource sets it
	// acquires. No set contains two adjacent resources or both ends
	// of a churn pair, so no acquire is ever refused as conflicting.
	Sets [][][]int
	// Churn lists the non-edges the churning client adds and then
	// removes, cyclically.
	Churn [][2]int
}

// Crash is one step of the crash schedule: the node stops Delay after
// the middle of its crash cycle and restarts Down later.
type Crash struct {
	Node        int
	Delay, Down time.Duration
}

// dsvc-http shape.
const (
	dsvcResources = 32
	dsvcEdges     = 48
	dsvcClients   = 2
	dsvcSetsPer   = 512
	dsvcChurn     = 8
)

// crash schedule shape (ring5-crash). The jitter is kept small: the
// share of time a node is down sets the workload's throughput, so a
// wide seeded spread of down times would make the seed, not the
// program, move sessions_per_s.
const (
	crashRounds = 8
	crashDownLo = 300 * time.Millisecond
	crashJitter = 20 * time.Millisecond
)

// GenInputs derives a workload's inputs from its seed.
func GenInputs(w *Workload, seed int64) Inputs {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w.Name))))
	in := Inputs{Workload: w.Name, Seed: seed}
	switch w.Kind {
	case kindRemote:
		for range w.Placement {
			in.NodeSeeds = append(in.NodeSeeds, rng.Int63n(1<<40)+1)
		}
		if w.Crash {
			order := rng.Perm(len(w.Placement))
			for r := 0; r < crashRounds; r++ {
				for _, n := range order {
					in.Crashes = append(in.Crashes, Crash{
						Node:  n,
						Delay: time.Duration(rng.Int63n(int64(crashJitter))),
						Down:  crashDownLo + time.Duration(rng.Int63n(int64(crashJitter))),
					})
				}
			}
		}
	case kindDsvc:
		genDsvc(&in, rng)
	}
	return in
}

// genDsvc draws the conflict graph (exactly dsvcEdges edges, so every
// seed has the same density), the churn pairs among the non-edges, and
// the clients' resource sets. The first sets of each client cover every
// resource, so every resource is granted in any window of a few hundred
// sessions.
func genDsvc(in *Inputs, rng *rand.Rand) {
	n := dsvcResources
	in.Resources = n
	g := graph.New(n)
	for g.M() < dsvcEdges {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	in.Edges = g.Edges()
	churnOf := make(map[[2]int]bool)
	for len(in.Churn) < dsvcChurn {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || churnOf[[2]int{u, v}] {
			continue
		}
		churnOf[[2]int{u, v}] = true
		in.Churn = append(in.Churn, [2]int{u, v})
	}
	compatible := func(set []int, x int) bool {
		for _, y := range set {
			a, b := x, y
			if a > b {
				a, b = b, a
			}
			if a == b || g.HasEdge(a, b) || churnOf[[2]int{a, b}] {
				return false
			}
		}
		return true
	}
	for c := 0; c < dsvcClients; c++ {
		var sets [][]int
		for _, r := range rng.Perm(n) {
			sets = append(sets, []int{r})
		}
		for len(sets) < dsvcSetsPer {
			size := 1 + rng.Intn(3)
			var set []int
			for tries := 0; len(set) < size && tries < 32; tries++ {
				if x := rng.Intn(n); compatible(set, x) {
					set = append(set, x)
				}
			}
			sets = append(sets, set)
		}
		in.Sets = append(in.Sets, sets)
	}
}

// resName is the dsvc resource name of vertex i.
func resName(i int) string { return fmt.Sprintf("r%02d", i) }
