package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestDifferentialAgainstMapDiner drives Diner and the map-based
// reference (refdiner_test.go) through the same seeded random schedule
// on small graphs: hungry/exit/deliver steps over per-edge FIFO queues,
// suspicion flips, edge resets, hungry aborts, edge splices and color
// changes, and occasional Clones; a quarter of the seeds also duplicate
// messages, to compare the protocol-violation paths. After every step
// the two must agree on the emitted messages and on every diner's
// observable state.
func TestDifferentialAgainstMapDiner(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			newDiffRun(t, seed).run(1500)
		})
	}
}

type diffRun struct {
	t      *testing.T
	rng    *rand.Rand
	n      int
	adj    [][]bool
	color  []int
	susp   [][]bool
	diners []*Diner
	refs   []*refDiner
	queues map[[2]int][]Message
	faulty bool // whether the schedule may duplicate messages
	step   int
	what   string
}

func newDiffRun(t *testing.T, seed int64) *diffRun {
	rng := rand.New(rand.NewSource(seed))
	r := &diffRun{t: t, rng: rng, n: 2 + rng.Intn(4), faulty: rng.Intn(4) == 0, queues: map[[2]int][]Message{}}
	r.adj = make([][]bool, r.n)
	r.susp = make([][]bool, r.n)
	for i := range r.adj {
		r.adj[i] = make([]bool, r.n)
		r.susp[i] = make([]bool, r.n)
	}
	for i := 0; i < r.n; i++ {
		for j := i + 1; j < r.n; j++ {
			if rng.Intn(3) > 0 {
				r.adj[i][j], r.adj[j][i] = true, true
			}
		}
	}
	// A proper coloring that reuses colors between non-neighbors.
	r.color = make([]int, r.n)
	for i := range r.color {
		for {
			c, ok := rng.Intn(r.n+2), true
			for j := 0; j < i; j++ {
				ok = ok && !(r.adj[i][j] && r.color[j] == c)
			}
			if ok {
				r.color[i] = c
				break
			}
		}
	}
	opts := []Options{{}, {}, {DisableRepliedFlag: true}, {AcksPerSession: 2}, {AcksPerSession: 3}, {IgnoreDetector: true}}[rng.Intn(6)]
	for i := 0; i < r.n; i++ {
		nbrs := map[int]int{}
		for j := 0; j < r.n; j++ {
			if r.adj[i][j] {
				nbrs[j] = r.color[j]
			}
		}
		cfg := Config{ID: i, Color: r.color[i], NeighborColors: nbrs, Options: opts,
			Suspects: func(j int) bool { return r.susp[i][j] }}
		d, err := NewDiner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefDiner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.diners = append(r.diners, d)
		r.refs = append(r.refs, ref)
	}
	return r
}

// act runs the same action on diner i of both systems, compares the
// outputs and enqueues them.
func (r *diffRun) act(i int, what string, got func(*Diner) []Message, want func(*refDiner) []Message) {
	r.what = fmt.Sprintf("%s on %d", what, i)
	g, w := got(r.diners[i]), want(r.refs[i])
	if !slices.Equal(g, w) {
		r.t.Fatalf("step %d (%s): Diner emitted %v, reference %v", r.step, r.what, g, w)
	}
	for _, m := range g {
		k := [2]int{m.From, m.To}
		r.queues[k] = append(r.queues[k], m)
	}
}

// mutate runs the same graph mutation on both systems and compares the
// errors.
func (r *diffRun) mutate(i int, what string, got func(*Diner) error, want func(*refDiner) error) bool {
	r.what = fmt.Sprintf("%s on %d", what, i)
	g, w := got(r.diners[i]), want(r.refs[i])
	if fmt.Sprint(g) != fmt.Sprint(w) {
		r.t.Fatalf("step %d (%s): Diner returned %v, reference %v", r.step, r.what, g, w)
	}
	return g == nil
}

// quiet reports whether no message is in flight between i and j.
func (r *diffRun) quiet(i, j int) bool {
	return len(r.queues[[2]int{i, j}]) == 0 && len(r.queues[[2]int{j, i}]) == 0
}

func (r *diffRun) run(steps int) {
	for r.step = 0; r.step < steps; r.step++ {
		i, j := r.rng.Intn(r.n), r.rng.Intn(r.n)
		switch k := r.rng.Intn(100); {
		case k < 15:
			r.act(i, "BecomeHungry", (*Diner).BecomeHungry, (*refDiner).BecomeHungry)
		case k < 25:
			r.act(i, "ExitEating", (*Diner).ExitEating, (*refDiner).ExitEating)
		case k < 75:
			r.deliver()
		case k < 83:
			r.susp[i][j] = !r.susp[i][j]
			r.act(i, "ReevaluateSuspicion", (*Diner).ReevaluateSuspicion, (*refDiner).ReevaluateSuspicion)
		case k < 86:
			// Crash recovery of edge {i, j}: in-flight messages are lost
			// and both ends re-seed the edge.
			delete(r.queues, [2]int{i, j})
			delete(r.queues, [2]int{j, i})
			reset := func(a, b int) {
				r.act(a, fmt.Sprint("ResetNeighbor ", b), func(d *Diner) []Message { return d.ResetNeighbor(b) },
					func(d *refDiner) []Message { return d.ResetNeighbor(b) })
			}
			reset(i, j)
			reset(j, i)
		case k < 90:
			r.act(i, "AbortHungry", (*Diner).AbortHungry, (*refDiner).AbortHungry)
		case k < 94:
			r.splice(i, j)
		case k < 97:
			r.recolor(i)
		case k < 99 || !r.faulty:
			// Branch like the model checker, then drive the original on:
			// the clone must not share its state.
			d, ref := r.diners[i], r.refs[i]
			r.diners[i], r.refs[i] = d.Clone(), ref.Clone()
			d.BecomeHungry()
			d.ReevaluateSuspicion()
			ref.BecomeHungry()
			ref.ReevaluateSuspicion()
			r.what = fmt.Sprintf("Clone of %d", i)
		default:
			// A duplicated message breaks the channel contract: both
			// diners must report the same protocol violation.
			r.duplicate()
		}
		r.compare()
	}
}

func (r *diffRun) duplicate() {
	for _, k := range r.liveQueues() {
		r.queues[k] = append([]Message{r.queues[k][0]}, r.queues[k]...)
		r.what = fmt.Sprint("duplicate ", r.queues[k][0])
		return
	}
}

// liveQueues lists the non-empty queues in a fixed order.
func (r *diffRun) liveQueues() [][2]int {
	var live [][2]int
	for k, q := range r.queues {
		if len(q) > 0 {
			live = append(live, k)
		}
	}
	slices.SortFunc(live, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return live
}

func (r *diffRun) deliver() {
	live := r.liveQueues()
	if len(live) == 0 {
		r.what = "no message in flight"
		return
	}
	k := live[r.rng.Intn(len(live))]
	m := r.queues[k][0]
	r.queues[k] = r.queues[k][1:]
	r.act(m.To, fmt.Sprint("Deliver ", m), func(d *Diner) []Message { return d.Deliver(m) },
		func(d *refDiner) []Message { return d.Deliver(m) })
}

// splice removes edge {i, j} if present, else adds it, on both ends,
// once both are Thinking and the edge is drained, as the dsvc drain
// protocol arranges. On a busy endpoint it only compares the refusal.
func (r *diffRun) splice(i, j int) {
	if i == j {
		return
	}
	if busy := r.busy(i, j); busy >= 0 {
		r.mutate(busy, "RemoveNeighbor (busy)", func(d *Diner) error { return d.RemoveNeighbor(i + j - busy) },
			func(d *refDiner) error { return d.RemoveNeighbor(i + j - busy) })
		return
	}
	if !r.quiet(i, j) {
		return
	}
	if r.adj[i][j] {
		r.mutate(i, fmt.Sprint("RemoveNeighbor ", j), func(d *Diner) error { return d.RemoveNeighbor(j) },
			func(d *refDiner) error { return d.RemoveNeighbor(j) })
		r.mutate(j, fmt.Sprint("RemoveNeighbor ", i), func(d *Diner) error { return d.RemoveNeighbor(i) },
			func(d *refDiner) error { return d.RemoveNeighbor(i) })
		r.adj[i][j], r.adj[j][i] = false, false
		return
	}
	ci, cj := r.color[i], r.color[j]
	// Equal colors are refused on both ends alike.
	ok := r.mutate(i, fmt.Sprint("AddNeighbor ", j), func(d *Diner) error { return d.AddNeighbor(j, cj) },
		func(d *refDiner) error { return d.AddNeighbor(j, cj) })
	r.mutate(j, fmt.Sprint("AddNeighbor ", i), func(d *Diner) error { return d.AddNeighbor(i, ci) },
		func(d *refDiner) error { return d.AddNeighbor(i, ci) })
	r.adj[i][j], r.adj[j][i] = ok, ok
}

// recolor gives i a fresh color and tells its neighbors, once i and
// its neighbors are Thinking and i's edges are drained. On a busy
// diner it only compares the refusal; a color clash is refused too.
func (r *diffRun) recolor(i int) {
	c := r.rng.Intn(r.n + 2)
	for j := 0; j < r.n; j++ {
		if r.adj[i][j] && (r.busy(i, j) == j || !r.quiet(i, j)) {
			return
		}
	}
	if !r.mutate(i, fmt.Sprint("SetColor ", c), func(d *Diner) error { return d.SetColor(c) },
		func(d *refDiner) error { return d.SetColor(c) }) {
		return
	}
	r.color[i] = c
	for j := 0; j < r.n; j++ {
		if r.adj[i][j] {
			r.mutate(j, fmt.Sprintf("SetNeighborColor %d %d", i, c), func(d *Diner) error { return d.SetNeighborColor(i, c) },
				func(d *refDiner) error { return d.SetNeighborColor(i, c) })
		}
	}
}

// busy returns i or j if that diner is not Thinking (i first), else -1.
func (r *diffRun) busy(i, j int) int {
	for _, k := range []int{i, j} {
		if r.diners[k].State() != Thinking {
			return k
		}
	}
	return -1
}

// compare checks every diner against its reference.
func (r *diffRun) compare() {
	type view struct {
		state                       State
		inside                      bool
		key, err                    string
		bits, eats, sessions, color int
	}
	type edgeView struct {
		pinged, acked, deferred, replied, fork, token bool
		holdsFork, holdsToken                         bool
		granted, color                                int
		ok                                            bool
	}
	for i, d := range r.diners {
		ref := r.refs[i]
		g := view{d.State(), d.Inside(), d.StateKey(), fmt.Sprint(d.Err()), d.SpaceBits(), d.EatCount(), d.Sessions(), d.Color()}
		w := view{ref.State(), ref.Inside(), ref.StateKey(), fmt.Sprint(ref.Err()), ref.SpaceBits(), ref.EatCount(), ref.Sessions(), ref.Color()}
		if g != w || !slices.Equal(d.Neighbors(), ref.Neighbors()) {
			r.t.Fatalf("step %d (%s): diner %d is %+v %v, reference %+v %v", r.step, r.what, i, g, d.Neighbors(), w, ref.Neighbors())
		}
		gs, ws := d.Snapshot(), ref.Snapshot()
		for j := -1; j <= r.n; j++ {
			gc, gok := d.NeighborColor(j)
			wc, wok := ref.NeighborColor(j)
			ge := edgeView{gs.Pinged[j], gs.Acked[j], gs.Defer[j], gs.Replied[j], gs.Fork[j], gs.Token[j],
				d.HoldsFork(j), d.HoldsToken(j), d.AcksGranted(j), gc, gok}
			we := edgeView{ws.Pinged[j], ws.Acked[j], ws.Defer[j], ws.Replied[j], ws.Fork[j], ws.Token[j],
				ref.HoldsFork(j), ref.HoldsToken(j), ref.AcksGranted(j), wc, wok}
			if ge != we {
				r.t.Fatalf("step %d (%s): diner %d edge %d is %+v, reference %+v", r.step, r.what, i, j, ge, we)
			}
		}
	}
}
