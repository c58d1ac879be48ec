package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Dynamic conflict-graph support: neighbor-set and color mutation on a
// drained diner, plus the hungry-session abort the drain protocol uses
// to recall a competing process.
//
// The paper proves Algorithm 1 over a fixed conflict graph; the
// dining-as-a-service layer (internal/dsvc) changes edges and colors at
// runtime. The safety argument stays the paper's: a mutation is only
// legal on a diner that is Thinking and quiescent on the affected edges
// (no in-flight messages — the drain protocol's job), at which point
// re-deriving fork/token placement from the new colors is exactly the
// NewDiner boot argument. Every entry point below enforces the Thinking
// half of that precondition and leaves queue quiescence to the caller.

// ErrMutateBusy reports a neighbor-set or color mutation attempted on a
// diner that is not Thinking; the drain protocol must park it first.
var ErrMutateBusy = errors.New("core: graph mutation requires a thinking (drained) diner")

// Neighbors returns the diner's current neighbor IDs, sorted. The slice
// is a copy.
func (d *Diner) Neighbors() []int {
	out := make([]int, len(d.neighbors))
	copy(out, d.neighbors)
	return out
}

// NeighborColor returns the color the diner believes neighbor j has,
// and whether j is a neighbor.
func (d *Diner) NeighborColor(j int) (int, bool) {
	if e := d.edgeTo(j); e != nil {
		return e.color, true
	}
	return 0, false
}

// AddNeighbor splices a new conflict edge to process j with color c,
// seeding fork/token placement exactly as NewDiner does at boot: fork
// at the higher color, token at the lower. The counterpart on j must
// perform the complementary AddNeighbor in the same committed change.
func (d *Diner) AddNeighbor(j, c int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	if j == d.id {
		return fmt.Errorf("%w: process %d lists itself as neighbor", ErrBadConfig, d.id)
	}
	if c == d.color {
		return fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, d.id, j, c)
	}
	i := sort.SearchInts(d.neighbors, j)
	if i < len(d.neighbors) && d.neighbors[i] == j {
		return fmt.Errorf("%w: %d is already a neighbor of %d", ErrBadConfig, j, d.id)
	}
	d.neighbors = slices.Insert(d.neighbors, i, j)
	d.edges = slices.Insert(d.edges, i, edge{color: c})
	d.edges[i].reset(d.color)
	return nil
}

// RemoveNeighbor severs the conflict edge to j, discarding the edge's
// protocol variables. The fork/token pair the edge carried simply
// ceases to exist; if the edge ever returns, AddNeighbor re-seeds it by
// color. Removing a non-neighbor is a no-op.
func (d *Diner) RemoveNeighbor(j int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	i := sort.SearchInts(d.neighbors, j)
	if i == len(d.neighbors) || d.neighbors[i] != j {
		return nil
	}
	d.neighbors = slices.Delete(d.neighbors, i, i+1)
	d.edges = slices.Delete(d.edges, i, i+1)
	return nil
}

// SetColor changes the diner's own static priority and re-derives
// fork/token placement on EVERY edge from the new colors, as NewDiner
// would. All neighbors are affected: each must be drained and receive
// the matching SetNeighborColor in the same committed change.
func (d *Diner) SetColor(c int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	for i, j := range d.neighbors {
		if d.edges[i].color == c {
			return fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, d.id, j, c)
		}
	}
	d.color = c
	for i := range d.edges {
		d.edges[i].reset(c)
	}
	return nil
}

// SetNeighborColor records neighbor j's new color and re-derives that
// edge's fork/token placement from boot rules — the counterpart of j's
// own SetColor.
func (d *Diner) SetNeighborColor(j, c int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	e := d.edgeTo(j)
	if e == nil {
		return fmt.Errorf("%w: %d is not a neighbor of %d", ErrBadConfig, j, d.id)
	}
	if c == d.color {
		return fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, d.id, j, c)
	}
	// Re-derive the edge from boot rules, as ResetNeighbor does but
	// without the action refire: mutation entry points require
	// Thinking, where no internal action is enabled.
	e.color = c
	e.reset(d.color)
	return nil
}

// AbortHungry recalls a hungry diner to Thinking without eating — the
// drain protocol's lever for pulling a competitor out of the doorway so
// an affected edge can quiesce. Like ExitEating it settles every
// deferred obligation on the way out: deferred fork requests are
// granted (the diner no longer competes, so holding the fork back would
// starve the requester) and deferred acks are released. Received acks
// and the per-session grant counters are cleared so the next ping from
// any neighbor is answered immediately. Forks and tokens stay where
// they are; holding them while Thinking is legal (Action 7 grants a
// request from Thinking unconditionally). A no-op unless Hungry.
func (d *Diner) AbortHungry() []Message {
	if d.state != Hungry || d.err != nil {
		return nil
	}
	d.inside = false
	d.state = Thinking
	d.out = d.releaseDeferred(d.out[:0])
	for i := range d.edges {
		d.edges[i].ack = false
		d.edges[i].granted = 0
	}
	return d.out
}
