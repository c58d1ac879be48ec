package core

// The map-based Diner as it stood before the per-neighbor edge records
// and the reused output buffer, kept verbatim (type and constructor
// renamed to refDiner and newRefDiner, package-level declarations it
// shares with Diner dropped) as the reference for the differential test
// in differential_test.go. Do not edit it to track Diner: it pins the
// behavior Diner must keep.

import (
	"fmt"
	"math/bits"
	"sort"
)

// refDiner is one process executing Algorithm 1. It is a single-threaded
// state machine; see Process for the calling contract.
type refDiner struct {
	id        int
	color     int
	neighbors []int       // sorted, for deterministic message order
	colorOf   map[int]int // neighbor colors (for initial fork placement)
	suspects  func(j int) bool
	opts      Options
	hooks     Hooks

	state  State
	inside bool

	// Per-neighbor protocol variables, exactly the paper's nine
	// variable families (state, inside, color above; six booleans per
	// neighbor below — `granted` generalizes the paper's boolean
	// replied_ij to a counter so that AcksPerSession > 1 is
	// expressible; at the default limit of 1 it carries one bit).
	pinged   map[int]bool // pending ping initiated by us
	ack      map[int]bool // ack received this hungry session (pre-doorway)
	deferred map[int]bool // we owe j an ack after we exit the doorway
	granted  map[int]int  // acks sent to j during our current hungry session
	fork     map[int]bool // we hold the fork shared with j
	token    map[int]bool // we hold the request token shared with j

	eatCount   int
	sessionSeq int // hungry sessions started
	err        error
}

// newRefDiner validates cfg and returns a ready (thinking) diner. Between
// each pair of neighbors the fork starts at the higher-colored process
// and the token at the lower-colored one, as the paper prescribes.
func newRefDiner(cfg Config) (*refDiner, error) {
	if len(cfg.NeighborColors) == 0 {
		// A diner with no neighbors is legal (it can always eat) but
		// callers usually indicate a wiring bug; allow it explicitly.
		// No error: isolated vertices occur in valid conflict graphs.
		_ = struct{}{}
	}
	d := &refDiner{
		id:       cfg.ID,
		color:    cfg.Color,
		colorOf:  make(map[int]int, len(cfg.NeighborColors)),
		suspects: cfg.Suspects,
		opts:     cfg.Options,
		hooks:    cfg.Hooks,
		state:    Thinking,
		pinged:   make(map[int]bool, len(cfg.NeighborColors)),
		ack:      make(map[int]bool, len(cfg.NeighborColors)),
		deferred: make(map[int]bool, len(cfg.NeighborColors)),
		granted:  make(map[int]int, len(cfg.NeighborColors)),
		fork:     make(map[int]bool, len(cfg.NeighborColors)),
		token:    make(map[int]bool, len(cfg.NeighborColors)),
	}
	if d.suspects == nil {
		d.suspects = func(int) bool { return false }
	}
	// Wire neighbors in sorted ID order. Iterating the map directly
	// would let Go's randomized iteration order pick which configuration
	// error gets reported — a small but real nondeterminism.
	for j := range cfg.NeighborColors {
		d.neighbors = append(d.neighbors, j)
	}
	sort.Ints(d.neighbors)
	for _, j := range d.neighbors {
		c := cfg.NeighborColors[j]
		if j == cfg.ID {
			return nil, fmt.Errorf("%w: process %d lists itself as neighbor", ErrBadConfig, cfg.ID)
		}
		if c == cfg.Color {
			return nil, fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, cfg.ID, j, c)
		}
		d.colorOf[j] = c
		if cfg.Color > c {
			d.fork[j] = true
		} else {
			d.token[j] = true
		}
	}
	return d, nil
}

// ID returns the diner's process ID.
func (d *refDiner) ID() int { return d.id }

// Color returns the diner's static priority.
func (d *refDiner) Color() int { return d.color }

// State implements Process.
func (d *refDiner) State() State { return d.state }

// Inside reports whether the diner is inside the doorway.
func (d *refDiner) Inside() bool { return d.inside }

// HoldsFork reports whether the diner holds the fork shared with j.
func (d *refDiner) HoldsFork(j int) bool { return d.fork[j] }

// HoldsToken reports whether the diner holds the token shared with j.
func (d *refDiner) HoldsToken(j int) bool { return d.token[j] }

// EatCount returns how many times the diner has entered eating.
func (d *refDiner) EatCount() int { return d.eatCount }

// Sessions returns how many hungry sessions the diner has started.
func (d *refDiner) Sessions() int { return d.sessionSeq }

// Err implements Process.
func (d *refDiner) Err() error { return d.err }

func (d *refDiner) fail(err error, j int) {
	if d.err == nil {
		d.err = fmt.Errorf("diner %d, neighbor %d: %w", d.id, j, err)
	}
}

func (d *refDiner) suspected(j int) bool {
	if d.opts.IgnoreDetector {
		return false
	}
	return d.suspects(j)
}

// BecomeHungry implements Process (Action 1): a thinking process may
// become hungry at any time.
func (d *refDiner) BecomeHungry() []Message {
	if d.state != Thinking || d.err != nil {
		return nil
	}
	d.state = Hungry
	d.sessionSeq++
	if d.hooks.OnHungry != nil {
		d.hooks.OnHungry()
	}
	return d.fire(nil)
}

// Deliver implements Process (Actions 3, 4, 7, 8 plus the fixpoint of
// enabled internal actions).
func (d *refDiner) Deliver(m Message) []Message {
	if d.err != nil {
		return nil
	}
	j := m.From
	if _, ok := d.colorOf[j]; !ok {
		d.fail(ErrNotNeighbor, j)
		return nil
	}
	var out []Message
	switch m.Kind {
	case Ping: // Action 3
		limit := d.opts.ackLimit()
		if d.inside || (limit >= 0 && d.granted[j] >= limit) {
			d.deferred[j] = true
		} else {
			out = append(out, Message{Kind: Ack, From: d.id, To: j})
			if limit >= 0 && d.state == Hungry {
				d.granted[j]++
			}
		}
	case Ack: // Action 4
		if !d.pinged[j] {
			d.fail(ErrUnsolicitedAck, j)
			return nil
		}
		d.ack[j] = d.state == Hungry && !d.inside
		d.pinged[j] = false
	case Request: // Action 7
		if d.token[j] {
			d.fail(ErrDuplicateToken, j)
			return nil
		}
		if !d.fork[j] {
			d.fail(ErrRequestNoFork, j)
			return nil
		}
		d.token[j] = true
		if !d.inside || (d.state == Hungry && d.color < m.Color) {
			out = append(out, Message{Kind: Fork, From: d.id, To: j})
			d.fork[j] = false
		}
	case Fork: // Action 8
		if d.fork[j] {
			d.fail(ErrDuplicateFork, j)
			return nil
		}
		if d.token[j] {
			d.fail(ErrForkWithToken, j)
			return nil
		}
		d.fork[j] = true
	default:
		d.fail(fmt.Errorf("unknown message kind %v", m.Kind), j)
		return nil
	}
	return d.fire(out)
}

// ResetNeighbor reinitializes the protocol variables of the edge
// shared with neighbor j to their newRefDiner values: fork at the higher
// color, token at the lower, no pings, acks, deferrals, or grants
// outstanding. The crash-recovery runtime calls it on the surviving
// side when neighbor j restarts with fresh dining state: j's reborn
// diner holds exactly the initial placement for this edge, so the
// survivor must adopt the complementary half. Without the reset both
// endpoints can believe they hold the edge's one fork — the survivor
// acquired it legitimately before the crash, the restarted side
// re-seeded it by color — and since neither ever requests it, no
// message flows and no local invariant trips while the two eat
// concurrently forever. After the reset the enabled internal actions
// re-fire: a hungry survivor re-pings j, and one inside the doorway
// re-requests the fork if the reset left it holding the token.
//
// A reset mid-session can transiently break exclusion (a survivor
// eating on a fork the reset just reassigned finishes its meal), which
// is inherent to recovery: the paper's guarantees are eventual, and
// the chaos harness asserts them only after stabilization.
func (d *refDiner) ResetNeighbor(j int) []Message {
	if d.err != nil {
		return nil
	}
	c, ok := d.colorOf[j]
	if !ok {
		return nil
	}
	d.pinged[j] = false
	d.ack[j] = false
	d.deferred[j] = false
	d.granted[j] = 0
	d.fork[j] = d.color > c
	d.token[j] = d.color < c
	return d.fire(nil)
}

// ReevaluateSuspicion implements Process: guards of Actions 5 and 9
// consult ◇P₁, so the runner invokes this when the local suspect set
// changes.
func (d *refDiner) ReevaluateSuspicion() []Message {
	if d.err != nil {
		return nil
	}
	return d.fire(nil)
}

// ExitEating implements Process (Action 10): exit eating and the
// doorway, transit to thinking, and grant all deferred forks and acks.
func (d *refDiner) ExitEating() []Message {
	if d.state != Eating || d.err != nil {
		return nil
	}
	d.inside = false
	d.state = Thinking
	var out []Message
	for _, j := range d.neighbors {
		if d.token[j] && d.fork[j] { // deferred fork request
			out = append(out, Message{Kind: Fork, From: d.id, To: j})
			d.fork[j] = false
		}
	}
	for _, j := range d.neighbors {
		if d.deferred[j] { // deferred ping request
			out = append(out, Message{Kind: Ack, From: d.id, To: j})
			d.deferred[j] = false
		}
	}
	if d.hooks.OnExit != nil {
		d.hooks.OnExit()
	}
	return d.fire(out)
}

// fire runs the enabled internal actions (2, 5, 6, 9) to a fixpoint,
// appending any messages they emit to out.
func (d *refDiner) fire(out []Message) []Message {
	for {
		switch {
		case d.state == Hungry && !d.inside:
			// Action 2: request missing acks (at most one pending ping
			// per neighbor, Lemma 2.2).
			progress := false
			for _, j := range d.neighbors {
				if !d.pinged[j] && !d.ack[j] {
					out = append(out, Message{Kind: Ping, From: d.id, To: j})
					d.pinged[j] = true
					progress = true
				}
			}
			// Action 5: enter the doorway when every neighbor granted
			// an ack or is suspected.
			if d.doorwayGuard() {
				d.inside = true
				for _, j := range d.neighbors {
					d.ack[j] = false
					d.granted[j] = 0
				}
				if d.hooks.OnEnterDoorway != nil {
					d.hooks.OnEnterDoorway()
				}
				continue
			}
			if progress {
				continue
			}
			return out
		case d.state == Hungry && d.inside:
			// Action 6: request missing forks where we hold the token.
			progress := false
			for _, j := range d.neighbors {
				if d.token[j] && !d.fork[j] {
					out = append(out, Message{Kind: Request, From: d.id, To: j, Color: d.color})
					d.token[j] = false
					progress = true
				}
			}
			// Action 9: eat when every fork is held or its holder is
			// suspected.
			if d.eatGuard() {
				d.state = Eating
				d.eatCount++
				if d.hooks.OnEat != nil {
					d.hooks.OnEat()
				}
				return out
			}
			if progress {
				continue
			}
			return out
		default:
			return out
		}
	}
}

func (d *refDiner) doorwayGuard() bool {
	for _, j := range d.neighbors {
		if !d.ack[j] && !d.suspected(j) {
			return false
		}
	}
	return true
}

func (d *refDiner) eatGuard() bool {
	for _, j := range d.neighbors {
		if !d.fork[j] && !d.suspected(j) {
			return false
		}
	}
	return true
}

// SpaceBits returns the number of bits of protocol state this diner
// holds: six booleans per neighbor, the two state variables, and the
// color, matching the paper's Section 7 bound of log₂(δ)+6δ+c bits
// (with colors drawn from an O(δ) palette). With AcksPerSession m > 1
// the replied bit widens to a ⌈log₂(m+1)⌉-bit counter per neighbor.
func (d *refDiner) SpaceBits() int {
	delta := len(d.neighbors)
	colorBits := bits.Len(uint(d.color)) // ≈ log₂(color)
	if colorBits == 0 {
		colorBits = 1
	}
	grantBits := 1
	if limit := d.opts.ackLimit(); limit > 1 {
		grantBits = bits.Len(uint(limit))
	}
	const stateBits = 2 + 1 // trivalent state + inside flag
	return colorBits + (5+grantBits)*delta + stateBits
}

// snapshot support for white-box tests ------------------------------
// SetSuspects rebinds the diner's ◇P₁ module. The model checker uses it
// after Clone so each branched state consults its own crash set; a nil
// fn never suspects.
func (d *refDiner) SetSuspects(fn func(j int) bool) {
	if fn == nil {
		fn = func(int) bool { return false }
	}
	d.suspects = fn
}

// Clone returns a deep copy of the diner sharing the suspects oracle
// and hooks. Used by the model checker to branch executions.
func (d *refDiner) Clone() *refDiner {
	cpB := func(m map[int]bool) map[int]bool {
		out := make(map[int]bool, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	cpI := func(m map[int]int) map[int]int {
		out := make(map[int]int, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	nbrs := make([]int, len(d.neighbors))
	copy(nbrs, d.neighbors)
	return &refDiner{
		id:         d.id,
		color:      d.color,
		neighbors:  nbrs,
		colorOf:    cpI(d.colorOf),
		suspects:   d.suspects,
		opts:       d.opts,
		hooks:      d.hooks,
		state:      d.state,
		inside:     d.inside,
		pinged:     cpB(d.pinged),
		ack:        cpB(d.ack),
		deferred:   cpB(d.deferred),
		granted:    cpI(d.granted),
		fork:       cpB(d.fork),
		token:      cpB(d.token),
		eatCount:   d.eatCount,
		sessionSeq: d.sessionSeq,
		err:        d.err,
	}
}

// refRepliedView projects the generalized grant counters onto the paper's
// boolean replied_ij view: true iff any ack was granted this session.
func refRepliedView(granted map[int]int) map[int]bool {
	out := make(map[int]bool, len(granted))
	for j, n := range granted {
		out[j] = n > 0
	}
	return out
}

// AcksGranted returns how many acks were sent to j during the current
// hungry session (the generalized replied_ij counter).
func (d *refDiner) AcksGranted(j int) int { return d.granted[j] }

// StateKey serializes the protocol-relevant variables canonically (for
// model-checker state hashing). Session and eat counters are excluded:
// they grow without bound and do not influence future behavior.
func (d *refDiner) StateKey() string {
	var b []byte
	b = append(b, byte('0'+int(d.state)))
	if d.inside {
		b = append(b, 'I')
	}
	for _, j := range d.neighbors {
		b = append(b, ';')
		if d.pinged[j] {
			b = append(b, 'p')
		}
		if d.ack[j] {
			b = append(b, 'a')
		}
		if d.deferred[j] {
			b = append(b, 'D')
		}
		if g := d.granted[j]; g > 0 {
			b = append(b, 'g', byte('0'+g%10))
		}
		if d.fork[j] {
			b = append(b, 'f')
		}
		if d.token[j] {
			b = append(b, 't')
		}
	}
	return string(b)
}

// Snapshot returns a deep copy of the diner's current variables.
func (d *refDiner) Snapshot() Snapshot {
	cp := func(m map[int]bool) map[int]bool {
		out := make(map[int]bool, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	return Snapshot{
		ID:      d.id,
		Color:   d.color,
		State:   d.state,
		Inside:  d.inside,
		Pinged:  cp(d.pinged),
		Acked:   cp(d.ack),
		Defer:   cp(d.deferred),
		Replied: refRepliedView(d.granted),
		Fork:    cp(d.fork),
		Token:   cp(d.token),
	}
}

// Neighbors returns the diner's current neighbor IDs, sorted. The slice
// is a copy.
func (d *refDiner) Neighbors() []int {
	out := make([]int, len(d.neighbors))
	copy(out, d.neighbors)
	return out
}

// NeighborColor returns the color the diner believes neighbor j has,
// and whether j is a neighbor.
func (d *refDiner) NeighborColor(j int) (int, bool) {
	c, ok := d.colorOf[j]
	return c, ok
}

// AddNeighbor splices a new conflict edge to process j with color c,
// seeding fork/token placement exactly as newRefDiner does at boot: fork
// at the higher color, token at the lower. The counterpart on j must
// perform the complementary AddNeighbor in the same committed change.
func (d *refDiner) AddNeighbor(j, c int) error {
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
	if _, ok := d.colorOf[j]; ok {
		return fmt.Errorf("%w: %d is already a neighbor of %d", ErrBadConfig, j, d.id)
	}
	d.neighbors = refInsertSortedID(d.neighbors, j)
	d.colorOf[j] = c
	d.fork[j] = d.color > c
	d.token[j] = d.color < c
	return nil
}

// RemoveNeighbor severs the conflict edge to j, discarding the edge's
// protocol variables. The fork/token pair the edge carried simply
// ceases to exist; if the edge ever returns, AddNeighbor re-seeds it by
// color. Removing a non-neighbor is a no-op.
func (d *refDiner) RemoveNeighbor(j int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	if _, ok := d.colorOf[j]; !ok {
		return nil
	}
	for i, n := range d.neighbors {
		if n == j {
			d.neighbors = append(d.neighbors[:i], d.neighbors[i+1:]...)
			break
		}
	}
	delete(d.colorOf, j)
	delete(d.pinged, j)
	delete(d.ack, j)
	delete(d.deferred, j)
	delete(d.granted, j)
	delete(d.fork, j)
	delete(d.token, j)
	return nil
}

// SetColor changes the diner's own static priority and re-derives
// fork/token placement on EVERY edge from the new colors, as newRefDiner
// would. All neighbors are affected: each must be drained and receive
// the matching SetNeighborColor in the same committed change.
func (d *refDiner) SetColor(c int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	for _, j := range d.neighbors {
		if d.colorOf[j] == c {
			return fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, d.id, j, c)
		}
	}
	d.color = c
	for _, j := range d.neighbors {
		d.resetEdge(j)
	}
	return nil
}

// SetNeighborColor records neighbor j's new color and re-derives that
// edge's fork/token placement from boot rules — the counterpart of j's
// own SetColor.
func (d *refDiner) SetNeighborColor(j, c int) error {
	if d.err != nil {
		return d.err
	}
	if d.state != Thinking {
		return fmt.Errorf("%w: diner %d is %v", ErrMutateBusy, d.id, d.state)
	}
	if _, ok := d.colorOf[j]; !ok {
		return fmt.Errorf("%w: %d is not a neighbor of %d", ErrBadConfig, j, d.id)
	}
	if c == d.color {
		return fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, d.id, j, c)
	}
	d.colorOf[j] = c
	d.resetEdge(j)
	return nil
}

// resetEdge restores edge j's protocol variables to their newRefDiner
// values for the current colors (the body of ResetNeighbor, without the
// action refire — mutation entry points require Thinking, where no
// internal action is enabled).
func (d *refDiner) resetEdge(j int) {
	d.pinged[j] = false
	d.ack[j] = false
	d.deferred[j] = false
	d.granted[j] = 0
	d.fork[j] = d.color > d.colorOf[j]
	d.token[j] = d.color < d.colorOf[j]
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
func (d *refDiner) AbortHungry() []Message {
	if d.state != Hungry || d.err != nil {
		return nil
	}
	d.inside = false
	d.state = Thinking
	var out []Message
	for _, j := range d.neighbors {
		if d.token[j] && d.fork[j] { // deferred fork request
			out = append(out, Message{Kind: Fork, From: d.id, To: j})
			d.fork[j] = false
		}
	}
	for _, j := range d.neighbors {
		if d.deferred[j] { // deferred ping request
			out = append(out, Message{Kind: Ack, From: d.id, To: j})
			d.deferred[j] = false
		}
		d.ack[j] = false
		d.granted[j] = 0
	}
	return out
}

func refInsertSortedID(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
