package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Config assembles a Diner. All fields other than Options and Hooks are
// required.
type Config struct {
	// ID is this process's identity.
	ID int
	// Color is this process's static priority. The paper requires
	// locally unique colors: no neighbor may share it.
	Color int
	// NeighborColors maps each conflict-graph neighbor to its color.
	NeighborColors map[int]int
	// Suspects is the local ◇P₁ module: Suspects(j) reports whether
	// this process currently suspects neighbor j. A nil func never
	// suspects.
	Suspects func(j int) bool
	// Options tweak the algorithm for baselines and ablations.
	Options Options
	// Hooks observe state transitions.
	Hooks Hooks
}

// Options select algorithm variants. The zero value is the paper's
// Algorithm 1.
type Options struct {
	// DisableRepliedFlag reverts the modified doorway to the original
	// Choy–Singh ping-ack protocol: acks are granted whenever the
	// process is outside the doorway, with no per-hungry-session limit.
	// This is ablation D1; it forfeits the ◇2-BW guarantee (Theorem 3)
	// while keeping safety and wait-freedom.
	DisableRepliedFlag bool
	// IgnoreDetector makes the diner never consult ◇P₁. Together with
	// the default doorway this yields the original Choy–Singh
	// asynchronous doorway algorithm, which is not wait-free: a crashed
	// neighbor blocks the doorway and fork collection forever.
	IgnoreDetector bool
	// AcksPerSession generalizes the paper's modified doorway from "at
	// most one ack per neighbor per hungry session" to at most m: the
	// fairness guarantee becomes eventual (m+1)-bounded waiting — the
	// general "k" of the paper's title, of which Algorithm 1 is the
	// m = 1, k = 2 instance (the +1 is an ack that can be in flight
	// from just before the session started, exactly as in the paper's
	// Theorem 3 proof). Zero means 1; ignored when DisableRepliedFlag
	// is set (which is the m = ∞ limit).
	AcksPerSession int
}

// ackLimit returns the per-session ack budget, or -1 for unlimited.
func (o Options) ackLimit() int {
	if o.DisableRepliedFlag {
		return -1
	}
	if o.AcksPerSession <= 0 {
		return 1
	}
	return o.AcksPerSession
}

// Hooks are optional transition observers. Any field may be nil.
type Hooks struct {
	// OnHungry fires on thinking → hungry.
	OnHungry func()
	// OnEnterDoorway fires when the diner passes the doorway (Action 5).
	OnEnterDoorway func()
	// OnEat fires on hungry → eating (Action 9).
	OnEat func()
	// OnExit fires on eating → thinking (Action 10).
	OnExit func()
}

// Diner is one process executing Algorithm 1. It is a single-threaded
// state machine; see Process for the calling contract.
type Diner struct {
	id        int
	color     int
	neighbors []int  // sorted, for deterministic message order
	edges     []edge // edges[i] is the edge to neighbors[i]
	suspects  func(j int) bool
	opts      Options
	hooks     Hooks

	state  State
	inside bool

	// out is the reused output buffer every action returns a prefix
	// of (the borrowed-result contract on Process).
	out []Message

	eatCount   int
	sessionSeq int // hungry sessions started
	err        error
}

// edge holds the protocol variables of the edge to one neighbor j:
// the paper's six booleans per neighbor (Section 7) plus j's color.
// `granted` generalizes the paper's boolean replied_ij to a counter so
// that AcksPerSession > 1 is expressible; at the default limit of 1 it
// carries one bit.
type edge struct {
	color    int  // j's color (for fork/token placement)
	granted  int  // acks sent to j during our current hungry session
	pinged   bool // pending ping initiated by us
	ack      bool // ack received this hungry session (pre-doorway)
	deferred bool // we owe j an ack after we exit the doorway
	fork     bool // we hold the fork shared with j
	token    bool // we hold the request token shared with j
}

// reset restores the edge to its NewDiner values for a process of
// color c: fork at the higher color, token at the lower, no pings,
// acks, deferrals or grants outstanding.
func (e *edge) reset(c int) {
	*e = edge{color: e.color, fork: c > e.color, token: c < e.color}
}

// edgeTo returns the record of the edge to neighbor j, or nil if j is
// not a neighbor.
func (d *Diner) edgeTo(j int) *edge {
	i := sort.SearchInts(d.neighbors, j)
	if i < len(d.neighbors) && d.neighbors[i] == j {
		return &d.edges[i]
	}
	return nil
}

var _ Process = (*Diner)(nil)

// Protocol-invariant violations. These correspond to the paper's
// Lemmas 1.1–1.2 and Lemma 2.2; over reliable FIFO channels they are
// unreachable, and the test suite relies on that.
var (
	ErrNotNeighbor    = errors.New("core: message from non-neighbor")
	ErrDuplicateFork  = errors.New("core: received fork while holding it (Lemma 1.2 violated)")
	ErrForkWithToken  = errors.New("core: received fork while holding token (FIFO violated)")
	ErrRequestNoFork  = errors.New("core: fork requested but not held (Lemma 1.1 violated)")
	ErrDuplicateToken = errors.New("core: received token while holding it")
	ErrUnsolicitedAck = errors.New("core: received ack with no pending ping (Lemma 2.2 violated)")
	ErrBadConfig      = errors.New("core: invalid configuration")
)

// NewDiner validates cfg and returns a ready (thinking) diner. Between
// each pair of neighbors the fork starts at the higher-colored process
// and the token at the lower-colored one, as the paper prescribes.
func NewDiner(cfg Config) (*Diner, error) {
	if len(cfg.NeighborColors) == 0 {
		// A diner with no neighbors is legal (it can always eat) but
		// callers usually indicate a wiring bug; allow it explicitly.
		// No error: isolated vertices occur in valid conflict graphs.
		_ = struct{}{}
	}
	d := &Diner{
		id:       cfg.ID,
		color:    cfg.Color,
		suspects: cfg.Suspects,
		opts:     cfg.Options,
		hooks:    cfg.Hooks,
		state:    Thinking,
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
	d.edges = make([]edge, len(d.neighbors))
	for i, j := range d.neighbors {
		c := cfg.NeighborColors[j]
		if j == cfg.ID {
			return nil, fmt.Errorf("%w: process %d lists itself as neighbor", ErrBadConfig, cfg.ID)
		}
		if c == cfg.Color {
			return nil, fmt.Errorf("%w: neighbors %d and %d share color %d", ErrBadConfig, cfg.ID, j, c)
		}
		d.edges[i].color = c
		d.edges[i].reset(cfg.Color)
	}
	return d, nil
}

// ID returns the diner's process ID.
func (d *Diner) ID() int { return d.id }

// Color returns the diner's static priority.
func (d *Diner) Color() int { return d.color }

// State implements Process.
func (d *Diner) State() State { return d.state }

// Inside reports whether the diner is inside the doorway.
func (d *Diner) Inside() bool { return d.inside }

// HoldsFork reports whether the diner holds the fork shared with j.
func (d *Diner) HoldsFork(j int) bool {
	e := d.edgeTo(j)
	return e != nil && e.fork
}

// HoldsToken reports whether the diner holds the token shared with j.
func (d *Diner) HoldsToken(j int) bool {
	e := d.edgeTo(j)
	return e != nil && e.token
}

// EatCount returns how many times the diner has entered eating.
func (d *Diner) EatCount() int { return d.eatCount }

// Sessions returns how many hungry sessions the diner has started.
func (d *Diner) Sessions() int { return d.sessionSeq }

// Err implements Process.
func (d *Diner) Err() error { return d.err }

func (d *Diner) fail(err error, j int) {
	if d.err == nil {
		d.err = fmt.Errorf("diner %d, neighbor %d: %w", d.id, j, err)
	}
}

func (d *Diner) suspected(j int) bool {
	if d.opts.IgnoreDetector {
		return false
	}
	return d.suspects(j)
}

// BecomeHungry implements Process (Action 1): a thinking process may
// become hungry at any time.
func (d *Diner) BecomeHungry() []Message {
	if d.state != Thinking || d.err != nil {
		return nil
	}
	d.state = Hungry
	d.sessionSeq++
	if d.hooks.OnHungry != nil {
		d.hooks.OnHungry()
	}
	return d.fire(d.out[:0])
}

// Deliver implements Process (Actions 3, 4, 7, 8 plus the fixpoint of
// enabled internal actions).
func (d *Diner) Deliver(m Message) []Message {
	if d.err != nil {
		return nil
	}
	j := m.From
	e := d.edgeTo(j)
	if e == nil {
		d.fail(ErrNotNeighbor, j)
		return nil
	}
	out := d.out[:0]
	switch m.Kind {
	case Ping: // Action 3
		limit := d.opts.ackLimit()
		if d.inside || (limit >= 0 && e.granted >= limit) {
			e.deferred = true
		} else {
			out = append(out, Message{Kind: Ack, From: d.id, To: j})
			if limit >= 0 && d.state == Hungry {
				e.granted++
			}
		}
	case Ack: // Action 4
		if !e.pinged {
			d.fail(ErrUnsolicitedAck, j)
			return nil
		}
		e.ack = d.state == Hungry && !d.inside
		e.pinged = false
	case Request: // Action 7
		if e.token {
			d.fail(ErrDuplicateToken, j)
			return nil
		}
		if !e.fork {
			d.fail(ErrRequestNoFork, j)
			return nil
		}
		e.token = true
		if !d.inside || (d.state == Hungry && d.color < m.Color) {
			out = append(out, Message{Kind: Fork, From: d.id, To: j})
			e.fork = false
		}
	case Fork: // Action 8
		if e.fork {
			d.fail(ErrDuplicateFork, j)
			return nil
		}
		if e.token {
			d.fail(ErrForkWithToken, j)
			return nil
		}
		e.fork = true
	default:
		d.fail(fmt.Errorf("unknown message kind %v", m.Kind), j)
		return nil
	}
	return d.fire(out)
}

// ResetNeighbor reinitializes the protocol variables of the edge
// shared with neighbor j to their NewDiner values: fork at the higher
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
func (d *Diner) ResetNeighbor(j int) []Message {
	if d.err != nil {
		return nil
	}
	e := d.edgeTo(j)
	if e == nil {
		return nil
	}
	e.reset(d.color)
	return d.fire(d.out[:0])
}

// ReevaluateSuspicion implements Process: guards of Actions 5 and 9
// consult ◇P₁, so the runner invokes this when the local suspect set
// changes.
func (d *Diner) ReevaluateSuspicion() []Message {
	if d.err != nil {
		return nil
	}
	return d.fire(d.out[:0])
}

// ExitEating implements Process (Action 10): exit eating and the
// doorway, transit to thinking, and grant all deferred forks and acks.
func (d *Diner) ExitEating() []Message {
	if d.state != Eating || d.err != nil {
		return nil
	}
	d.inside = false
	d.state = Thinking
	out := d.releaseDeferred(d.out[:0])
	if d.hooks.OnExit != nil {
		d.hooks.OnExit()
	}
	return d.fire(out)
}

// releaseDeferred grants every deferred fork request and then every
// deferred ack, appending the messages to out. Both ExitEating and
// AbortHungry leave the doorway through it.
func (d *Diner) releaseDeferred(out []Message) []Message {
	for i := range d.edges {
		if e := &d.edges[i]; e.token && e.fork { // deferred fork request
			out = append(out, Message{Kind: Fork, From: d.id, To: d.neighbors[i]})
			e.fork = false
		}
	}
	for i := range d.edges {
		if e := &d.edges[i]; e.deferred { // deferred ping request
			out = append(out, Message{Kind: Ack, From: d.id, To: d.neighbors[i]})
			e.deferred = false
		}
	}
	return out
}

// fire runs the enabled internal actions (2, 5, 6, 9) to a fixpoint,
// appending any messages they emit to out, a prefix of the diner's
// output buffer, and keeps the (possibly regrown) buffer for reuse.
func (d *Diner) fire(out []Message) []Message {
	out = d.fixpoint(out)
	d.out = out
	return out
}

func (d *Diner) fixpoint(out []Message) []Message {
	for {
		switch {
		case d.state == Hungry && !d.inside:
			// Action 2: request missing acks (at most one pending ping
			// per neighbor, Lemma 2.2).
			progress := false
			for i := range d.edges {
				if e := &d.edges[i]; !e.pinged && !e.ack {
					out = append(out, Message{Kind: Ping, From: d.id, To: d.neighbors[i]})
					e.pinged = true
					progress = true
				}
			}
			// Action 5: enter the doorway when every neighbor granted
			// an ack or is suspected.
			if d.doorwayGuard() {
				d.inside = true
				for i := range d.edges {
					d.edges[i].ack = false
					d.edges[i].granted = 0
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
			for i := range d.edges {
				if e := &d.edges[i]; e.token && !e.fork {
					out = append(out, Message{Kind: Request, From: d.id, To: d.neighbors[i], Color: d.color})
					e.token = false
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

func (d *Diner) doorwayGuard() bool {
	for i, j := range d.neighbors {
		if !d.edges[i].ack && !d.suspected(j) {
			return false
		}
	}
	return true
}

func (d *Diner) eatGuard() bool {
	for i, j := range d.neighbors {
		if !d.edges[i].fork && !d.suspected(j) {
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
func (d *Diner) SpaceBits() int {
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

// Snapshot is a copy of a diner's protocol variables, exposed for tests
// and monitors.
type Snapshot struct {
	ID      int
	Color   int
	State   State
	Inside  bool
	Pinged  map[int]bool
	Acked   map[int]bool
	Defer   map[int]bool
	Replied map[int]bool
	Fork    map[int]bool
	Token   map[int]bool
}

// SetSuspects rebinds the diner's ◇P₁ module. The model checker uses it
// after Clone so each branched state consults its own crash set; a nil
// fn never suspects.
func (d *Diner) SetSuspects(fn func(j int) bool) {
	if fn == nil {
		fn = func(int) bool { return false }
	}
	d.suspects = fn
}

// Clone returns a deep copy of the diner sharing the suspects oracle
// and hooks, but not the output buffer. Used by the model checker to
// branch executions.
func (d *Diner) Clone() *Diner {
	c := *d
	c.neighbors = append([]int(nil), d.neighbors...)
	c.edges = append([]edge(nil), d.edges...)
	c.out = nil
	return &c
}

// AcksGranted returns how many acks were sent to j during the current
// hungry session (the generalized replied_ij counter).
func (d *Diner) AcksGranted(j int) int {
	if e := d.edgeTo(j); e != nil {
		return e.granted
	}
	return 0
}

// StateKey serializes the protocol-relevant variables canonically (for
// model-checker state hashing). Session and eat counters are excluded:
// they grow without bound and do not influence future behavior.
func (d *Diner) StateKey() string {
	var b []byte
	b = append(b, byte('0'+int(d.state)))
	if d.inside {
		b = append(b, 'I')
	}
	for i := range d.edges {
		e := &d.edges[i]
		b = append(b, ';')
		if e.pinged {
			b = append(b, 'p')
		}
		if e.ack {
			b = append(b, 'a')
		}
		if e.deferred {
			b = append(b, 'D')
		}
		if g := e.granted; g > 0 {
			b = append(b, 'g', byte('0'+g%10))
		}
		if e.fork {
			b = append(b, 'f')
		}
		if e.token {
			b = append(b, 't')
		}
	}
	return string(b)
}

// Snapshot returns a deep copy of the diner's current variables, one
// map entry per neighbor. Replied projects the generalized grant
// counters onto the paper's boolean replied_ij: true iff any ack was
// granted this session.
func (d *Diner) Snapshot() Snapshot {
	n := len(d.neighbors)
	s := Snapshot{
		ID:      d.id,
		Color:   d.color,
		State:   d.state,
		Inside:  d.inside,
		Pinged:  make(map[int]bool, n),
		Acked:   make(map[int]bool, n),
		Defer:   make(map[int]bool, n),
		Replied: make(map[int]bool, n),
		Fork:    make(map[int]bool, n),
		Token:   make(map[int]bool, n),
	}
	for i, j := range d.neighbors {
		e := &d.edges[i]
		s.Pinged[j] = e.pinged
		s.Acked[j] = e.ack
		s.Defer[j] = e.deferred
		s.Replied[j] = e.granted > 0
		s.Fork[j] = e.fork
		s.Token[j] = e.token
	}
	return s
}
