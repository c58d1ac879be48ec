// Package core implements Algorithm 1 of Song & Pike, "Eventually
// k-bounded Wait-Free Distributed Daemons" (DSN 2007): a dining
// philosophers algorithm for eventual weak exclusion (◇WX) that is
// wait-free under arbitrarily many crash faults and satisfies eventual
// 2-bounded waiting (◇2-BW), given the locally scope-restricted
// eventually perfect failure detector ◇P₁.
//
// The algorithm combines two mechanisms:
//
//   - A modified asynchronous doorway (Phase 1) for fairness: a hungry
//     process collects one acknowledgment per neighbor before entering
//     the doorway, and while hungry it grants at most one ack per
//     neighbor per hungry session (the "replied" flag). Suspicion from
//     ◇P₁ substitutes for acks from crashed neighbors.
//   - Fork collection with static color priorities (Phase 2) for
//     safety: each edge has a unique fork; conflicts go to the
//     higher-colored neighbor; forks are re-requested with a unique
//     per-edge token. Suspicion substitutes for forks held by crashed
//     neighbors.
//
// The Diner type is a pure state machine: inputs are message
// deliveries, hunger requests, eating exits, and failure-detector
// output changes; outputs are messages to send. It has no goroutines,
// no clocks, and no I/O, so the same code runs under the deterministic
// simulator (internal/sim) and the goroutine runtime (internal/live).
package core

import "fmt"

// State is a diner's phase in the dining abstraction.
type State int

// Diner states. Thinking processes execute independently; hungry
// processes are requesting the shared resources; eating processes are
// in their critical section.
const (
	Thinking State = iota + 1
	Hungry
	Eating
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Thinking:
		return "thinking"
	case Hungry:
		return "hungry"
	case Eating:
		return "eating"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MsgKind identifies one of the four dining message types of
// Algorithm 1. The paper's Section 7 bounds simultaneous in-transit
// messages per edge by four: at most one ping or ack initiated by each
// endpoint, plus the unique fork and the unique token.
type MsgKind int

// Message kinds.
const (
	// Ping requests a doorway acknowledgment (Action 2).
	Ping MsgKind = iota + 1
	// Ack grants doorway entry permission (Actions 3 and 10).
	Ack
	// Request asks for the shared fork and carries the requester's
	// color; sending it transfers the edge token (Action 6).
	Request
	// Fork transfers the shared fork (Actions 7 and 10).
	Fork
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case Ping:
		return "ping"
	case Ack:
		return "ack"
	case Request:
		return "request"
	case Fork:
		return "fork"
	default:
		return fmt.Sprintf("msg(%d)", int(k))
	}
}

// Message is a dining-layer message. Color is meaningful only for
// Request messages, where it carries the requester's static priority
// (the paper encodes the color in fork-request messages; both process
// IDs and colors need O(log n) bits, giving O(log n)-bit messages).
type Message struct {
	Kind     MsgKind
	From, To int
	Color    int
}

// String implements fmt.Stringer.
func (m Message) String() string {
	if m.Kind == Request {
		return fmt.Sprintf("%v(%d→%d, color=%d)", m.Kind, m.From, m.To, m.Color)
	}
	return fmt.Sprintf("%v(%d→%d)", m.Kind, m.From, m.To)
}

// Process is the interface shared by Algorithm 1 and the baseline
// dining algorithms so that one experiment runner can drive them all.
// Every method returns the messages to transmit; implementations are
// single-threaded state machines and the caller must serialize calls.
//
// The returned slice is borrowed, as with bufio.Scanner.Bytes: it is
// valid only until the next call on the same process, which may
// overwrite it. A caller that keeps messages across calls must copy
// them (the Message values themselves are plain data). Diner reuses
// one output buffer so that a steady-state dining step allocates
// nothing. Hooks must not call back into the process.
type Process interface {
	// BecomeHungry transitions thinking → hungry (Action 1). It is a
	// no-op when not thinking.
	BecomeHungry() []Message
	// Deliver processes one received message.
	Deliver(m Message) []Message
	// ReevaluateSuspicion re-runs guards that depend on the failure
	// detector; the runner calls it when the local suspect set changes.
	ReevaluateSuspicion() []Message
	// ExitEating transitions eating → thinking (Action 10). It is a
	// no-op when not eating.
	ExitEating() []Message
	// State returns the current dining phase.
	State() State
	// Err returns the first protocol-invariant violation detected
	// locally, or nil. A correct implementation over reliable FIFO
	// channels never reports one.
	Err() error
}
