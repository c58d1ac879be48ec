package core

import (
	"errors"
	"slices"
	"testing"
)

// deliverAll routes a batch of messages to their recipients, appending
// any responses to the work list until quiescence. Deterministic: FIFO
// over the batch order.
func deliverAll(t *testing.T, diners map[int]*Diner, msgs []Message) {
	t.Helper()
	msgs = slices.Clone(msgs) // a diner's result is borrowed
	for len(msgs) > 0 {
		m := msgs[0]
		msgs = msgs[1:]
		d, ok := diners[m.To]
		if !ok {
			t.Fatalf("message to unknown diner %d", m.To)
		}
		msgs = append(msgs, d.Deliver(m)...)
		if err := d.Err(); err != nil {
			t.Fatalf("diner %d: %v", m.To, err)
		}
	}
}

func mustDiner(t *testing.T, id, color int, nbr map[int]int) *Diner {
	t.Helper()
	d, err := NewDiner(Config{ID: id, Color: color, NeighborColors: nbr})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAddNeighborBootPlacement(t *testing.T) {
	a := mustDiner(t, 0, 0, nil)
	b := mustDiner(t, 1, 1, nil)
	if err := a.AddNeighbor(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNeighbor(0, 0); err != nil {
		t.Fatal(err)
	}
	if a.HoldsFork(1) || !a.HoldsToken(1) {
		t.Fatal("lower color should boot with token, not fork")
	}
	if !b.HoldsFork(0) || b.HoldsToken(0) {
		t.Fatal("higher color should boot with fork, not token")
	}
	// The spliced edge must actually carry a dining session.
	diners := map[int]*Diner{0: a, 1: b}
	deliverAll(t, diners, a.BecomeHungry())
	if a.State() != Eating {
		t.Fatalf("a = %v after hungry over spliced edge, want Eating", a.State())
	}
	deliverAll(t, diners, a.ExitEating())

	// Error paths.
	if err := a.AddNeighbor(0, 5); err == nil {
		t.Fatal("self-neighbor should error")
	}
	if err := a.AddNeighbor(2, 0); err == nil {
		t.Fatal("color collision should error")
	}
	if err := a.AddNeighbor(1, 1); err == nil {
		t.Fatal("duplicate neighbor should error")
	}
}

func TestRemoveNeighborSevers(t *testing.T) {
	a := mustDiner(t, 0, 0, map[int]int{1: 1})
	if err := a.RemoveNeighbor(1); err != nil {
		t.Fatal(err)
	}
	if got := a.Neighbors(); len(got) != 0 {
		t.Fatalf("neighbors = %v after removal", got)
	}
	if err := a.RemoveNeighbor(1); err != nil {
		t.Fatalf("double removal should be a no-op: %v", err)
	}
	// A message from the severed neighbor is now a protocol violation.
	a.Deliver(Message{Kind: Ping, From: 1, To: 0})
	if !errors.Is(a.Err(), ErrNotNeighbor) {
		t.Fatalf("err = %v, want ErrNotNeighbor", a.Err())
	}
	// With no neighbors the diner can always eat.
	b := mustDiner(t, 0, 0, map[int]int{1: 1})
	if err := b.RemoveNeighbor(1); err != nil {
		t.Fatal(err)
	}
	b.BecomeHungry()
	if b.State() != Eating {
		t.Fatalf("isolated diner = %v after hungry, want Eating", b.State())
	}
}

func TestMutationRequiresThinking(t *testing.T) {
	a := mustDiner(t, 0, 2, map[int]int{1: 1})
	a.BecomeHungry()
	if a.State() == Thinking {
		t.Fatal("setup: diner should not be thinking")
	}
	if err := a.AddNeighbor(2, 0); !errors.Is(err, ErrMutateBusy) {
		t.Fatalf("AddNeighbor err = %v, want ErrMutateBusy", err)
	}
	if err := a.RemoveNeighbor(1); !errors.Is(err, ErrMutateBusy) {
		t.Fatalf("RemoveNeighbor err = %v, want ErrMutateBusy", err)
	}
	if err := a.SetColor(5); !errors.Is(err, ErrMutateBusy) {
		t.Fatalf("SetColor err = %v, want ErrMutateBusy", err)
	}
	if err := a.SetNeighborColor(1, 5); !errors.Is(err, ErrMutateBusy) {
		t.Fatalf("SetNeighborColor err = %v, want ErrMutateBusy", err)
	}
}

func TestSetColorRederivesPlacement(t *testing.T) {
	a := mustDiner(t, 0, 0, map[int]int{1: 1})
	b := mustDiner(t, 1, 1, map[int]int{0: 0})
	if a.HoldsFork(1) || !b.HoldsFork(0) {
		t.Fatal("boot placement wrong")
	}
	if err := a.SetColor(2); err != nil {
		t.Fatal(err)
	}
	if err := b.SetNeighborColor(0, 2); err != nil {
		t.Fatal(err)
	}
	if !a.HoldsFork(1) || a.HoldsToken(1) {
		t.Fatal("a should hold the fork after recoloring above b")
	}
	if b.HoldsFork(0) || !b.HoldsToken(0) {
		t.Fatal("b should hold the token after a recolored above it")
	}
	// The recolored edge still works.
	diners := map[int]*Diner{0: a, 1: b}
	deliverAll(t, diners, b.BecomeHungry())
	if b.State() != Eating {
		t.Fatalf("b = %v, want Eating", b.State())
	}
	deliverAll(t, diners, b.ExitEating())
	// Collision validation.
	if err := a.SetColor(1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("SetColor collision err = %v, want ErrBadConfig", err)
	}
	if err := b.SetNeighborColor(0, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("SetNeighborColor collision err = %v, want ErrBadConfig", err)
	}
}

// TestAbortHungryFlushesDeferredFork scripts the interleaving where a
// hungry diner inside the doorway holds a deferred fork request, then
// is recalled: the abort must release the fork so the lower-priority
// requester is not starved.
func TestAbortHungryFlushesDeferredFork(t *testing.T) {
	// Path b(0) — a(1) — c(2). a boots holding the fork vs b and the
	// token vs c.
	a := mustDiner(t, 0, 1, map[int]int{1: 0, 2: 2})
	b := mustDiner(t, 1, 0, map[int]int{0: 1})
	c := mustDiner(t, 2, 2, map[int]int{0: 1})
	diners := map[int]*Diner{0: a, 1: b, 2: c}

	// Both a and b go hungry; a wins the doorway race and parks inside
	// waiting for c's fork; b's request for a's fork is deferred because
	// b's color is lower.
	aOut := a.BecomeHungry() // pings b, c
	// b pings a; the result is kept across b.Deliver below, so copy it.
	bOut := slices.Clone(b.BecomeHungry())
	var aAck []Message
	for _, m := range aOut {
		aAck = append(aAck, diners[m.To].Deliver(m)...) // acks back to a
	}
	var bAck []Message
	for _, m := range bOut {
		bAck = append(bAck, a.Deliver(m)...) // a hungry pre-doorway: acks b
	}
	var req []Message
	for _, m := range aAck {
		req = append(req, a.Deliver(m)...) // a inside; requests fork from c
	}
	for _, m := range bAck {
		req = append(req, b.Deliver(m)...) // b inside; requests fork from a
	}
	// Deliver only b's request to a (c's grant stays in flight): a is
	// inside with higher priority, so the request is deferred.
	for _, m := range req {
		if m.Kind == Request && m.To == 0 {
			if out := a.Deliver(m); len(out) != 0 {
				t.Fatalf("higher-priority insider granted fork: %v", out)
			}
		}
	}
	if !a.HoldsFork(1) || !a.HoldsToken(1) {
		t.Fatal("setup: a should hold fork+token vs b (deferred request)")
	}

	// Recall a: the deferred fork must flush to b, and b must eat.
	out := a.AbortHungry()
	if a.State() != Thinking || a.Inside() {
		t.Fatalf("a = %v inside=%v after abort, want thinking outside", a.State(), a.Inside())
	}
	forkSent := false
	for _, m := range out {
		if m.Kind == Fork && m.To == 1 {
			forkSent = true
		}
	}
	if !forkSent {
		t.Fatalf("abort emitted %v, want fork to b", out)
	}
	deliverAll(t, diners, out)
	if b.State() != Eating {
		t.Fatalf("b = %v after a's abort, want Eating", b.State())
	}
}

// TestAbortHungryClearsGrants: after an abort the per-session ack
// budget resets and deferred acks flush, so a neighbor's next ping is
// answered immediately instead of starving against a stale grant
// counter.
func TestAbortHungryClearsGrants(t *testing.T) {
	// a(0) with neighbors b(1) and c(2); c never answers, keeping a
	// pre-doorway (hungry) for the whole test.
	a := mustDiner(t, 0, 0, map[int]int{1: 1, 2: 2})
	b := mustDiner(t, 1, 1, map[int]int{0: 0})

	a.BecomeHungry() // pings b and c; we drop them
	bOut := b.BecomeHungry()
	var acks []Message
	for _, m := range bOut {
		acks = append(acks, a.Deliver(m)...) // first ping: acked, grant spent
	}
	if a.AcksGranted(1) != 1 {
		t.Fatalf("granted = %d, want 1", a.AcksGranted(1))
	}
	// b aborts and goes hungry again: its second ping hits a's spent
	// budget and is deferred.
	b.AbortHungry()
	for _, m := range acks {
		b.Deliver(m)
	}
	rePing := b.BecomeHungry()
	if len(rePing) == 0 {
		t.Fatal("setup: b should re-ping a")
	}
	for _, m := range rePing {
		if out := a.Deliver(m); len(out) != 0 {
			t.Fatalf("second ping in one session should defer, got %v", out)
		}
	}

	// Recalling a flushes the deferred ack and resets the budget.
	out := a.AbortHungry()
	ackSent := false
	for _, m := range out {
		if m.Kind == Ack && m.To == 1 {
			ackSent = true
		}
	}
	if !ackSent {
		t.Fatalf("abort emitted %v, want deferred ack to b", out)
	}
	if a.AcksGranted(1) != 0 {
		t.Fatalf("granted = %d after abort, want 0", a.AcksGranted(1))
	}
}

// TestAbortHungryNoOp: abort outside Hungry does nothing.
func TestAbortHungryNoOp(t *testing.T) {
	a := mustDiner(t, 0, 1, map[int]int{1: 0})
	if out := a.AbortHungry(); out != nil {
		t.Fatalf("thinking abort emitted %v", out)
	}
	b := mustDiner(t, 1, 0, map[int]int{0: 1})
	diners := map[int]*Diner{0: a, 1: b}
	deliverAll(t, diners, a.BecomeHungry())
	if a.State() != Eating {
		t.Fatalf("setup: a = %v, want Eating", a.State())
	}
	if out := a.AbortHungry(); out != nil {
		t.Fatalf("eating abort emitted %v", out)
	}
	if a.State() != Eating {
		t.Fatal("abort must not interrupt eating")
	}
}
