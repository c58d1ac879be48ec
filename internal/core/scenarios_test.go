package core

import (
	"slices"
	"testing"
)

// Scenario tests reproducing the corner cases the paper's proofs argue
// about explicitly.

// TestMutualSuspicionSimultaneousDoorwayEntry reproduces the Section 3
// remark: "If two neighbors suspect each other (before ◇P₁ converges),
// then both can enter the doorway regardless of ack messages" — and the
// color-priority fork scheme must then resolve the symmetry in Phase 2.
func TestMutualSuspicionSimultaneousDoorwayEntry(t *testing.T) {
	a, b, aSusp, bSusp := pair(t, 3, 1)
	*aSusp, *bSusp = true, true
	outA := a.BecomeHungry()
	outB := b.BecomeHungry()
	if !a.Inside() || !b.Inside() {
		t.Fatal("mutual suspicion must let both enter the doorway")
	}
	// a holds the fork (higher color) so it eats immediately on
	// suspicion+fork; b eats on suspicion alone — both eating is the
	// legal pre-convergence ◇WX mistake.
	if a.State() != Eating || b.State() != Eating {
		t.Fatalf("states: a=%v b=%v; suspicion should let both eat", a.State(), b.State())
	}
	// Detector converges: suspicion is withdrawn. The messages sent
	// during the mistake must not corrupt protocol state.
	*aSusp, *bSusp = false, false
	queue := slices.Concat(outA, outB)
	queue = append(queue, a.ExitEating()...)
	queue = append(queue, b.ExitEating()...)
	pump(t, a, b, queue)
	if a.Err() != nil || b.Err() != nil {
		t.Fatalf("post-mistake errors: %v / %v", a.Err(), b.Err())
	}
	// From now on the run must be clean: alternate eating forever.
	queue = append(a.BecomeHungry(), b.BecomeHungry()...)
	for round := 0; round < 50; round++ {
		pump(t, a, b, queue)
		queue = nil
		eatingA, eatingB := a.State() == Eating, b.State() == Eating
		if eatingA && eatingB {
			t.Fatalf("round %d: exclusion violated after convergence", round)
		}
		if !eatingA && !eatingB {
			t.Fatalf("round %d: nobody eats", round)
		}
		if eatingA {
			queue = append(queue, a.ExitEating()...)
			queue = append(queue, a.BecomeHungry()...)
		} else {
			queue = append(queue, b.ExitEating()...)
			queue = append(queue, b.BecomeHungry()...)
		}
	}
}

// TestTheoremThreeBoundIsTight constructs the paper's "+1" scenario:
// an ack sent just before the victim became hungry is still in transit,
// so the neighbor enters the doorway twice during one hungry session —
// exactly two overtakes, never three.
func TestTheoremThreeBoundIsTight(t *testing.T) {
	v, n, _, _ := pair(t, 1, 3) // victim v (low color), neighbor n (high)
	// n gets hungry and pings v, which is thinking: v acks immediately
	// (replied stays false because v is thinking).
	out := n.BecomeHungry()
	if len(out) != 1 || out[0].Kind != Ping {
		t.Fatalf("setup: %v", out)
	}
	ackToN := slices.Clone(v.Deliver(out[0])) // the "in-transit" ack, kept across v's next call
	if len(ackToN) != 1 || ackToN[0].Kind != Ack {
		t.Fatalf("setup ack: %v", ackToN)
	}
	// NOW v becomes hungry — the ack to n is still in transit.
	vOut := v.BecomeHungry()
	// Overtake #1: n receives the pre-session ack, enters, eats (it
	// holds the fork as the higher color).
	n.Deliver(ackToN[0])
	if n.State() != Eating {
		t.Fatalf("overtake 1 failed: n is %v", n.State())
	}
	exit1 := n.ExitEating()
	// v's ping (from vOut) reaches n only now; n re-becomes hungry and
	// pings v again; v is hungry outside and has not replied this
	// session → grants its one session-ack.
	var queue []Message
	queue = append(queue, vOut...)
	queue = append(queue, exit1...)
	queue = append(queue, n.BecomeHungry()...)
	// Drive to quiescence BUT intercept: count how many times n eats
	// while v stays hungry.
	overtakes := 1
	for steps := 0; ; steps++ {
		if steps > 10000 {
			t.Fatal("did not converge")
		}
		if len(queue) == 0 {
			if n.State() == Eating {
				overtakes++
				queue = append(queue, n.ExitEating()...)
				queue = append(queue, n.BecomeHungry()...)
				continue
			}
			break
		}
		m := queue[0]
		queue = queue[1:]
		switch m.To {
		case v.ID():
			queue = append(queue, v.Deliver(m)...)
		default:
			queue = append(queue, n.Deliver(m)...)
		}
		if v.State() == Eating {
			break // victim finally scheduled
		}
	}
	if v.State() != Eating {
		t.Fatalf("victim starved: %v (overtakes=%d)", v.State(), overtakes)
	}
	if overtakes != 2 {
		t.Fatalf("overtakes = %d; the paper's bound of 2 should be attained exactly here", overtakes)
	}
	if v.Err() != nil || n.Err() != nil {
		t.Fatal(v.Err(), n.Err())
	}
}

// TestDeferredAckArrivesAfterExit verifies the deferred-ack path: a
// ping deferred by a hungry process (replied already set) is granted
// when it exits the doorway after eating, and the waiter's session
// proceeds.
func TestDeferredAckArrivesAfterExit(t *testing.T) {
	a, b, _, _ := pair(t, 3, 1)
	// b hungry, pings a; a thinking: acks (no replied).
	outB := b.BecomeHungry()
	ack := slices.Clone(a.Deliver(outB[0])) // kept across a's next calls
	// a becomes hungry, pings b; b is hungry outside, not replied:
	// grants, setting replied.
	outA := a.BecomeHungry()
	ackFromB := b.Deliver(outA[0])
	// a collects b's ack and eats (holds fork).
	a.Deliver(ackFromB[0])
	if a.State() != Eating {
		t.Fatalf("a should eat, is %v", a.State())
	}
	// b collects a's first ack, enters doorway, requests the fork; a
	// (eating) defers the request.
	var queue []Message
	queue = append(queue, b.Deliver(ack[0])...)
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if m.To == a.ID() {
			queue = append(queue, a.Deliver(m)...)
		} else {
			queue = append(queue, b.Deliver(m)...)
		}
	}
	if b.State() != Hungry || !b.Inside() {
		t.Fatalf("b should be hungry inside, is %v/%v", b.State(), b.Inside())
	}
	// a exits: the deferred fork flows to b, which eats.
	queue = a.ExitEating()
	pump(t, a, b, queue)
	if b.State() != Eating {
		t.Fatalf("deferred grant failed: b is %v", b.State())
	}
}

// TestPingFromPreviousSessionAnswered reproduces the Lemma 2.4
// subtlety: a ping can be sent in one hungry session and answered in a
// later one. Here a wrongfully suspects b, eats through session 1 while
// its ping is deferred at b, and the single pending ping (Lemma 2.2 —
// no re-ping in session 2) is eventually answered, unblocking session 2
// after the suspicion clears.
func TestPingFromPreviousSessionAnswered(t *testing.T) {
	a, b, aSusp, _ := pair(t, 3, 1)
	// b gets hungry first and enters the doorway so it defers a's ping:
	// make b suspect nobody; b needs a's ack. a is thinking → acks.
	outB := b.BecomeHungry()
	ackToB := a.Deliver(outB[0])
	bOut := slices.Clone(b.Deliver(ackToB[0])) // b inside, requests the fork
	if !b.Inside() {
		t.Fatal("setup: b should be inside the doorway")
	}
	// a now becomes hungry: its ping reaches b, which is inside →
	// deferred.
	outA := a.BecomeHungry()
	if out := b.Deliver(outA[0]); len(out) != 0 {
		t.Fatalf("b must defer the ping, sent %v", out)
	}
	if !b.Snapshot().Defer[0] {
		t.Fatal("deferred flag must be set at b")
	}
	// a wrongfully suspects b: session 1 completes on suspicion.
	*aSusp = true
	a.ReevaluateSuspicion()
	if a.State() != Eating {
		t.Fatalf("a should eat via suspicion, is %v", a.State())
	}
	// exitOut is kept across a.BecomeHungry, so copy it.
	exitOut := slices.Clone(a.ExitEating())
	*aSusp = false // detector converges
	// Session 2: a must NOT re-ping (Lemma 2.2: one pending ping).
	out2 := a.BecomeHungry()
	for _, m := range append(out2, exitOut...) {
		if m.Kind == Ping {
			t.Fatalf("second ping sent while one is pending: %v", m)
		}
	}
	if !a.Snapshot().Pinged[1] {
		t.Fatal("the session-1 ping must still be pending")
	}
	// Drain everything: b eats (it held the doorway), exits, grants the
	// deferred ack; a's session 2 completes with the late ack.
	queue := append(append(bOut, out2...), exitOut...)
	for steps := 0; a.State() != Eating; steps++ {
		if steps > 10000 {
			t.Fatalf("a starved in session 2: a=%v b=%v", a.State(), b.State())
		}
		if len(queue) == 0 {
			if b.State() == Eating {
				queue = append(queue, b.ExitEating()...)
				continue
			}
			t.Fatalf("quiescent without progress: a=%v/%v b=%v/%v",
				a.State(), a.Inside(), b.State(), b.Inside())
		}
		m := queue[0]
		queue = queue[1:]
		if m.To == a.ID() {
			queue = append(queue, a.Deliver(m)...)
		} else {
			queue = append(queue, b.Deliver(m)...)
		}
	}
	if a.Err() != nil || b.Err() != nil {
		t.Fatal(a.Err(), b.Err())
	}
}
