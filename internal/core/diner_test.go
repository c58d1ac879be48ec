package core

import (
	"errors"
	"slices"
	"testing"
)

// pairConfig builds two neighboring diners with the given colors; lo's
// suspicion of hi (and vice versa) is controlled by the returned flags.
func pair(t *testing.T, colorA, colorB int) (*Diner, *Diner, *bool, *bool) {
	t.Helper()
	aSuspectsB, bSuspectsA := new(bool), new(bool)
	a, err := NewDiner(Config{
		ID: 0, Color: colorA,
		NeighborColors: map[int]int{1: colorB},
		Suspects:       func(int) bool { return *aSuspectsB },
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiner(Config{
		ID: 1, Color: colorB,
		NeighborColors: map[int]int{0: colorA},
		Suspects:       func(int) bool { return *bSuspectsA },
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, b, aSuspectsB, bSuspectsA
}

// pump delivers messages between the two diners of a pair until both
// outboxes drain (instant, reliable, FIFO channels). It copies initial
// first: a diner's result is only valid until its next call.
func pump(t *testing.T, a, b *Diner, initial []Message) {
	t.Helper()
	queue := slices.Clone(initial)
	for steps := 0; len(queue) > 0; steps++ {
		if steps > 10000 {
			t.Fatal("message pump did not quiesce")
		}
		m := queue[0]
		queue = queue[1:]
		var out []Message
		switch m.To {
		case a.ID():
			out = a.Deliver(m)
		case b.ID():
			out = b.Deliver(m)
		default:
			t.Fatalf("message to unknown process: %v", m)
		}
		queue = append(queue, out...)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("diner %d: %v", a.ID(), err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("diner %d: %v", b.ID(), err)
	}
}

func TestNewDinerValidation(t *testing.T) {
	if _, err := NewDiner(Config{ID: 0, Color: 1, NeighborColors: map[int]int{1: 1}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("same-color neighbor: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewDiner(Config{ID: 0, Color: 1, NeighborColors: map[int]int{0: 2}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("self neighbor: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewDiner(Config{ID: 0, Color: 1}); err != nil {
		t.Fatalf("isolated diner should be valid: %v", err)
	}
}

func TestInitialForkTokenPlacement(t *testing.T) {
	hi, lo, _, _ := pair(t, 5, 2)
	if !hi.HoldsFork(1) || hi.HoldsToken(1) {
		t.Fatal("higher color must start with the fork, not the token")
	}
	if lo.HoldsFork(0) || !lo.HoldsToken(0) {
		t.Fatal("lower color must start with the token, not the fork")
	}
}

func TestInitialStateThinkingOutside(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	if a.State() != Thinking || a.Inside() {
		t.Fatalf("initial state = %v inside=%v, want thinking outside", a.State(), a.Inside())
	}
}

func TestBecomeHungrySendsPings(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	out := a.BecomeHungry()
	if a.State() != Hungry {
		t.Fatalf("state = %v, want hungry", a.State())
	}
	if len(out) != 1 || out[0].Kind != Ping || out[0].To != 1 {
		t.Fatalf("out = %v, want one ping to 1", out)
	}
	if !a.Snapshot().Pinged[1] {
		t.Fatal("pinged flag not set")
	}
	// Becoming hungry twice is a no-op.
	if extra := a.BecomeHungry(); extra != nil {
		t.Fatalf("second BecomeHungry emitted %v", extra)
	}
}

func TestPingWhileThinkingGrantsAck(t *testing.T) {
	a, b, _, _ := pair(t, 3, 1)
	_ = a // a thinking
	out := a.Deliver(Message{Kind: Ping, From: 1, To: 0})
	if len(out) != 1 || out[0].Kind != Ack {
		t.Fatalf("out = %v, want one ack", out)
	}
	if a.Snapshot().Replied[1] {
		t.Fatal("replied must stay false when acking while thinking")
	}
	_ = b
}

func TestPingWhileHungryGrantsOneAckThenDefers(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	a.BecomeHungry()
	out := a.Deliver(Message{Kind: Ping, From: 1, To: 0})
	if len(out) != 1 || out[0].Kind != Ack {
		t.Fatalf("first ping: out = %v, want ack", out)
	}
	if !a.Snapshot().Replied[1] {
		t.Fatal("replied must be set after acking while hungry")
	}
	out = a.Deliver(Message{Kind: Ping, From: 1, To: 0})
	if len(out) != 0 {
		t.Fatalf("second ping in same session: out = %v, want deferral", out)
	}
	if !a.Snapshot().Defer[1] {
		t.Fatal("second ping must be deferred")
	}
}

func TestDisableRepliedFlagGrantsRepeatedAcks(t *testing.T) {
	a, err := NewDiner(Config{
		ID: 0, Color: 3,
		NeighborColors: map[int]int{1: 1},
		Options:        Options{DisableRepliedFlag: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.BecomeHungry()
	for i := 0; i < 3; i++ {
		out := a.Deliver(Message{Kind: Ping, From: 1, To: 0})
		if len(out) != 1 || out[0].Kind != Ack {
			t.Fatalf("ping %d: out = %v, want ack (original doorway)", i, out)
		}
	}
}

func TestAckEntersDoorwayAndRequestsForks(t *testing.T) {
	lo, _, _, _ := pair(t, 1, 3) // lo has lower color: starts with token, no fork
	lo.BecomeHungry()
	out := lo.Deliver(Message{Kind: Ack, From: 1, To: 0})
	if !lo.Inside() {
		t.Fatal("all acks received: must be inside the doorway")
	}
	// Inside the doorway, missing fork + held token => request.
	if len(out) != 1 || out[0].Kind != Request || out[0].Color != 1 {
		t.Fatalf("out = %v, want one fork request carrying color 1", out)
	}
	if lo.HoldsToken(1) {
		t.Fatal("token must be relinquished with the request")
	}
	snap := lo.Snapshot()
	if snap.Acked[1] || snap.Replied[1] {
		t.Fatal("ack/replied must reset on doorway entry")
	}
}

func TestHigherColorEatsWithForkInHand(t *testing.T) {
	hi, _, _, _ := pair(t, 3, 1) // hi starts holding the fork
	hi.BecomeHungry()
	out := hi.Deliver(Message{Kind: Ack, From: 1, To: 0})
	if hi.State() != Eating {
		t.Fatalf("state = %v, want eating (fork already held)", hi.State())
	}
	if len(out) != 0 {
		t.Fatalf("no messages expected, got %v", out)
	}
	if hi.EatCount() != 1 {
		t.Fatalf("EatCount = %d, want 1", hi.EatCount())
	}
}

func TestIsolatedDinerEatsImmediately(t *testing.T) {
	d, err := NewDiner(Config{ID: 7, Color: 0})
	if err != nil {
		t.Fatal(err)
	}
	out := d.BecomeHungry()
	if d.State() != Eating {
		t.Fatalf("isolated diner state = %v, want eating", d.State())
	}
	if len(out) != 0 {
		t.Fatalf("isolated diner sent %v", out)
	}
	d.ExitEating()
	if d.State() != Thinking {
		t.Fatal("exit failed")
	}
}

func TestRequestGrantedWhenOutside(t *testing.T) {
	hi, _, _, _ := pair(t, 3, 1) // hi holds fork, thinking
	out := hi.Deliver(Message{Kind: Request, From: 1, To: 0, Color: 1})
	if len(out) != 1 || out[0].Kind != Fork {
		t.Fatalf("out = %v, want fork grant", out)
	}
	if hi.HoldsFork(1) {
		t.Fatal("fork flag must clear on grant")
	}
	if !hi.HoldsToken(1) {
		t.Fatal("token must be retained after receiving request")
	}
}

func TestRequestDeferredWhenHungryInsideHigherColor(t *testing.T) {
	hi, _, _, _ := pair(t, 3, 1)
	hi.BecomeHungry()
	hi.Deliver(Message{Kind: Ack, From: 1, To: 0}) // hi is now eating (holds fork)
	if hi.State() != Eating {
		t.Fatal("setup: hi should be eating")
	}
	out := hi.Deliver(Message{Kind: Request, From: 1, To: 0, Color: 1})
	if len(out) != 0 {
		t.Fatalf("eating process must defer fork requests, sent %v", out)
	}
	if !hi.HoldsFork(1) || !hi.HoldsToken(1) {
		t.Fatal("deferred request: must hold both fork and token")
	}
	// Exit releases the deferred fork.
	out = hi.ExitEating()
	var forks int
	for _, m := range out {
		if m.Kind == Fork {
			forks++
		}
	}
	if forks != 1 {
		t.Fatalf("exit sent %d forks, want 1 (deferred grant)", forks)
	}
	if hi.HoldsFork(1) {
		t.Fatal("fork must leave with the deferred grant")
	}
}

func TestRequestYieldedWhenInsideButLowerColor(t *testing.T) {
	// Construct a diner that is hungry inside the doorway, holds the
	// fork, but has LOWER color than the requester: it must yield.
	lo, err := NewDiner(Config{ID: 0, Color: 1, NeighborColors: map[int]int{1: 3}})
	if err != nil {
		t.Fatal(err)
	}
	lo.BecomeHungry()
	lo.Deliver(Message{Kind: Ack, From: 1, To: 0}) // inside; requested fork
	lo.Deliver(Message{Kind: Fork, From: 1, To: 0})
	if lo.State() != Eating {
		t.Fatal("setup: lo should be eating after getting the fork")
	}
	lo.ExitEating()
	lo.BecomeHungry()
	lo.Deliver(Message{Kind: Ack, From: 1, To: 0}) // inside again, holds fork already
	if lo.State() != Eating {
		// lo holds the fork, so it goes straight to eating — that makes
		// the "hungry inside lower color" state unreachable here; build
		// it directly instead below.
		t.Log("lo ate immediately; acceptable")
	}
}

func TestLowerColorYieldsForkWhileHungryInside(t *testing.T) {
	// Two-neighbor construction: lo is hungry and inside, holding the
	// fork shared with hi (received earlier) but missing the fork
	// shared with third. hi requests: lo must yield (color priority).
	lo, err := NewDiner(Config{ID: 0, Color: 1, NeighborColors: map[int]int{1: 3, 2: 2}})
	if err != nil {
		t.Fatal(err)
	}
	lo.BecomeHungry()
	lo.Deliver(Message{Kind: Ack, From: 1, To: 0})
	out := lo.Deliver(Message{Kind: Ack, From: 2, To: 0}) // enters doorway, requests both forks
	if !lo.Inside() || lo.State() != Hungry {
		t.Fatal("setup: lo should be hungry inside")
	}
	if len(out) != 2 {
		t.Fatalf("expected 2 fork requests, got %v", out)
	}
	lo.Deliver(Message{Kind: Fork, From: 1, To: 0}) // got hi's fork; still missing 2's
	if lo.State() != Hungry {
		t.Fatal("setup: lo must still be hungry (fork from 2 missing)")
	}
	// hi (color 3 > 1) re-requests the fork: lo is hungry+inside but
	// lower color, so it must yield immediately.
	out = lo.Deliver(Message{Kind: Request, From: 1, To: 0, Color: 3})
	if len(out) == 0 || out[0].Kind != Fork || out[0].To != 1 {
		t.Fatalf("out = %v, want immediate fork grant to higher color first", out)
	}
	// Being still hungry inside, lo immediately re-requests the fork
	// with the token the request carried (Action 6 refires).
	if len(out) != 2 || out[1].Kind != Request {
		t.Fatalf("out = %v, want follow-up re-request after yielding", out)
	}
	if lo.Err() != nil {
		t.Fatalf("unexpected protocol error: %v", lo.Err())
	}
}

func TestSuspicionSubstitutesForAckAndFork(t *testing.T) {
	lo, _, aSusp, _ := pair(t, 1, 3) // lo holds token only
	*aSusp = true                    // lo suspects its neighbor
	out := lo.BecomeHungry()
	if lo.State() != Eating {
		t.Fatalf("state = %v, want eating straight through (suspicion)", lo.State())
	}
	// The doorway ping and the fork request may still be sent before
	// the guards fire; both are harmless (Section 7 quiescence allows
	// one residual ping and one residual token).
	for _, m := range out {
		if m.Kind != Ping && m.Kind != Request {
			t.Fatalf("unexpected message %v", m)
		}
	}
}

func TestExitEatingNoopWhenNotEating(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	if out := a.ExitEating(); out != nil {
		t.Fatalf("ExitEating while thinking emitted %v", out)
	}
	a.BecomeHungry()
	if out := a.ExitEating(); out != nil {
		t.Fatalf("ExitEating while hungry emitted %v", out)
	}
}

func TestExitSendsDeferredAcks(t *testing.T) {
	hi, _, _, _ := pair(t, 3, 1)
	hi.BecomeHungry()
	hi.Deliver(Message{Kind: Ack, From: 1, To: 0}) // eating
	hi.Deliver(Message{Kind: Ping, From: 1, To: 0})
	if !hi.Snapshot().Defer[1] {
		t.Fatal("ping while eating (inside) must be deferred")
	}
	out := hi.ExitEating()
	var acks int
	for _, m := range out {
		if m.Kind == Ack {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("exit sent %d acks, want 1", acks)
	}
	if hi.Snapshot().Defer[1] {
		t.Fatal("deferred flag must clear on exit")
	}
}

func TestInvariantDuplicateFork(t *testing.T) {
	hi, _, _, _ := pair(t, 3, 1) // holds fork already
	hi.Deliver(Message{Kind: Fork, From: 1, To: 0})
	if !errors.Is(hi.Err(), ErrDuplicateFork) {
		t.Fatalf("err = %v, want ErrDuplicateFork", hi.Err())
	}
}

func TestInvariantForkWithToken(t *testing.T) {
	lo, _, _, _ := pair(t, 1, 3) // holds token, no fork
	lo.Deliver(Message{Kind: Fork, From: 1, To: 0})
	if !errors.Is(lo.Err(), ErrForkWithToken) {
		t.Fatalf("err = %v, want ErrForkWithToken", lo.Err())
	}
}

func TestInvariantRequestWithoutFork(t *testing.T) {
	lo, _, _, _ := pair(t, 1, 3) // lo does not hold the fork
	lo.Deliver(Message{Kind: Request, From: 1, To: 0, Color: 3})
	if !errors.Is(lo.Err(), ErrRequestNoFork) && !errors.Is(lo.Err(), ErrDuplicateToken) {
		t.Fatalf("err = %v, want token/fork invariant violation", lo.Err())
	}
}

func TestInvariantUnsolicitedAck(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	a.Deliver(Message{Kind: Ack, From: 1, To: 0})
	if !errors.Is(a.Err(), ErrUnsolicitedAck) {
		t.Fatalf("err = %v, want ErrUnsolicitedAck", a.Err())
	}
}

func TestInvariantNonNeighbor(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	a.Deliver(Message{Kind: Ping, From: 99, To: 0})
	if !errors.Is(a.Err(), ErrNotNeighbor) {
		t.Fatalf("err = %v, want ErrNotNeighbor", a.Err())
	}
}

func TestErroredDinerIsInert(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	a.Deliver(Message{Kind: Fork, From: 1, To: 0}) // duplicate fork → error
	if a.Err() == nil {
		t.Fatal("setup: error expected")
	}
	if out := a.BecomeHungry(); out != nil {
		t.Fatal("errored diner must be inert")
	}
	if out := a.Deliver(Message{Kind: Ping, From: 1, To: 0}); out != nil {
		t.Fatal("errored diner must be inert")
	}
}

func TestFullCycleTwoDiners(t *testing.T) {
	a, b, _, _ := pair(t, 3, 1)
	// Both become hungry; deliver everything; exactly one eats.
	var queue []Message
	queue = append(queue, a.BecomeHungry()...)
	queue = append(queue, b.BecomeHungry()...)
	pump(t, a, b, queue)
	eatingA, eatingB := a.State() == Eating, b.State() == Eating
	if eatingA == eatingB {
		t.Fatalf("exactly one should eat: a=%v b=%v", a.State(), b.State())
	}
	// The eater exits; the other must then eat.
	var out []Message
	if eatingA {
		out = a.ExitEating()
	} else {
		out = b.ExitEating()
	}
	pump(t, a, b, out)
	if eatingA && b.State() != Eating {
		t.Fatalf("b should eat after a exits, state=%v", b.State())
	}
	if eatingB && a.State() != Eating {
		t.Fatalf("a should eat after b exits, state=%v", a.State())
	}
	if a.State() == Eating && b.State() == Eating {
		t.Fatal("both eating: exclusion violated")
	}
}

func TestAlternationIsFair(t *testing.T) {
	// Under continuous hunger, the doorway must alternate the two
	// diners: neither may eat more than twice in a row while the other
	// is hungry (Theorem 3 with converged detector = never suspects).
	a, b, _, _ := pair(t, 3, 1)
	lastEater, streak, maxStreak := -1, 0, 0
	queue := append(a.BecomeHungry(), b.BecomeHungry()...)
	for round := 0; round < 200; round++ {
		pump(t, a, b, queue)
		queue = nil
		var eater *Diner
		switch {
		case a.State() == Eating:
			eater = a
		case b.State() == Eating:
			eater = b
		default:
			t.Fatalf("round %d: deadlock, nobody eats (a=%v b=%v)", round, a.State(), b.State())
		}
		if eater.ID() == lastEater {
			streak++
		} else {
			lastEater = eater.ID()
			streak = 1
		}
		if streak > maxStreak {
			maxStreak = streak
		}
		queue = append(queue, eater.ExitEating()...)
		queue = append(queue, eater.BecomeHungry()...)
	}
	if maxStreak > 2 {
		t.Fatalf("max consecutive eats by one diner = %d, want ≤ 2", maxStreak)
	}
}

func TestSpaceBits(t *testing.T) {
	d, err := NewDiner(Config{
		ID: 0, Color: 5,
		NeighborColors: map[int]int{1: 0, 2: 1, 3: 2, 4: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 neighbors: 6*4 = 24 bits of per-neighbor state + 3 bits of
	// state/inside + 3 bits for color 5.
	want := 24 + 3 + 3
	if got := d.SpaceBits(); got != want {
		t.Fatalf("SpaceBits = %d, want %d", got, want)
	}
	iso, _ := NewDiner(Config{ID: 0, Color: 0})
	if iso.SpaceBits() != 1+3 {
		t.Fatalf("isolated SpaceBits = %d, want 4", iso.SpaceBits())
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	a, _, _, _ := pair(t, 3, 1)
	snap := a.Snapshot()
	snap.Fork[1] = false
	if !a.HoldsFork(1) {
		t.Fatal("snapshot mutation leaked into diner")
	}
}

func TestSessionsCounter(t *testing.T) {
	d, _ := NewDiner(Config{ID: 0, Color: 0})
	for i := 0; i < 3; i++ {
		d.BecomeHungry()
		d.ExitEating()
	}
	if d.Sessions() != 3 || d.EatCount() != 3 {
		t.Fatalf("sessions=%d eats=%d, want 3/3", d.Sessions(), d.EatCount())
	}
}

func TestHooksFire(t *testing.T) {
	var hungry, doorway, eat, exit int
	d, err := NewDiner(Config{
		ID: 0, Color: 1, NeighborColors: map[int]int{1: 0},
		Hooks: Hooks{
			OnHungry:       func() { hungry++ },
			OnEnterDoorway: func() { doorway++ },
			OnEat:          func() { eat++ },
			OnExit:         func() { exit++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.BecomeHungry()
	d.Deliver(Message{Kind: Ack, From: 1, To: 0}) // enters doorway and eats (holds fork)
	d.ExitEating()
	if hungry != 1 || doorway != 1 || eat != 1 || exit != 1 {
		t.Fatalf("hooks fired %d/%d/%d/%d, want 1 each", hungry, doorway, eat, exit)
	}
}

func TestMessageAndStateStrings(t *testing.T) {
	if Thinking.String() != "thinking" || Hungry.String() != "hungry" || Eating.String() != "eating" {
		t.Fatal("State strings wrong")
	}
	if State(99).String() == "" || MsgKind(99).String() == "" {
		t.Fatal("unknown values must still stringify")
	}
	m := Message{Kind: Request, From: 1, To: 2, Color: 7}
	if m.String() != "request(1→2, color=7)" {
		t.Fatalf("Message.String() = %q", m.String())
	}
	p := Message{Kind: Ping, From: 0, To: 3}
	if p.String() != "ping(0→3)" {
		t.Fatalf("Message.String() = %q", p.String())
	}
}
