package core

import (
	"slices"
	"testing"
)

// Tests for the generalized AcksPerSession option: at most m acks per
// neighbor per hungry session, giving eventual (m+1)-bounded waiting.
// The paper's Algorithm 1 is the m = 1 instance.

func newWithAcks(t *testing.T, m int) *Diner {
	t.Helper()
	d, err := NewDiner(Config{
		ID: 0, Color: 3,
		NeighborColors: map[int]int{1: 1},
		Options:        Options{AcksPerSession: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAckLimitDefaults(t *testing.T) {
	if got := (Options{}).ackLimit(); got != 1 {
		t.Fatalf("default ackLimit = %d, want 1", got)
	}
	if got := (Options{AcksPerSession: 3}).ackLimit(); got != 3 {
		t.Fatalf("ackLimit = %d, want 3", got)
	}
	if got := (Options{AcksPerSession: -2}).ackLimit(); got != 1 {
		t.Fatalf("negative AcksPerSession ackLimit = %d, want 1", got)
	}
	if got := (Options{DisableRepliedFlag: true, AcksPerSession: 3}).ackLimit(); got != -1 {
		t.Fatalf("DisableRepliedFlag ackLimit = %d, want -1 (unlimited)", got)
	}
}

func TestAcksPerSessionGrantsExactlyM(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		d := newWithAcks(t, m)
		d.BecomeHungry()
		for i := 0; i < m; i++ {
			out := d.Deliver(Message{Kind: Ping, From: 1, To: 0})
			if len(out) != 1 || out[0].Kind != Ack {
				t.Fatalf("m=%d ping %d: out = %v, want ack", m, i, out)
			}
		}
		if got := d.AcksGranted(1); got != m {
			t.Fatalf("m=%d: granted = %d", m, got)
		}
		out := d.Deliver(Message{Kind: Ping, From: 1, To: 0})
		if len(out) != 0 {
			t.Fatalf("m=%d: ping %d should be deferred, got %v", m, m, out)
		}
		if !d.Snapshot().Defer[1] {
			t.Fatalf("m=%d: deferred flag not set", m)
		}
	}
}

func TestAcksGrantedResetsOnDoorwayEntry(t *testing.T) {
	d := newWithAcks(t, 2)
	d.BecomeHungry()
	d.Deliver(Message{Kind: Ping, From: 1, To: 0})
	if d.AcksGranted(1) != 1 {
		t.Fatal("setup: one grant expected")
	}
	d.Deliver(Message{Kind: Ack, From: 1, To: 0}) // enters doorway (and eats: holds fork)
	if d.AcksGranted(1) != 0 {
		t.Fatalf("granted = %d after doorway entry, want 0", d.AcksGranted(1))
	}
}

func TestAcksWhileThinkingAreFree(t *testing.T) {
	// Acks granted while thinking never consume the session budget, in
	// any variant — matching the paper, where replied is set only when
	// hungry.
	d := newWithAcks(t, 1)
	for i := 0; i < 3; i++ {
		out := d.Deliver(Message{Kind: Ping, From: 1, To: 0})
		if len(out) != 1 || out[0].Kind != Ack {
			t.Fatalf("thinking ping %d: out = %v, want ack", i, out)
		}
	}
	if d.AcksGranted(1) != 0 {
		t.Fatalf("thinking grants consumed budget: %d", d.AcksGranted(1))
	}
}

func TestSpaceBitsWidensWithAckBudget(t *testing.T) {
	one := newWithAcks(t, 1)
	four := newWithAcks(t, 4)
	if four.SpaceBits() <= one.SpaceBits() {
		t.Fatalf("m=4 should need more bits: %d vs %d", four.SpaceBits(), one.SpaceBits())
	}
	// m=1 must match the paper's 6δ accounting exactly.
	if got, want := one.SpaceBits(), 2+6*1+3; got != want {
		t.Fatalf("m=1 SpaceBits = %d, want %d", got, want)
	}
}

// TestGeneralizedBoundTwoDiners hand-drives the m=2 doorway between two
// saturated diners and verifies the eat streak never exceeds m+1 = 3.
func TestGeneralizedBoundTwoDiners(t *testing.T) {
	mk := func(id, color, other, otherColor, m int) *Diner {
		d, err := NewDiner(Config{
			ID: id, Color: color,
			NeighborColors: map[int]int{other: otherColor},
			Options:        Options{AcksPerSession: m},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, m := range []int{1, 2, 3} {
		a := mk(0, 3, 1, 1, m)
		b := mk(1, 1, 0, 3, m)
		diners := map[int]*Diner{0: a, 1: b}
		pumpAll := func(queue []Message) {
			queue = slices.Clone(queue) // a diner's result is borrowed
			for steps := 0; len(queue) > 0; steps++ {
				if steps > 100000 {
					t.Fatal("pump diverged")
				}
				msg := queue[0]
				queue = queue[1:]
				queue = append(queue, diners[msg.To].Deliver(msg)...)
			}
			if a.Err() != nil || b.Err() != nil {
				t.Fatal(a.Err(), b.Err())
			}
		}
		lastEater, streak, maxStreak := -1, 0, 0
		queue := append(a.BecomeHungry(), b.BecomeHungry()...)
		for round := 0; round < 300; round++ {
			pumpAll(queue)
			queue = nil
			var eater *Diner
			switch {
			case a.State() == Eating:
				eater = a
			case b.State() == Eating:
				eater = b
			default:
				t.Fatalf("m=%d round %d: deadlock", m, round)
			}
			if eater.ID() == lastEater {
				streak++
			} else {
				lastEater, streak = eater.ID(), 1
			}
			if streak > maxStreak {
				maxStreak = streak
			}
			queue = append(queue, eater.ExitEating()...)
			queue = append(queue, eater.BecomeHungry()...)
		}
		if maxStreak > m+1 {
			t.Fatalf("m=%d: max streak %d exceeds m+1", m, maxStreak)
		}
	}
}
