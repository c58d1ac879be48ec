package core

import "testing"

// TestDiningCycleAllocatesNothing pins the point of the edge records
// and the reused output buffer: once warm, a full hungry→eat→exit cycle
// of a 3-clique, every diner eating once, performs no allocation.
func TestDiningCycleAllocatesNothing(t *testing.T) {
	var diners []*Diner
	for i := 0; i < 3; i++ {
		nbrs := map[int]int{}
		for j := 0; j < 3; j++ {
			if j != i {
				nbrs[j] = j
			}
		}
		diners = append(diners, mustDiner(t, i, i, nbrs))
	}
	queue := make([]Message, 0, 64)
	cycle := func() {
		queue = queue[:0]
		for _, d := range diners {
			queue = append(queue, d.BecomeHungry()...)
		}
		for head := 0; ; {
			for ; head < len(queue); head++ {
				m := queue[head]
				queue = append(queue, diners[m.To].Deliver(m)...)
			}
			eating := false
			for _, d := range diners {
				if d.State() == Eating {
					eating = true
					queue = append(queue, d.ExitEating()...)
				}
			}
			if !eating && head == len(queue) {
				break
			}
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state dining cycle: %v allocs, want 0", allocs)
	}
	for _, d := range diners {
		if d.Err() != nil || d.State() != Thinking || d.EatCount() != 111 {
			t.Fatalf("diner %d: err=%v state=%v eats=%d, want nil, thinking, 111", d.ID(), d.Err(), d.State(), d.EatCount())
		}
	}
}
