package remote

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestOccupancyConcurrentExactHighWater drives appSend/appDeliver from
// several goroutines per edge, in both directions, with no lock. Each
// round every goroutine on edge e puts e+1 messages in transit, all of
// them meet at a barrier, then all deliver: edge e peaks at exactly
// writers*(e+1), so the node-wide high-water must equal that on the
// hottest edge, and every counter must drain back to zero. Run it under
// -race.
func TestOccupancyConcurrentExactHighWater(t *testing.T) {
	const writers, rounds = 4, 200
	g := graph.Clique(4)
	topo, err := NewTopology(g, []NodeSpec{{Addr: "a", Procs: []int{0, 1}}, {Addr: "b", Procs: []int{2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Topology: topo, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	var sent, barrier sync.WaitGroup
	var done sync.WaitGroup
	for r := 0; r < rounds; r++ {
		sent.Add(len(edges) * writers)
		barrier.Add(1)
		done.Add(len(edges) * writers)
		for e, uv := range edges {
			for w := 0; w < writers; w++ {
				from, to := uv[0], uv[1]
				if w%2 == 1 {
					from, to = to, from
				}
				go func(k int) {
					defer done.Done()
					for i := 0; i < k; i++ {
						n.tr.appSend(from, to)
					}
					sent.Done()
					barrier.Wait()
					for i := 0; i < k; i++ {
						n.tr.appDeliver(from, to)
					}
				}(e + 1)
			}
		}
		sent.Wait()
		barrier.Done()
		done.Wait()
	}
	if got, want := n.MaxEdgeOccupancy(), writers*len(edges); got != want {
		t.Fatalf("MaxEdgeOccupancy = %d, want %d", got, want)
	}
	if got := n.Status().MaxEdgeOccupancy; got != writers*len(edges) {
		t.Fatalf("Status().MaxEdgeOccupancy = %d, want %d", got, writers*len(edges))
	}
	for k, c := range n.tr.inTransit {
		if v := c.Load(); v != 0 {
			t.Fatalf("edge %v: %d messages still in transit after all deliveries", k, v)
		}
	}
}
