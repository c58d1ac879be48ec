package remote

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestStopNeverDropsMidStream pins Stop's ordering contract. Once the
// stop channel closes, post may drop an event while a later event from
// the same sender still lands; a run loop that went on handling events
// would then feed its diner a gap — a fork it never requested, say —
// and Err() would report a Lemma 1.1 violation the protocol never
// committed. Six co-hosted processes on 1µs eat/think pauses keep
// every inbox busy at the instant Stop lands, which is where the drop
// happens.
func TestStopNeverDropsMidStream(t *testing.T) {
	const cycles = 1000
	g := graph.Clique(6)
	topo, err := NewTopology(g, []NodeSpec{{Addr: "n0", Procs: []int{0, 1, 2, 3, 4, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		n, err := NewNode(Config{
			Topology:  topo,
			EatTime:   time.Microsecond,
			ThinkTime: time.Microsecond,
			Listener:  newIdleListener(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
		n.Stop()
		if err := n.Err(); err != nil {
			t.Fatalf("cycle %d: Err() after Stop = %v, want nil", i, err)
		}
	}
}

// idleListener is the listener of a node without peers on the wall
// clock: Accept blocks until Close and never yields a connection.
type idleListener struct {
	closed chan struct{}
	once   sync.Once
}

func newIdleListener() *idleListener { return &idleListener{closed: make(chan struct{})} }

func (l *idleListener) Accept() (net.Conn, error) {
	<-l.closed
	return nil, net.ErrClosed
}

func (l *idleListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *idleListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
