package remote

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// recConn records every byte written through it, so a test can decode
// the frame stream one side of a link sent.
type recConn struct {
	net.Conn
	rec *wireRecord
}

func (c recConn) Write(b []byte) (int, error) {
	c.rec.mu.Lock()
	c.rec.buf.Write(b)
	c.rec.mu.Unlock()
	return c.Conn.Write(b)
}

type recListener struct {
	net.Listener
	rec *wireRecord
}

func (l recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return recConn{Conn: c, rec: l.rec}, nil
}

// wireRecord is the byte stream one node wrote, across connections.
type wireRecord struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// counts decodes the recorded stream and tallies frames by kind; a
// frame still being written at the end is not counted.
func (r *wireRecord) counts() map[wire.FrameKind]int {
	r.mu.Lock()
	b := append([]byte(nil), r.buf.Bytes()...)
	r.mu.Unlock()
	out := map[wire.FrameKind]int{}
	d := wire.NewDecoder(bytes.NewReader(b))
	var fr wire.Frame
	for d.Next(&fr) == nil {
		out[fr.Kind]++
	}
	return out
}

// TestDeferredAcksFaultFree runs a two-node edge on the virtual
// network at the smallest RTO the tests use (15ms, so one manager tick
// is 5ms) and checks the deferred-ack contract on the wire: no pure ack
// leaves except from a tick flush — at most one per pair per tick —
// nothing is retransmitted, and no deferred ack is counted as a frame
// the writer refused.
func TestDeferredAcksFaultFree(t *testing.T) {
	recs := []*wireRecord{{}, {}}
	g := graph.Clique(2)
	nodes, clk := virtCluster(t, g, [][]int{{0}, {1}}, func(i int, cfg *Config) {
		if cfg.RTO != 15*time.Millisecond {
			t.Fatalf("virtCluster RTO = %v, want 15ms", cfg.RTO)
		}
		if i == 0 { // the dialer: record what it writes
			inner := cfg.Dial
			cfg.Dial = func(addr string) (net.Conn, error) {
				c, err := inner(addr)
				if err != nil {
					return nil, err
				}
				return recConn{Conn: c, rec: recs[0]}, nil
			}
		} else {
			cfg.Listener = recListener{Listener: cfg.Listener, rec: recs[1]}
		}
	})
	// Frames submitted before the connection came up are retransmitted
	// when it does; count from the first meal on.
	pumpUntil(t, clk, 20*time.Second, "first meals", func() bool { return allAte(nodes, 1) })
	retx := make([]uint64, len(nodes))
	before := make([]map[wire.FrameKind]int, len(nodes))
	for i, n := range nodes {
		retx[i] = n.Status().Peers[0].Retransmits
		before[i] = recs[i].counts()
	}
	start := clk.Now()
	const run = time.Second
	pumpUntil(t, clk, run, "the run", func() bool { return clk.Now().Sub(start) >= run })

	ticks := int(run/nodes[0].peers[1].tickEvery()) + 1
	for i, n := range nodes {
		c := recs[i].counts()
		data, acks := c[wire.Data]-before[i][wire.Data], c[wire.Ack]-before[i][wire.Ack]
		if data < 100 {
			t.Fatalf("node %d sent %d data frames in %v, want a busy edge", i, data, run)
		}
		// One ordered pair per direction, so one flush per tick at most.
		if acks > ticks {
			t.Errorf("node %d sent %d pure acks over %d ticks (%d data frames): acks left outside tick flushes",
				i, acks, ticks, data)
		}
		pr := n.Status().Peers[0]
		if pr.Retransmits != retx[i] || pr.Coalesced != 0 {
			t.Errorf("node %d: retransmits %d -> %d, coalesced=%d; want no retransmit and nothing coalesced",
				i, retx[i], pr.Retransmits, pr.Coalesced)
		}
		if err := n.Err(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

// TestOneWayBurstAckedWithinOneTick sends a burst on a pair whose
// receiver never answers — the receiving process has crashed, so no
// data frame will ever carry the ack back — and checks that the tick
// flush alone drains the sender's ring within one tick, without a
// retransmission.
func TestOneWayBurstAckedWithinOneTick(t *testing.T) {
	g := graph.Clique(2)
	nodes, clk := virtCluster(t, g, [][]int{{0}, {1}}, nil)
	pumpUntil(t, clk, 20*time.Second, "first meals", func() bool { return allAte(nodes, 1) })
	nodes[1].procs[1].crash()
	clk.Advance(0) // let the crash settle before the burst

	pr := nodes[0].peers[1]
	// onManager runs fn on the manager goroutine without moving the clock.
	onManager := func(fn func()) {
		done := make(chan struct{})
		pr.post(func() { fn(); close(done) })
		<-done
	}
	key := pairKey{from: 0, to: 1}
	const burst = 8
	var last uint64
	onManager(func() {
		for i := 0; i < burst; i++ {
			pr.node.tr.appSend(0, 1)
			pr.submit(core.Message{Kind: core.Ping, From: 0, To: 1})
		}
		last = pr.sends[key].nextSeq - 1
	})
	retx := nodes[0].Status().Peers[0].Retransmits

	// The receiver's next tick is at most tickEvery away.
	end := clk.Now().Add(pr.tickEvery())
	pumpUntil(t, clk, pr.tickEvery(), "one tick", func() bool { return !clk.Now().Before(end) })
	var front uint64
	onManager(func() {
		if q := pr.sends[key].queue; q.len() > 0 {
			front = q.front().seq
		}
	})
	if front != 0 && front <= last {
		t.Fatalf("one tick after a %d-frame one-way burst: seq %d still unacked (burst ends at %d)", burst, front, last)
	}
	if got := nodes[0].Status().Peers[0].Retransmits; got != retx {
		t.Fatalf("retransmits %d -> %d while the burst drained", retx, got)
	}
}

// TestDeferredAckPaths drives one peer manager by hand through the
// three ways an owed ack can leave: piggybacked on a reverse data
// frame, flushed by the tick, or dropped by an incarnation change.
func TestDeferredAckPaths(t *testing.T) {
	g := graph.Clique(2)
	topo, err := NewTopology(g, []NodeSpec{{Addr: "a", Procs: []int{0}}, {Addr: "b", Procs: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	// A virtual clock that never advances: no retransmission deadline
	// can expire mid-test, so every frame on out is one the test caused.
	n, err := NewNode(Config{Topology: topo, Node: 0, Clock: netsim.NewClock()})
	if err != nil {
		t.Fatal(err)
	}
	p := n.peers[1]
	out := make(chan []byte, 8)
	p.conn = &liveConn{gen: 1, out: out}
	owed := pairKey{from: 0, to: 1}
	inbound := func(seq uint64) {
		fr, err := wire.DataFrame(core.Message{Kind: core.Ping, From: 1, To: 0}, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.onInbound(1, []wire.Frame{fr})
	}
	sent := func() []wire.Frame {
		var frs []wire.Frame
		for len(out) > 0 {
			fr, err := wire.ReadFrame(bytes.NewReader(<-out))
			if err != nil {
				t.Fatal(err)
			}
			frs = append(frs, fr)
		}
		return frs
	}

	// Inbound data sends nothing at once; the ack is owed.
	inbound(1)
	inbound(2)
	if frs := sent(); len(frs) != 0 {
		t.Fatalf("inbound data sent %v at once, want nothing until a reply or a tick", frs)
	}
	if got := p.pendingAck[owed]; got != 2 {
		t.Fatalf("owed ack = %d, want 2", got)
	}

	// A reply on the reverse pair carries it, and the stash is cleared.
	n.tr.appSend(0, 1)
	p.submit(core.Message{Kind: core.Ack, From: 0, To: 1})
	if frs := sent(); len(frs) != 1 || frs[0].Kind != wire.Data || frs[0].Ack != 2 {
		t.Fatalf("reply frames = %v, want one data frame acking 2", frs)
	}
	if _, ok := p.pendingAck[owed]; ok {
		t.Fatal("piggybacked ack left in the stash")
	}

	// With no reply, the tick flushes one pure ack for the whole burst.
	inbound(3)
	inbound(4)
	p.tick()
	if frs := sent(); len(frs) != 1 || frs[0].Kind != wire.Ack || frs[0].Ack != 4 || frs[0].From != 0 || frs[0].To != 1 {
		t.Fatalf("tick frames = %v, want one pure ack 0->1 acking 4", frs)
	}
	if len(p.pendingAck) != 0 {
		t.Fatalf("stash after the tick flush = %v, want empty", p.pendingAck)
	}
	if c := n.Status().Peers[0].Coalesced; c != 0 {
		t.Fatalf("coalesced = %d after deferred acks, want 0", c)
	}

	// An owed ack belongs to its epoch: a restarted peer must not see it.
	p.noteIncarnation(100)
	inbound(5)
	p.noteIncarnation(200)
	if len(p.pendingAck) != 0 {
		t.Fatalf("stash after incarnation change = %v, want empty", p.pendingAck)
	}
	p.tick()
	if frs := sent(); len(frs) != 0 {
		t.Fatalf("tick after incarnation change sent %v, want nothing", frs)
	}
}

// allAte reports whether every process on nodes has eaten at least min
// times.
func allAte(nodes []*Node, min int) bool {
	for _, n := range nodes {
		for _, c := range n.EatCounts() {
			if c < min {
				return false
			}
		}
	}
	return true
}
