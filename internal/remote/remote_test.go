package remote

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestParseTopologyRoundTrip(t *testing.T) {
	const in = `# 3-ring over three daemons
n 3
0 1
1 2
2 0
node 127.0.0.1:7000 0
node 127.0.0.1:7001 1
node 127.0.0.1:7002 2
`
	topo, err := ParseTopology(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if topo.G.N() != 3 || topo.G.M() != 3 {
		t.Fatalf("graph %d vertices %d edges, want 3/3", topo.G.N(), topo.G.M())
	}
	if len(topo.Nodes) != 3 || topo.Nodes[1].Addr != "127.0.0.1:7001" {
		t.Fatalf("nodes parsed wrong: %+v", topo.Nodes)
	}
	for p := 0; p < 3; p++ {
		if topo.NodeOf(p) != p {
			t.Fatalf("NodeOf(%d) = %d, want %d", p, topo.NodeOf(p), p)
		}
	}
	var sb strings.Builder
	if err := topo.Write(&sb); err != nil {
		t.Fatal(err)
	}
	again, err := ParseTopology(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse of rendered topology: %v\n%s", err, sb.String())
	}
	if again.G.N() != 3 || len(again.Nodes) != 3 {
		t.Fatalf("round trip lost structure: %+v", again)
	}
}

func TestParseTopologyErrors(t *testing.T) {
	cases := map[string]string{
		"duplicate process": "n 2\n0 1\nnode a:1 0 1\nnode a:2 1\n",
		"missing process":   "n 2\n0 1\nnode a:1 0\n",
		"bad node line":     "n 2\n0 1\nnode a:1\nnode a:2 0 1\n",
		"bad process id":    "n 2\n0 1\nnode a:1 x\nnode a:2 0 1\n",
		"out of range":      "n 2\n0 1\nnode a:1 0 1 5\n",
		"no nodes":          "n 2\n0 1\n",
	}
	for name, in := range cases {
		if _, err := ParseTopology(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

func TestPeersOf(t *testing.T) {
	// Path 0-1-2-3 split over three nodes: {0,1}, {2}, {3}.
	g := graph.Path(4)
	topo, err := NewTopology(g, []NodeSpec{
		{Addr: "a", Procs: []int{0, 1}}, {Addr: "b", Procs: []int{2}}, {Addr: "c", Procs: []int{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.PeersOf(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PeersOf(0) = %v, want [1]", got)
	}
	if got := topo.PeersOf(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("PeersOf(1) = %v, want [0 2]", got)
	}
	if got := topo.PeersOf(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PeersOf(2) = %v, want [1]", got)
	}
}

// virtCluster mirrors testCluster on the netsim virtual network: node
// i binds "n<i>", every clock in the stack is the shared virtual
// clock, and nothing moves unless the test advances it — so
// timing-sensitive scenarios (reconnect storms, restart races) replay
// deterministically with no wall-clock sleeps. mut may wrap cfg.Dial;
// the pre-set value dials the virtual network.
func virtCluster(t *testing.T, g *graph.Graph, placement [][]int, mut func(i int, cfg *Config)) ([]*Node, *netsim.Clock) {
	t.Helper()
	nodes, clk, _ := virtClusterNet(t, g, placement, mut)
	return nodes, clk
}

// virtClusterNet is virtCluster plus the virtual network itself, for
// tests that inject link faults (partitions, frozen readers).
func virtClusterNet(t *testing.T, g *graph.Graph, placement [][]int, mut func(i int, cfg *Config)) ([]*Node, *netsim.Clock, *netsim.Net) {
	t.Helper()
	clk := netsim.NewClock()
	nw := netsim.NewNet(clk, 1)
	listeners := make([]net.Listener, len(placement))
	specs := make([]NodeSpec, len(placement))
	for i, procs := range placement {
		ln, err := nw.Host(fmt.Sprintf("n%d", i)).Listen()
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		specs[i] = NodeSpec{Addr: fmt.Sprintf("n%d", i), Procs: procs}
	}
	topo, err := NewTopology(g, specs)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, len(placement))
	for i := range placement {
		self := fmt.Sprintf("n%d", i)
		cfg := Config{
			Topology:        topo,
			Node:            i,
			HeartbeatPeriod: 5 * time.Millisecond,
			InitialTimeout:  200 * time.Millisecond,
			EatTime:         time.Millisecond,
			ThinkTime:       time.Millisecond,
			RTO:             15 * time.Millisecond,
			DialBackoff:     10 * time.Millisecond,
			Listener:        listeners[i],
			Seed:            int64(i) + 1,
			Clock:           clk,
			Dial: func(addr string) (net.Conn, error) {
				return nw.Host(self).Dial(addr)
			},
		}
		if mut != nil {
			mut(i, &cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			stopPumped(clk, n)
		}
	})
	return nodes, clk, nw
}

// stopPumped stops a node while pumping the virtual clock: Stop joins
// goroutines that may be parked on virtual deadlines (an in-flight
// handshake read, a backed-off redial timer), which only expire when
// time advances.
func stopPumped(clk *netsim.Clock, n *Node) {
	done := make(chan struct{})
	go func() {
		n.Stop()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			clk.Advance(10 * time.Millisecond)
		}
	}
}

// waitEatsV advances virtual time until every process has eaten at
// least min more times than base, failing once budget of virtual time
// is spent. No wall-clock dependence: a slow machine just takes longer
// in real time, never a different outcome.
func waitEatsV(t *testing.T, clk *netsim.Clock, nodes []*Node, base map[int]int, min int, budget time.Duration) {
	t.Helper()
	const step = 5 * time.Millisecond
	for spent := time.Duration(0); ; spent += step {
		done := true
		counts := map[int]int{}
		for _, n := range nodes {
			for id, c := range n.EatCounts() {
				counts[id] = c
				if c-base[id] < min {
					done = false
				}
			}
		}
		if done {
			return
		}
		if spent >= budget {
			t.Fatalf("virtual timeout waiting for %d eats over base %v; counts %v", min, base, counts)
		}
		clk.Advance(step)
	}
}

// testCluster builds one Node per NodeSpec over g with pre-bound
// ephemeral listeners and fast test timings.
func testCluster(t *testing.T, g *graph.Graph, placement [][]int, mut func(i int, cfg *Config)) []*Node {
	t.Helper()
	listeners := make([]net.Listener, len(placement))
	specs := make([]NodeSpec, len(placement))
	for i, procs := range placement {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		specs[i] = NodeSpec{Addr: ln.Addr().String(), Procs: procs}
	}
	topo, err := NewTopology(g, specs)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, len(placement))
	for i := range placement {
		cfg := Config{
			Topology:        topo,
			Node:            i,
			HeartbeatPeriod: 5 * time.Millisecond,
			InitialTimeout:  200 * time.Millisecond,
			EatTime:         time.Millisecond,
			ThinkTime:       time.Millisecond,
			RTO:             15 * time.Millisecond,
			DialBackoff:     10 * time.Millisecond,
			Listener:        listeners[i],
			Seed:            int64(i) + 1,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return nodes
}

// waitEats polls until every listed process on node n has eaten at
// least min more times than base, or the deadline expires.
func waitEats(t *testing.T, nodes []*Node, base map[int]int, min int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		counts := map[int]int{}
		for _, n := range nodes {
			for id, c := range n.EatCounts() {
				counts[id] = c
				if c-base[id] < min {
					done = false
				}
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d eats over base %v; counts %v", min, base, counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTwoNodeEdgeEats(t *testing.T) {
	g := graph.Clique(2)
	nodes := testCluster(t, g, [][]int{{0}, {1}}, nil)
	waitEats(t, nodes, nil, 5, 20*time.Second)
	for _, n := range nodes {
		if err := n.Err(); err != nil {
			t.Fatalf("node error: %v", err)
		}
	}
	st := nodes[0].Status()
	if len(st.Procs) != 1 || len(st.Peers) != 1 || !st.Peers[0].Connected {
		t.Fatalf("unexpected status: %+v", st)
	}
}

func TestMixedLocalRemoteEdges(t *testing.T) {
	// Ring of 4 over two nodes: edges 0-1 and 2-3 are node-local,
	// edges 1-2 and 3-0 cross the wire.
	g := graph.Ring(4)
	nodes := testCluster(t, g, [][]int{{0, 1}, {2, 3}}, nil)
	waitEats(t, nodes, nil, 5, 20*time.Second)
	for _, n := range nodes {
		if err := n.Err(); err != nil {
			t.Fatalf("node error: %v", err)
		}
	}
}

// flakyConn cuts itself off after a fixed number of writes, simulating
// a connection that dies mid-stream.
type flakyConn struct {
	net.Conn
	budget *int32
}

func (f *flakyConn) Write(b []byte) (int, error) {
	if atomic.AddInt32(f.budget, -1) < 0 {
		f.Conn.Close()
		return 0, errors.New("flaky: connection cut")
	}
	return f.Conn.Write(b)
}

// TestReconnectKeepsExactlyOnceFIFO drops the node-pair connection
// every few dozen frames for the first part of the run. The ARQ layer
// must ride the reconnects: core.Diner's protocol invariants
// (duplicate fork, unsolicited ack, fork-with-token) reject any
// duplicated, reordered, or lost delivery, so Err() == nil after
// dozens of eats is an end-to-end exactly-once-FIFO check. Runs on
// the virtual network so the cut/redial/retransmit timing is the same
// on every machine.
func TestReconnectKeepsExactlyOnceFIFO(t *testing.T) {
	g := graph.Clique(2)
	var dials int32
	var nodes []*Node
	var clk *netsim.Clock
	nodes, clk = virtCluster(t, g, [][]int{{0}, {1}}, func(i int, cfg *Config) {
		if i != 0 {
			return // node 0 is the dialer (lower index)
		}
		inner := cfg.Dial
		cfg.Dial = func(addr string) (net.Conn, error) {
			c, err := inner(addr)
			if err != nil {
				return nil, err
			}
			n := atomic.AddInt32(&dials, 1)
			if n <= 6 {
				// The first generations die young (the budget includes
				// the handshake write).
				budget := int32(25)
				return &flakyConn{Conn: c, budget: &budget}, nil
			}
			return c, nil
		}
	})
	waitEatsV(t, clk, nodes, nil, 30, 60*time.Second)
	for _, n := range nodes {
		if err := n.Err(); err != nil {
			t.Fatalf("protocol invariant violated across reconnects: %v", err)
		}
	}
	if got := atomic.LoadInt32(&dials); got < 3 {
		t.Fatalf("only %d dials; the flaky dialer never forced a reconnect", got)
	}
	st := nodes[1].Status()
	if len(st.Peers) != 1 || st.Peers[0].Connects < 2 {
		t.Fatalf("acceptor saw %d connects, want >= 2 (reconnect)", st.Peers[0].Connects)
	}
}

// TestCheckHello exercises the handshake's topology validation: a peer
// advertising a different process placement (a different topology
// file) must be rejected instead of silently interconnecting.
func TestCheckHello(t *testing.T) {
	g := graph.Path(3)
	topo, err := NewTopology(g, []NodeSpec{
		{Addr: "a", Procs: []int{1, 0}}, {Addr: "b", Procs: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Topology: topo, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	// helloFrame lists processes sorted, and checkHello sorts the local
	// placement, so the unsorted NodeSpec above must still match.
	ok := wire.Frame{Kind: wire.Hello, Node: 0, Incarnation: 7, Procs: []uint32{0, 1}}
	if err := n.checkHello(ok, 0); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}
	bad := map[string]wire.Frame{
		"not a hello":       {Kind: wire.Heartbeat, From: 0, To: 2},
		"wrong node index":  {Kind: wire.Hello, Node: 1, Procs: []uint32{0, 1}},
		"missing process":   {Kind: wire.Hello, Node: 0, Procs: []uint32{0}},
		"extra process":     {Kind: wire.Hello, Node: 0, Procs: []uint32{0, 1, 2}},
		"other placement":   {Kind: wire.Hello, Node: 0, Procs: []uint32{0, 2}},
		"empty process set": {Kind: wire.Hello, Node: 0},
	}
	for name, fr := range bad {
		if err := n.checkHello(fr, 0); err == nil {
			t.Errorf("%s: hello %v accepted, want rejection", name, fr)
		}
	}
}

// TestIncarnationResetsARQState drives the peer manager's restart
// detection directly (single-goroutine, white box): a reconnect from
// the same incarnation must keep the ARQ state, and a new incarnation
// must start a fresh epoch — receive streams back to 1, queued unacked
// sends discarded (they were addressed to dining state that no longer
// exists), and an edge-reset event posted to the local process sharing
// an edge with the restarted node.
func TestIncarnationResetsARQState(t *testing.T) {
	g := graph.Clique(2)
	topo, err := NewTopology(g, []NodeSpec{
		{Addr: "a", Procs: []int{0}}, {Addr: "b", Procs: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Topology: topo, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	p := n.peers[1]
	// Simulate an established link: sends 0→1 up to sequence 6 with
	// 4..6 still unacked, receive stream 1→0 advanced to 10 with an
	// out-of-order frame parked at 12.
	ss := p.sendStateFor(pairKey{from: 0, to: 1})
	ss.nextSeq = 7
	ss.deadline = time.Now()
	for seq := uint64(4); seq <= 6; seq++ {
		ss.queue.push(sendEntry{seq: seq, msg: core.Message{Kind: core.Ping, From: 0, To: 1}})
	}
	rs := p.recvStateFor(pairKey{from: 1, to: 0})
	rs.next = 10
	rs.buf[12] = core.Message{Kind: core.Ack, From: 1, To: 0}

	p.noteIncarnation(100) // first Hello ever seen: adopt, nothing to reset
	if p.peerInc != 100 || ss.nextSeq != 7 || rs.next != 10 || len(rs.buf) != 1 {
		t.Fatalf("first hello must not reset state: %+v %+v", ss, rs)
	}
	p.noteIncarnation(100) // reconnect of the same incarnation: state survives
	if ss.nextSeq != 7 || ss.queue.front().seq != 4 || rs.next != 10 {
		t.Fatalf("same-incarnation reconnect must keep state: %+v %+v", ss, rs)
	}
	p.noteIncarnation(200) // restart: everything stale
	if p.peerInc != 200 {
		t.Fatalf("peerInc = %d, want 200", p.peerInc)
	}
	if ss.queue.len() != 0 || ss.nextSeq != 1 || !ss.deadline.IsZero() {
		t.Fatalf("send state not reset: %+v", ss)
	}
	if rs.next != 1 || len(rs.buf) != 0 {
		t.Fatalf("recv state not reset: next=%d buf=%v", rs.next, rs.buf)
	}
	// The local process sharing an edge with node 1 must have been told
	// to reset that edge (the node was never started, so the event sits
	// in its inbox).
	select {
	case ev := <-n.procs[0].inbox:
		if ev.kind != evNeighborReset || ev.from != 1 {
			t.Fatalf("inbox event = %+v, want evNeighborReset from 1", ev)
		}
	default:
		t.Fatal("no edge-reset event posted to the surviving process")
	}
}

// TestPeerRestartResetsLink restarts one daemon end-to-end and asserts
// the link un-wedges: the new incarnation's Hello must reset the
// surviving node's ARQ state, or every frame the restarted process
// sends is dedup-dropped (its sequence numbers restarted at 1, below
// the survivor's cursor), its doorway never gets an ack, and it
// starves without ever being suspected (heartbeats keep flowing).
//
// Dining-layer recovery (the incarnation-driven edge resets) is
// exercised separately by the chaos soak, which restarts nodes at
// arbitrary moments; this test pins a provably clean scenario so that
// any failure isolates the ARQ layer. Process 0 thinks
// for an hour after its first meal, so the steady state is process 1
// cycling on a retained fork with only ping/ack doorway traffic, and
// fork-at-1/token-at-0 — exactly the boot state a fresh node 1
// assumes. The kill lands during process 1's eating phase, when the
// link is quiet and both ARQ queues have long drained — on the
// virtual clock the kill instant is exact, not a sleep-length guess.
func TestPeerRestartResetsLink(t *testing.T) {
	g := graph.Clique(2)
	clk := netsim.NewClock()
	nw := netsim.NewNet(clk, 1)
	ln0, err := nw.Host("n0").Listen()
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := nw.Host("n1").Listen()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g, []NodeSpec{
		{Addr: "n0", Procs: []int{0}},
		{Addr: "n1", Procs: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, ln net.Listener, think time.Duration) *Node {
		self := fmt.Sprintf("n%d", i)
		n, err := NewNode(Config{
			Topology:        topo,
			Node:            i,
			HeartbeatPeriod: 5 * time.Millisecond,
			// Suspicion must not mask the wedge: with the restart gap far
			// below the timeout, recovery can only come from the
			// incarnation reset, never from ◇P₁.
			InitialTimeout: time.Minute,
			EatTime:        300 * time.Millisecond,
			ThinkTime:      think,
			RTO:            15 * time.Millisecond,
			DialBackoff:    10 * time.Millisecond,
			DialBackoffMax: 50 * time.Millisecond,
			Listener:       ln,
			Seed:           int64(i) + 1,
			Clock:          clk,
			Dial: func(addr string) (net.Conn, error) {
				return nw.Host(self).Dial(addr)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n0 := mk(0, ln0, time.Hour)
	n1 := mk(1, ln1, 100*time.Millisecond)
	for _, n := range []*Node{n0, n1} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { stopPumped(clk, n0) })
	t.Cleanup(func() { stopPumped(clk, n1) })

	// Settle: process 0 has had its one meal, process 1 is cycling.
	waitEatsV(t, clk, []*Node{n0}, nil, 1, 30*time.Second)
	waitEatsV(t, clk, []*Node{n1}, nil, 2, 30*time.Second)

	// Kill node 1 mid-eating: the doorway exchange for this session
	// finished hundreds of virtual milliseconds ago, so no dining frame
	// is unacked on either side.
	for spent := time.Duration(0); n1.Status().Procs[0].State != core.Eating.String(); spent += 2 * time.Millisecond {
		if spent >= 20*time.Second {
			t.Fatal("process 1 never observed eating")
		}
		clk.Advance(2 * time.Millisecond)
	}
	clk.Advance(10 * time.Millisecond) // still well inside the 300ms meal
	stopPumped(clk, n1)

	// Restart node 1 on the same address with a fresh incarnation (Stop
	// released the address, so the rebind cannot race another process).
	ln1b, err := nw.Host("n1").Listen()
	if err != nil {
		t.Fatalf("rebind n1: %v", err)
	}
	n1b := mk(1, ln1b, 100*time.Millisecond)
	if err := n1b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopPumped(clk, n1b) })

	// The restarted process must eat again — repeatedly, so dedup and
	// ordering are exercised across many fresh sequence numbers.
	waitEatsV(t, clk, []*Node{n1b}, nil, 3, 30*time.Second)
	if err := n0.Err(); err != nil {
		t.Fatalf("surviving node protocol error: %v", err)
	}
	if err := n1b.Err(); err != nil {
		t.Fatalf("restarted node protocol error: %v", err)
	}
	if st := n0.Status(); len(st.Peers) != 1 || st.Peers[0].Connects < 2 {
		t.Fatalf("survivor saw %d connects, want >= 2 (reconnect to restarted peer)", st.Peers[0].Connects)
	}
}

func TestStatusHandler(t *testing.T) {
	g := graph.Clique(2)
	nodes := testCluster(t, g, [][]int{{0}, {1}}, nil)
	waitEats(t, nodes, nil, 1, 20*time.Second)
	srv := newLocalServer(t, nodes[0])
	resp, err := srv.get("/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"node": 0`, `"procs"`, `"eat_count"`, `"max_edge_occupancy"`} {
		if !strings.Contains(resp, want) {
			t.Fatalf("/status missing %q:\n%s", want, resp)
		}
	}
	if resp, err = srv.get("/debug/pprof/cmdline"); err != nil || resp == "" {
		t.Fatalf("pprof endpoint: %q, %v", resp, err)
	}
}

// newLocalServer serves a node's debug handler on an ephemeral port.
type localServer struct{ addr string }

func newLocalServer(t *testing.T, n *Node) *localServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = http.Serve(ln, n.Handler()) }()
	t.Cleanup(func() { ln.Close() })
	return &localServer{addr: ln.Addr().String()}
}

func (s *localServer) get(path string) (string, error) {
	c, err := net.DialTimeout("tcp", s.addr, time.Second)
	if err != nil {
		return "", err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.0\r\nHost: x\r\n\r\n", path); err != nil {
		return "", err
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), nil
}
