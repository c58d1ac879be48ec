package remote

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// fuzzVictim boots a single accepting node (node 1 of a 2-clique; node
// 0's address exists on the network but hosts nothing) on the virtual
// network and returns it with its clock and a raw connection dialed
// from node 0's address — the exact byte stream an accepted transport
// connection reads.
func fuzzVictim(t *testing.T) (*Node, *netsim.Clock, net.Conn) {
	t.Helper()
	clk := netsim.NewClock()
	nw := netsim.NewNet(clk, 1)
	ln, err := nw.Host("n1").Listen()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(graph.Clique(2), []NodeSpec{
		{Addr: "n0", Procs: []int{0}}, {Addr: "n1", Procs: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		Topology:        topo,
		Node:            1,
		HeartbeatPeriod: 5 * time.Millisecond,
		InitialTimeout:  200 * time.Millisecond,
		EatTime:         time.Millisecond,
		ThinkTime:       time.Millisecond,
		RTO:             15 * time.Millisecond,
		DialBackoff:     10 * time.Millisecond,
		Listener:        ln,
		Seed:            1,
		Clock:           clk,
		Dial: func(addr string) (net.Conn, error) {
			return nw.Host("n1").Dial(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := nw.Host("n0").Dial("n1")
	if err != nil {
		stopPumped(clk, n)
		t.Fatal(err)
	}
	return n, clk, c
}

// feedInbound plays one post-accept byte stream at the victim node:
// write, let virtual time run far past the handshake timeout and a few
// retransmission/heartbeat cycles, then tear everything down. The only
// assertions are implicit — no panic anywhere in the transport, and
// Stop returning proves every spawned goroutine was joined.
func feedInbound(t *testing.T, stream []byte) {
	t.Helper()
	n, clk, c := fuzzVictim(t)
	if len(stream) > 0 {
		// A stream past the pipe's buffer parks the write until the
		// victim reads, so count this goroutine while it writes.
		writer := vclock.Start(clk)
		_, err := c.Write(stream)
		writer.Exit()
		if err != nil {
			t.Fatalf("virtual write: %v", err)
		}
	}
	// Drain whatever the node replies (a Hello, acks) so its writes hit
	// a live reader, and surface the node's view of the stream ending.
	// The reader parks on the virtual network, so the clock counts it.
	reader := vclock.Start(clk)
	go func() {
		defer reader.Exit()
		var buf [512]byte
		for {
			if _, err := c.Read(buf[:]); err != nil {
				return
			}
		}
	}()
	clk.Advance(2 * handshakeTimeout)
	c.Close()
	clk.Advance(100 * time.Millisecond)
	stopPumped(clk, n)
	if err := n.Err(); err != nil {
		// A hostile byte stream may at worst trip a dining invariant on
		// the victim's process (it legitimately crashes the process, never
		// the node). That is the documented failure containment, not a
		// transport bug.
		t.Logf("process fell (contained): %v", err)
	}
}

// fuzzSeedStreams builds the committed interesting cases: a valid
// handshake, truncated hellos, a handshake followed by data frames cut
// mid-frame (what a connection reset leaves behind), duplicated
// hellos, and framing-level garbage.
func fuzzSeedStreams(t interface{ Fatal(args ...any) }) [][]byte {
	frame := func(fr wire.Frame) []byte {
		var b bytes.Buffer
		if err := wire.WriteFrame(&b, fr); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	hello := frame(wire.Frame{Kind: wire.Hello, Node: 0, Incarnation: 7, Procs: []uint32{0}})
	df := func(seq, ack uint64) []byte {
		fr, err := wire.DataFrame(core.Message{Kind: core.Ping, From: 0, To: 1}, seq, ack)
		if err != nil {
			t.Fatal(err)
		}
		return frame(fr)
	}
	ping := df(1, 0)
	hb := frame(wire.Frame{Kind: wire.Heartbeat, From: 0, To: 1})

	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return [][]byte{
		{},
		hello,
		hello[:3],                      // truncated hello: inside the length prefix
		hello[:len(hello)-2],           // truncated hello: mid-frame reset
		cat(hello, hello),              // duplicate hello on one connection
		cat(hello, ping),               // clean handshake plus one dining frame
		cat(hello, ping[:len(ping)-3]), // data frame cut mid-frame
		cat(hello, hb, ping, ping),     // duplicate delivery attempt
		cat(hello, []byte{0xff, 0xff, 0xff, 0xff, 0x00}), // oversized length prefix after handshake
		{0x00, 0x00, 0x00, 0x00},                         // zero-length frame
		bytes.Repeat([]byte{0xa5}, 64),                   // pure garbage
		// Coalesced-era shapes: a whole writev burst in one splice, the
		// same burst cut at an iovec boundary mid-frame, and a forged
		// batched cumulative ack acknowledging seqs never sent.
		cat(hello, df(1, 0), df(2, 0), df(3, 0)),
		cat(hello, df(1, 0), df(2, 0))[:len(hello)+2*len(ping)-7],
		cat(hello, df(1, 0), frame(wire.Frame{Kind: wire.Ack, From: 1, To: 0, Ack: 1 << 40})),
	}
}

// FuzzTransportInbound throws arbitrary post-accept byte streams at a
// node's inbound transport path (serverHandshake and the adopted
// connection's frame loop). The transport must never panic and must
// always join its goroutines on Stop, whatever bytes arrive — the
// wire codec's validation plus CRC trailer turn every corruption into
// a clean connection teardown.
func FuzzTransportInbound(f *testing.F) {
	for _, s := range fuzzSeedStreams(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		feedInbound(t, stream)
	})
}

// TestTransportInboundSeedsNoLeak replays every committed seed stream
// sequentially and checks the process goroutine count returns to its
// starting level — the explicit no-goroutine-leak assertion that the
// fuzz target itself cannot make (fuzz workers run concurrently).
func TestTransportInboundSeedsNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i, s := range fuzzSeedStreams(t) {
		t.Logf("seed stream %d (%d bytes)", i, len(s))
		feedInbound(t, s)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
