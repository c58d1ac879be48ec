package remote

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// handshakeTimeout bounds how long a Hello exchange may take; a peer
// that connects but stays silent is cut off.
const handshakeTimeout = 5 * time.Second

// dialTimeout bounds one TCP connect attempt.
const dialTimeout = 2 * time.Second

// writerQueueCap sizes a connection's outbound frame queue. The
// manager never blocks on it: when the queue is full (a stalled TCP
// connection) data frames are dropped and counted — the ARQ layer
// retransmits them — while idempotent control frames (heartbeats,
// cumulative acks) are coalesced into a per-pair stash of the latest
// instance and flushed when the writer drains. A writer that stays
// saturated for a full write timeout is treated as dead and torn down.
const writerQueueCap = 256

// pairKey identifies one ordered process pair (stream direction).
type pairKey struct{ from, to int }

type sendEntry struct {
	seq uint64
	msg core.Message
	// buf is the frame's wire encoding, frozen at submit time: the
	// iovec flush path retransmits these exact bytes without re-encoding
	// or re-slicing. The piggybacked ack inside is the one current at
	// submit; that staleness is harmless because cumulative acks are
	// monotone and the receive path restates the latest value within
	// one tick (pendingAck). Buffers are immutable once queued — the
	// write loop may still hold a reference after the ack pops the entry.
	buf []byte
}

// sendState is the sender half of one ordered pair; it lives in the
// peer manager and survives reconnects, so sequence numbers and the
// unacked queue span connection generations. The queue is a
// fixed-capacity ring (Config.SendWindow): a partitioned or slow peer
// can pin at most one window of frames per pair, never unbounded
// memory.
type sendState struct {
	nextSeq   uint64 // next sequence number to assign (starts at 1)
	queue     *sendRing
	bytes     int // encoded bytes held by the ring
	rto       time.Duration
	deadline  time.Time // zero = timer idle
	suspended bool      // retransmission parked while the peer process is suspected
	stalled   bool      // backpressure: window crossed high-water, sender parked
}

// stallMarks returns the backpressure hysteresis marks for window w:
// a pair crossing high parks its sender at the dining layer (exactly
// like suspicion); it resumes only after draining to low. The gap
// below capacity leaves headroom for the parked diner's bounded
// residual traffic (Lemma 2.2: at most one pending ping and one
// request toward an unresponsive neighbor, plus deferred grants driven
// by inbound frames), so a correctly parked pair never reaches the
// hard capacity.
func stallMarks(w int) (high, low int) {
	high = w - 16
	if min := (w + 1) / 2; high < min {
		high = min
	}
	low = high / 2
	if low < 1 {
		low = 1
	}
	return high, low
}

// recvState is the receiver half of one ordered pair: dedup and
// reordering across reconnects.
type recvState struct {
	next uint64 // lowest sequence not yet delivered (starts at 1)
	buf  map[uint64]core.Message
}

// liveConn is one accepted or dialed connection generation. done is
// closed when the generation is retired, releasing its writer.
type liveConn struct {
	c    net.Conn
	gen  uint64
	out  chan []byte
	park *vclock.Parker // the writer's share of the clock's running count
	done chan struct{}

	// rd is the generation's zero-copy frame decoder. Frames it yields
	// are views into its reused read buffer (wire.Decoder's ownership
	// contract): only the read loop may touch it, and any frame that
	// outlives one loop iteration must be Clone()d before crossing a
	// goroutine boundary.
	rd *wire.Decoder // owned: peer.readLoop

	// satSince is when the writer queue first refused a frame with no
	// successful enqueue since (zero = not saturated). A queue saturated
	// for a full write timeout marks the connection dead even if the
	// socket never errors.
	satSince time.Time // owned: peer.run
}

// retire closes the generation's socket and releases its writer.
func (lc *liveConn) retire() {
	lc.c.Close()
	close(lc.done)
}

// peer is the manager for the link to one remote node. A single
// goroutine (run) owns all its state and executes closures posted to
// cmds, so the transport needs no mutexes.
type peer struct {
	node   *Node
	remote int
	dialer bool // exactly one side dials: the lower node index
	cmds   chan func()
	park   *vclock.Parker // run's share of the clock's running count

	// Manager-owned state below; the annotations bind each field to the
	// run loop, enforced by the mailboxown analyzer.
	conn      *liveConn              // owned: run
	connGen   uint64                 // owned: run
	peerInc   uint64                 // owned: run — peer's boot incarnation from its last Hello (0 = never seen)
	dialDelay time.Duration          // owned: run
	dialing   bool                   // owned: run
	capFails  int                    // owned: run — consecutive dial failures at the backoff cap (Down hysteresis)
	sends     map[pairKey]*sendState // owned: run
	recvs     map[pairKey]*recvState // owned: run
	// pendingHB coalesces heartbeats awaiting writer room. pendingAck
	// holds the cumulative ack owed per pair (highest wins): inbound data
	// records it there, and it leaves either piggybacked on the next data
	// frame of the reverse pair (submit drops the covered stash) or as a
	// pure ack frame at the next tick (flushCoalesced).
	pendingHB  map[pairKey]bool   // owned: run
	pendingAck map[pairKey]uint64 // owned: run
	// iov is scratch for gathering a ring's stored encodings into one
	// retransmission burst without allocating per scan.
	iov [][]byte   // owned: run
	rng *rand.Rand // owned: run

	// Cross-goroutine observation points for the node watchdog (the
	// manager may be wedged, so these bypass the command channel).
	lastDrain atomic.Int64 // clk nanos of the last manager loop iteration
	liveSock  atomic.Value // sockBox: current socket, for a forced close
}

// sockBox wraps the current net.Conn for atomic.Value storage (an
// empty box means no live socket).
type sockBox struct{ c net.Conn }

func newPeer(n *Node, remote int) *peer {
	return &peer{
		node:       n,
		remote:     remote,
		dialer:     n.self < remote,
		cmds:       make(chan func(), 1024),
		park:       vclock.NewParker(n.clk),
		sends:      make(map[pairKey]*sendState),
		recvs:      make(map[pairKey]*recvState),
		pendingHB:  make(map[pairKey]bool),
		pendingAck: make(map[pairKey]uint64),
		rng:        n.jitterRand(remote),
	}
}

// post hands a closure to the manager goroutine, giving up when the
// node is stopping. On a full mailbox the caller waits as idle to the
// clock, as in rproc.post: the manager may itself be blocked on a
// wedged process's inbox.
func (p *peer) post(fn func()) {
	select {
	case p.cmds <- fn:
		p.park.Handed()
		return
	default:
	}
	idle := p.park.Blocking()
	defer p.park.Unblocked(idle)
	select {
	case p.cmds <- fn:
		p.park.Handed()
	case <-p.node.stop:
	}
}

// tickEvery derives the retransmission scan period from the RTO. The
// same tick flushes deferred acks, so it also bounds how long an ack
// may wait for a reverse data frame to carry it.
func (p *peer) tickEvery() time.Duration {
	d := p.node.cfg.RTO / 3
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// run is the manager loop.
func (p *peer) run() {
	defer p.node.wg.Done()
	defer p.park.Exit()
	defer p.teardown()
	ticker := p.node.clk.NewTicker(p.tickEvery())
	defer ticker.Stop()
	p.park.Watch(ticker)
	if p.dialer {
		p.startDial()
	}
	p.lastDrain.Store(p.node.clk.Now().UnixNano())
	for {
		p.park.Park()
		select {
		case <-p.node.stop:
			return
		case fn := <-p.cmds:
			p.park.Take()
			if p.node.stopping() {
				// Stop may have made post drop an earlier command from the
				// same sender; running this one without it would, say,
				// give a later message the dropped one's sequence number.
				return
			}
			fn()
		case <-ticker.C():
			p.park.Take()
			p.tick()
		}
		// Stamp progress for the watchdog: a manager that stops making
		// iterations while its mailbox backs up is wedged.
		p.lastDrain.Store(p.node.clk.Now().UnixNano())
	}
}

// teardown closes the current connection on shutdown.
func (p *peer) teardown() {
	if p.conn != nil {
		p.conn.retire()
		p.conn = nil
		p.liveSock.Store(sockBox{})
	}
}

// --- dialing and handshake ---------------------------------------------

// startDial launches one connect attempt (manager goroutine only).
func (p *peer) startDial() {
	if p.dialing || p.conn != nil || !p.dialer {
		return
	}
	p.dialing = true
	addr := p.node.topo.Nodes[p.remote].Addr
	p.node.wg.Add(1)
	park := vclock.Start(p.node.clk)
	go p.dialAttempt(addr, park)
}

// dialAttempt runs off the manager goroutine: TCP connect plus the
// client half of the Hello exchange, then hands the result back.
func (p *peer) dialAttempt(addr string, park *vclock.Parker) {
	defer p.node.wg.Done()
	defer park.Exit()
	var inc uint64
	c, err := p.dialConn(addr)
	if err == nil {
		inc, err = p.clientHandshake(c)
		if err != nil {
			c.Close()
			c = nil
		}
	}
	p.post(func() { p.onDialDone(c, inc, err) })
}

func (p *peer) dialConn(addr string) (net.Conn, error) {
	if addr == "" {
		return nil, fmt.Errorf("remote: node %d has no address yet", p.remote)
	}
	if p.node.cfg.Dial != nil {
		return p.node.cfg.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// clientHandshake sends our Hello, validates the peer's reply against
// the shared topology, and returns the peer's boot incarnation.
func (p *peer) clientHandshake(c net.Conn) (uint64, error) {
	c.SetDeadline(p.node.clk.Now().Add(handshakeTimeout))
	defer c.SetDeadline(time.Time{})
	if err := wire.WriteFrame(c, p.node.helloFrame()); err != nil {
		return 0, fmt.Errorf("remote: hello send to node %d: %w", p.remote, err)
	}
	fr, err := wire.ReadFrame(c)
	if err != nil {
		return 0, fmt.Errorf("remote: hello read from node %d: %w", p.remote, err)
	}
	if err := p.node.checkHello(fr, p.remote); err != nil {
		return 0, err
	}
	return fr.Incarnation, nil
}

// onDialDone adopts a successful connection or schedules the next
// attempt with exponential backoff + jitter (manager goroutine only).
func (p *peer) onDialDone(c net.Conn, inc uint64, err error) {
	p.dialing = false
	if err != nil || c == nil {
		if c != nil {
			c.Close()
		}
		p.node.logf("node %d: dial node %d failed: %v", p.node.self, p.remote, err)
		p.scheduleRedial()
		return
	}
	if p.conn != nil {
		// A connection raced in while we dialed (shouldn't happen with
		// one dialing side, but be safe): keep the existing one.
		c.Close()
		return
	}
	p.adopt(c, inc)
}

// scheduleRedial arms the next dial attempt (manager goroutine only).
// Repeated failures at the backoff cap demote the link to Down —
// with downAfterFails of hysteresis so one unlucky redial during a
// listener restart doesn't flap the state machine.
func (p *peer) scheduleRedial() {
	pol := p.node.cfg.dialPolicy()
	p.dialDelay = time.Duration(pol.Next(int64(p.dialDelay)))
	if int64(p.dialDelay) >= pol.Max {
		p.capFails++
		if p.capFails >= downAfterFails {
			p.node.tr.setHealth(p.remote, HealthDown, "reconnect backoff exhausted")
		}
	}
	d := time.Duration(pol.Jittered(int64(p.dialDelay), p.rng.Int63n))
	p.node.clk.AfterFunc(d, func() { p.post(p.startDial) })
}

// helloFrame is this node's handshake announcement.
func (n *Node) helloFrame() wire.Frame {
	procs := make([]uint32, 0, len(n.procs))
	for id := range n.procs {
		procs = append(procs, uint32(id))
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	return wire.Frame{Kind: wire.Hello, Node: uint32(n.self), Incarnation: n.incarnation, Procs: procs}
}

// checkHello validates a peer's Hello against the shared topology: the
// frame must be a Hello claiming the expected node index, and the
// advertised process list must match our topology's placement for that
// node exactly. Nodes loading different topology files would otherwise
// happily interconnect and misroute process IDs; instead the placement
// disagreement surfaces here as a handshake rejection.
func (n *Node) checkHello(fr wire.Frame, wantNode int) error {
	if fr.Kind != wire.Hello {
		return fmt.Errorf("remote: want hello from node %d, got %v", wantNode, fr)
	}
	if int(fr.Node) != wantNode {
		return fmt.Errorf("remote: hello claims node %d, want node %d", fr.Node, wantNode)
	}
	want := append([]int(nil), n.topo.Nodes[wantNode].Procs...)
	sort.Ints(want)
	if len(fr.Procs) != len(want) {
		return fmt.Errorf("remote: node %d advertises %d processes, topology places %d", wantNode, len(fr.Procs), len(want))
	}
	for i, pid := range fr.Procs {
		if int(pid) != want[i] {
			return fmt.Errorf("remote: node %d advertises process %d where topology places %d", wantNode, pid, want[i])
		}
	}
	return nil
}

// acceptLoop serves inbound connections until the listener closes.
func (n *Node) acceptLoop(park *vclock.Parker) {
	defer n.wg.Done()
	defer park.Exit()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed (Stop)
		}
		n.wg.Add(1)
		hs := vclock.Start(n.clk)
		go n.serverHandshake(c, hs)
	}
}

// serverHandshake validates an inbound Hello, replies with ours, and
// hands the connection to the owning peer manager.
func (n *Node) serverHandshake(c net.Conn, park *vclock.Parker) {
	defer n.wg.Done()
	defer park.Exit()
	c.SetDeadline(n.clk.Now().Add(handshakeTimeout))
	fr, err := wire.ReadFrame(c)
	if err != nil || fr.Kind != wire.Hello {
		n.logf("node %d: bad inbound handshake: %v (err %v)", n.self, fr, err)
		c.Close()
		return
	}
	pr, ok := n.peers[int(fr.Node)]
	if !ok || pr.dialer {
		// Unknown node, or a peer that should be accepting our dial,
		// not dialing us.
		n.logf("node %d: unexpected hello from node %d", n.self, fr.Node)
		c.Close()
		return
	}
	if err := n.checkHello(fr, int(fr.Node)); err != nil {
		n.logf("node %d: rejecting inbound handshake: %v", n.self, err)
		c.Close()
		return
	}
	if err := wire.WriteFrame(c, n.helloFrame()); err != nil {
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	pr.post(func() { pr.acceptConn(c, fr.Incarnation) })
}

// acceptConn installs an inbound connection, replacing any current one
// (the dialer reconnected, so the old conn is dead or dying).
func (p *peer) acceptConn(c net.Conn, inc uint64) {
	if p.conn != nil {
		p.conn.retire()
		p.conn = nil
	}
	p.adopt(c, inc)
}

// noteIncarnation compares the incarnation a peer advertised in its
// Hello against the last one seen; a change means the peer daemon
// restarted, so everything this link carries is stale and the link
// starts a new epoch (manager goroutine only):
//
//   - receive streams reset to 1 so the restarted peer's fresh frames
//     deliver instead of being dedup-dropped (or parked forever in the
//     reorder buffer);
//   - queued unacked sends are discarded, not retransmitted — they were
//     addressed to dining state that no longer exists, and replaying
//     them into a reborn diner trips its invariants (a Request it never
//     solicited, an Ack it never pinged for);
//   - every local process sharing an edge with the restarted node
//     resets that edge to the initial fork/token placement
//     (core.Diner.ResetNeighbor), matching what the reborn diner
//     booted with. Without this both endpoints can hold the edge's
//     one fork and eat concurrently forever — a silent exclusion
//     breach no local invariant catches.
//
// The edge resets are posted before the new connection's read loop
// starts, so they land in each process inbox ahead of any fresh-epoch
// frame.
func (p *peer) noteIncarnation(inc uint64) {
	if inc == p.peerInc {
		return
	}
	if p.peerInc != 0 {
		p.node.logf("node %d: node %d restarted (incarnation %d -> %d); resetting link state",
			p.node.self, p.remote, p.peerInc, inc)
		for key, ss := range p.sends {
			for i := 0; i < ss.queue.len(); i++ {
				// Close the occupancy accounting of each discarded
				// message: it is no longer in transit.
				e := ss.queue.at(i)
				p.node.tr.appDeliver(e.msg.From, e.msg.To)
			}
			ss.queue.clear()
			ss.bytes = 0
			ss.nextSeq = 1
			ss.rto = p.node.cfg.RTO
			ss.deadline = time.Time{}
			p.noteQueue(key, ss)
			p.maybeUnstall(key, ss)
		}
		for _, rs := range p.recvs {
			rs.next = 1
			rs.buf = make(map[uint64]core.Message)
		}
		// Stashed control frames belong to the dead epoch: acks restate
		// from the fresh recv cursors on adopt, heartbeats are periodic.
		p.pendingHB = make(map[pairKey]bool)
		p.pendingAck = make(map[pairKey]uint64)
		p.node.resetEdges(p.remote)
	}
	p.peerInc = inc
}

// adopt makes c the live connection: starts its reader and writer,
// resets the backoff, resets the ARQ state if the peer's incarnation
// changed, retransmits every unacked frame, and re-states our
// cumulative acks so the peer can clear its own queues (manager
// goroutine only).
func (p *peer) adopt(c net.Conn, inc uint64) {
	p.noteIncarnation(inc)
	p.connGen++
	lc := &liveConn{c: c, gen: p.connGen, out: make(chan []byte, writerQueueCap), park: vclock.NewParker(p.node.clk), done: make(chan struct{}), rd: wire.NewDecoder(c)}
	p.conn = lc
	p.liveSock.Store(sockBox{c: c})
	p.dialDelay = 0
	p.capFails = 0
	p.node.tr.peerConnected(p.remote, true)
	// A successful handshake resurrects the link from any state; pairs
	// still backlogged past high-water keep it Degraded until drained.
	if p.anyStalled() {
		p.node.tr.setHealth(p.remote, HealthDegraded, "reconnected with stalled pairs")
	} else {
		p.node.tr.setHealth(p.remote, HealthHealthy, "reconnected")
	}
	p.node.logf("node %d: connected to node %d (gen %d)", p.node.self, p.remote, lc.gen)
	p.node.wg.Add(2)
	reader := vclock.Start(p.node.clk)
	go p.readLoop(lc, reader)
	lc.park.Begin()
	go p.writeLoop(lc)
	now := p.node.clk.Now()
	for key, ss := range p.sends {
		ss.rto = p.node.cfg.RTO
		ss.deadline = time.Time{}
		if ss.queue.len() > 0 && !ss.suspended {
			p.retransmitQueue(key, ss)
			p.armDeadline(ss, now)
		}
	}
	for key, rs := range p.recvs {
		if rs.next > 1 {
			p.sendAck(key.to, key.from, rs.next-1)
		}
	}
}

// connDown tears down connection generation gen after a read or write
// error (manager goroutine only; stale generations are ignored).
func (p *peer) connDown(gen uint64, err error) {
	if p.conn == nil || p.conn.gen != gen {
		return
	}
	p.node.logf("node %d: connection to node %d down: %v", p.node.self, p.remote, err)
	p.conn.retire()
	p.conn = nil
	p.liveSock.Store(sockBox{})
	p.node.tr.peerConnected(p.remote, false)
	if h := p.node.tr.healthOf(p.remote); h == HealthHealthy || h == HealthDegraded {
		p.node.tr.setHealth(p.remote, HealthSuspect, "connection down")
	}
	for _, ss := range p.sends {
		ss.deadline = time.Time{} // nothing to retransmit into; adopt re-arms
	}
	if p.dialer {
		p.scheduleRedial()
	}
}

// --- frame I/O ---------------------------------------------------------

// encodeFrame renders fr into one exactly-sized allocation (FrameSize
// is pinned to the encoder's output), recording codec errors (which
// indicate a local bug, never peer behavior) and returning nil on
// failure.
func (p *peer) encodeFrame(fr wire.Frame) []byte {
	buf, err := wire.AppendFrame(make([]byte, 0, wire.FrameSize(fr)), fr)
	if err != nil {
		p.node.tr.recordErr(fmt.Errorf("remote: encode %v: %w", fr, err))
		return nil
	}
	return buf
}

// sendEncoded offers an encoded frame to the live connection's writer
// without blocking, tracking saturation: the first refusal stamps
// satSince, any success clears it. Returns false when disconnected or
// saturated (manager goroutine only).
func (p *peer) sendEncoded(buf []byte) bool {
	if p.conn == nil {
		return false
	}
	select {
	case p.conn.out <- buf:
		p.conn.park.Handed()
		p.conn.satSince = time.Time{}
		return true
	default:
		if p.conn.satSince.IsZero() {
			p.conn.satSince = p.node.clk.Now()
		}
		return false
	}
}

// sendAck transmits a cumulative ack for the from→to pair at once — the
// reconnect restatement in adopt; acks owed for inbound data wait in
// pendingAck instead (manager goroutine only; skipped while
// disconnected). On a saturated writer the highest ack per pair is
// stashed instead of queued: cumulative acks are idempotent and
// monotone, so restating only the latest loses nothing while shedding
// queue pressure.
func (p *peer) sendAck(from, to int, ack uint64) {
	if p.conn == nil {
		return
	}
	buf := p.encodeFrame(wire.Frame{Kind: wire.Ack, From: uint32(from), To: uint32(to), Ack: ack})
	if buf == nil {
		return
	}
	if !p.sendEncoded(buf) {
		key := pairKey{from: from, to: to}
		if cur, ok := p.pendingAck[key]; !ok || ack > cur {
			p.pendingAck[key] = ack
		}
		p.node.tr.coalescedFrame(p.remote)
	}
}

// flushCoalesced sends the stashed idempotent frames — acks still owed
// because no reverse data frame carried them, and frames a saturated
// writer refused — once the writer has room (manager goroutine only,
// from tick). Pairs are visited in sorted order so the wire sequence
// stays deterministic under netsim.
func (p *peer) flushCoalesced() {
	for _, key := range sortedPairKeys(p.pendingAck) {
		buf := p.encodeFrame(wire.Frame{Kind: wire.Ack, From: uint32(key.from), To: uint32(key.to), Ack: p.pendingAck[key]})
		if buf != nil && !p.sendEncoded(buf) {
			return // still saturated; retry next tick
		}
		delete(p.pendingAck, key)
	}
	for _, key := range sortedPairKeys(p.pendingHB) {
		buf := p.encodeFrame(wire.Frame{Kind: wire.Heartbeat, From: uint32(key.from), To: uint32(key.to)})
		if buf != nil && !p.sendEncoded(buf) {
			return
		}
		delete(p.pendingHB, key)
	}
}

// sortedPairKeys returns a map's keys in (from, to) order, keeping
// flush order deterministic under netsim.
func sortedPairKeys[V any](m map[pairKey]V) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	return keys
}

// writeTimeout bounds one frame write. A half-dead connection (peer
// unreachable, no RST) would otherwise block Write for the OS TCP
// timeout — minutes during which p.conn stays non-nil, so the dialer
// never redials and every frame, heartbeats included, drops on the
// saturated writer queue. Several suspicion timeouts is far more than
// a live peer ever needs to drain one small frame, and short enough
// that the failure detector's recovery assumptions hold.
func (p *peer) writeTimeout() time.Duration {
	d := 4 * p.node.cfg.InitialTimeout
	if hb := 10 * p.node.cfg.HeartbeatPeriod; d < hb {
		d = hb
	}
	return d
}

// writeBatchMax bounds how many queued frames one flush gathers into a
// single writev. It is small enough that a batch always fits a socket
// buffer comfortably, large enough that a send-window burst (default
// 256 frames ≈ 8 KiB) drains in a handful of syscalls.
const writeBatchMax = 64

// writeLoop owns the connection's write side. It gathers every frame
// already queued (up to writeBatchMax) into one net.Buffers flush: on a
// real TCP connection that is a single writev syscall per burst, the
// tentpole's one-syscall-per-burst path. On any other net.Conn —
// netsim's virtual pipes in particular — net.Buffers falls back to one
// Write per buffer, byte-for-byte and call-for-call identical to the
// old per-frame loop, which is what keeps netsim's per-seed traces
// byte-identical (each Write draws one jitter sample; batching must
// not change the Write count).
//
// Each flush carries one deadline; a deadline error tears the
// generation down like any other write failure, so the dialer redials
// promptly.
func (p *peer) writeLoop(lc *liveConn) {
	defer p.node.wg.Done()
	defer lc.park.Exit()
	wt := p.writeTimeout()
	bufs := make(net.Buffers, 0, writeBatchMax)
	for {
		lc.park.Park()
		select {
		case <-p.node.stop:
			return
		case <-lc.done:
			return
		case buf := <-lc.out:
			lc.park.Take()
			bufs = append(bufs[:0], buf)
		gather:
			for len(bufs) < writeBatchMax {
				select {
				case more := <-lc.out:
					lc.park.Take()
					bufs = append(bufs, more)
				default:
					break gather
				}
			}
			lc.c.SetWriteDeadline(p.node.clk.Now().Add(wt))
			wb := bufs // WriteTo consumes its receiver; keep bufs reusable
			if _, err := wb.WriteTo(lc.c); err != nil {
				p.post(func() { p.connDown(lc.gen, err) })
				return
			}
			for i := range bufs {
				bufs[i] = nil // release frame references promptly
			}
		}
	}
}

// inboundBatchMax bounds how many ARQ frames one manager command
// carries; a larger burst is split across commands.
const inboundBatchMax = 128

// readLoop owns the connection's read side. It decodes frames through
// the generation's zero-copy decoder and routes them — heartbeats
// straight to process inboxes, ARQ frames to the manager — draining
// every frame the decoder already holds buffered (Decoder.More) into
// one posted batch, so a coalesced burst arriving in one TCP segment
// costs one manager command instead of one per frame.
//
// Batch boundaries are trace-deterministic under netsim: its pipes
// deliver at most one write's worth of bytes per Read and the write
// side sends one frame per Write there, so a netsim batch is always
// exactly one frame — byte-identical behavior to the old per-frame
// loop — while real TCP sockets, which merge frames into segments,
// get genuine batching.
//
// The decoded Frame is a view per the zero-copy contract: Data and Ack
// frames are pure values (no reference fields) and are copied into the
// batch slice; anything that crosses a goroutine boundary otherwise —
// the mid-stream Hello posted as a protocol error — is Clone()d first.
func (p *peer) readLoop(lc *liveConn, park *vclock.Parker) {
	defer p.node.wg.Done()
	defer park.Exit()
	var fr wire.Frame
	for {
		// Block for the first frame of a burst.
		if err := lc.rd.Next(&fr); err != nil {
			p.post(func() { p.connDown(lc.gen, err) })
			return
		}
		var batch []wire.Frame
		for {
			switch fr.Kind {
			case wire.Heartbeat:
				p.node.deliverHeartbeat(int(fr.To), int(fr.From))
			case wire.Data, wire.Ack:
				batch = append(batch, fr)
			default:
				// A second Hello — or an unknown kind — mid-stream is a
				// protocol error. Deliver what preceded it in stream order,
				// then tear the generation down.
				bad := fr.Clone()
				p.postInbound(lc.gen, batch)
				p.post(func() { p.protocolError(lc.gen, bad) })
				return
			}
			if len(batch) >= inboundBatchMax || !lc.rd.More() {
				break
			}
			if err := lc.rd.Next(&fr); err != nil {
				p.postInbound(lc.gen, batch)
				p.post(func() { p.connDown(lc.gen, err) })
				return
			}
		}
		p.postInbound(lc.gen, batch)
	}
}

// postInbound hands one read burst to the manager (no-op on an empty
// batch). The slice is freshly built per burst and ownership moves to
// the manager with the post.
func (p *peer) postInbound(gen uint64, batch []wire.Frame) {
	if len(batch) == 0 {
		return
	}
	p.post(func() { p.onInbound(gen, batch) })
}

// protocolError drops a connection that sent an illegal frame.
func (p *peer) protocolError(gen uint64, fr wire.Frame) {
	p.connDown(gen, fmt.Errorf("remote: illegal frame %v", fr))
}

// --- ARQ ---------------------------------------------------------------

func (p *peer) sendStateFor(key pairKey) *sendState {
	ss, ok := p.sends[key]
	if !ok {
		ss = &sendState{nextSeq: 1, rto: p.node.cfg.RTO, queue: newSendRing(p.node.cfg.SendWindow)}
		p.sends[key] = ss
	}
	return ss
}

// noteQueue publishes the pair's ring depth and byte gauges.
func (p *peer) noteQueue(key pairKey, ss *sendState) {
	p.node.tr.pairQueue(p.remote, key, ss.queue.len(), ss.bytes)
}

// anyStalled reports whether any ordered pair is backpressure-parked.
func (p *peer) anyStalled() bool {
	for _, ss := range p.sends {
		if ss.stalled {
			return true
		}
	}
	return false
}

// maybeStall parks the pair's sender when the ring crosses high-water:
// the stall surfaces to the dining layer exactly like suspicion (the
// local diner stops waiting on — and generating traffic toward — the
// neighbor), so wait-freedom among non-stalled neighbors is preserved
// while retransmission keeps draining the backlog.
func (p *peer) maybeStall(key pairKey, ss *sendState) {
	high, _ := stallMarks(ss.queue.capacity())
	if ss.stalled || ss.queue.len() < high {
		return
	}
	ss.stalled = true
	p.node.tr.stallBegan(p.remote)
	if p.node.tr.healthOf(p.remote) == HealthHealthy {
		p.node.tr.setHealth(p.remote, HealthDegraded, "send window high-water")
	}
	p.node.signalStall(key.from, key.to, true)
}

// maybeUnstall resumes a parked pair once the ring drains to low-water
// (hysteresis: well below the high mark, so the link doesn't flap on
// the boundary).
func (p *peer) maybeUnstall(key pairKey, ss *sendState) {
	_, low := stallMarks(ss.queue.capacity())
	if !ss.stalled || ss.queue.len() > low {
		return
	}
	ss.stalled = false
	p.node.signalStall(key.from, key.to, false)
	if p.conn != nil && !p.anyStalled() && p.node.tr.healthOf(p.remote) == HealthDegraded {
		p.node.tr.setHealth(p.remote, HealthHealthy, "send windows drained")
	}
}

func (p *peer) recvStateFor(key pairKey) *recvState {
	rs, ok := p.recvs[key]
	if !ok {
		rs = &recvState{next: 1, buf: make(map[uint64]core.Message)}
		p.recvs[key] = rs
	}
	return rs
}

// submit accepts one dining message from local process m.From for
// remote process m.To: assign the next sequence number, queue until
// acked, transmit immediately with a piggybacked ack (manager
// goroutine only). Crossing the window's high-water mark stalls the
// sending pair; filling it entirely means flow control was breached —
// the diner's residual traffic is Lemma-bounded far below any sane
// window — so the sender fails loudly instead of growing or silently
// dropping (either would break exactly-once FIFO invisibly).
func (p *peer) submit(m core.Message) {
	key := pairKey{from: m.From, to: m.To}
	ss := p.sendStateFor(key)
	if ss.queue.full() {
		p.node.failProc(m.From, fmt.Errorf(
			"remote: send window (%d) from process %d to %d overflowed; backpressure breached",
			ss.queue.capacity(), m.From, m.To))
		return
	}
	fr, err := wire.DataFrame(m, ss.nextSeq, p.recvStateFor(pairKey{from: m.To, to: m.From}).next-1)
	if err != nil {
		p.node.tr.recordErr(err)
		return
	}
	buf := p.encodeFrame(fr)
	if buf == nil {
		return
	}
	// The frame restates the reverse stream's cumulative ack, so any
	// stashed pure ack it covers is redundant: drop the stash instead of
	// flushing the same information twice on the next tick.
	if cur, ok := p.pendingAck[key]; ok && cur <= fr.Ack {
		delete(p.pendingAck, key)
	}
	seq := ss.nextSeq
	ss.nextSeq++
	ss.queue.push(sendEntry{seq: seq, msg: m, buf: buf})
	ss.bytes += len(buf)
	p.noteQueue(key, ss)
	p.maybeStall(key, ss)
	if !p.sendEncoded(buf) && p.conn != nil {
		p.node.tr.writerDrop(p.remote)
	}
	if !ss.suspended && ss.deadline.IsZero() {
		p.armDeadline(ss, p.node.clk.Now())
	}
}

// armDeadline schedules the pair's next retransmission scan.
func (p *peer) armDeadline(ss *sendState, now time.Time) {
	d := time.Duration(p.node.cfg.rtoPolicy().Jittered(int64(ss.rto), p.rng.Int63n))
	ss.deadline = now.Add(d)
}

// tick retransmits every pair whose oldest unacked frame has waited a
// full RTO, flushes deferred acks and coalesced control frames, and
// tears down a writer that has been saturated past the write timeout
// (manager goroutine only).
func (p *peer) tick() {
	if p.conn == nil {
		return
	}
	now := p.node.clk.Now()
	if !p.conn.satSince.IsZero() && now.Sub(p.conn.satSince) > p.writeTimeout() {
		// The writer queue has refused every frame for a full write
		// timeout: the connection is dead in all but name. Tear it down
		// so the dialer redials instead of letting frames rot.
		p.connDown(p.conn.gen, fmt.Errorf("remote: writer queue saturated for %v", p.writeTimeout()))
		return
	}
	p.flushCoalesced()
	for key, ss := range p.sends {
		if ss.suspended || ss.queue.len() == 0 {
			continue
		}
		if ss.deadline.IsZero() {
			p.armDeadline(ss, now)
			continue
		}
		if now.Before(ss.deadline) {
			continue
		}
		p.retransmitQueue(key, ss)
		ss.rto = time.Duration(p.node.cfg.rtoPolicy().Next(int64(ss.rto)))
		p.armDeadline(ss, now)
	}
}

// retransmitQueue resends every unacked frame on the pair (go-back-N)
// straight from the ring's stored encodings — the iovec flush path: no
// re-encode, no re-slice, one writer offer per frame that the write
// loop gathers into a single writev. The piggybacked ack inside each
// stored frame is the one frozen at submit; the receive path restates
// the current cumulative ack within one tick, and acks are monotone,
// so the frozen value can never move the peer backwards.
func (p *peer) retransmitQueue(key pairKey, ss *sendState) {
	_ = key // the pair's identity lives in the stored frames
	p.iov = ss.queue.appendBufs(p.iov[:0])
	for i, buf := range p.iov {
		p.node.tr.retransmit(p.remote)
		if !p.sendEncoded(buf) && p.conn != nil {
			p.node.tr.writerDrop(p.remote)
		}
		p.iov[i] = nil
	}
}

// setSuspended parks or resumes retransmission for the ordered pair
// (from=local, to=remote process), driven by the local ◇P₁ module
// (manager goroutine only).
func (p *peer) setSuspended(from, to int, suspended bool) {
	ss := p.sendStateFor(pairKey{from: from, to: to})
	if ss.suspended == suspended {
		return
	}
	ss.suspended = suspended
	if suspended {
		ss.deadline = time.Time{}
		return
	}
	// Freshly trusted: the backlog goes out immediately with a reset
	// backoff, exactly like rlink.Resume.
	ss.rto = p.node.cfg.RTO
	if ss.queue.len() > 0 && p.conn != nil {
		p.retransmitQueue(pairKey{from: from, to: to}, ss)
		p.armDeadline(ss, p.node.clk.Now())
	}
}

// stale reports whether a frame decoded on connection generation gen
// arrived after that generation was retired (manager goroutine only).
// A late old-generation frame must be dropped, not applied: after an
// incarnation-driven epoch reset its sequence numbers are meaningless —
// a stale data frame could park a pre-restart message in the fresh
// reorder buffer, and a stale cumulative ack could drain fresh queue
// entries the peer never received. Within an epoch dropping is always
// safe; the ARQ layer retransmits on the next connection.
func (p *peer) stale(gen uint64) bool {
	return p.conn == nil || p.conn.gen != gen
}

// onInbound applies one read burst — Data and Ack frames decoded from
// bytes the wire had already delivered — in stream order (manager
// goroutine only). It sends no ack itself: onData records each pair's
// cumulative ack in pendingAck, where the local diner's reply usually
// picks it up piggybacked and the next tick flushes whatever is left.
// Cumulative acks are monotone, so restating only the highest value
// loses nothing; exactly-once FIFO is untouched because delivery order
// and dedup happen per frame, before any ack is formed.
func (p *peer) onInbound(gen uint64, frames []wire.Frame) {
	if p.stale(gen) {
		return
	}
	for i := range frames {
		fr := &frames[i]
		switch fr.Kind {
		case wire.Data:
			p.onData(*fr)
		case wire.Ack:
			p.applyAck(int(fr.To), int(fr.From), fr.Ack)
		default:
			// readLoop batches only Data and Ack; anything else here is a
			// local bug, never peer behavior.
			p.node.tr.recordErr(fmt.Errorf("remote: %v frame in inbound batch", fr.Kind))
		}
	}
}

// onData processes one data frame from remote process fr.From to local
// process fr.To (manager goroutine only) and owes the sender an ack:
// the pair's cumulative ack goes into pendingAck. Every data frame is
// acknowledged, if only cumulatively, within one tick — piggybacked if
// the local process replies first, as a pure ack otherwise — so the
// sender's queue drains even when the application has nothing to say
// back. One tick (tickEvery) is at most RTO/3 for any RTO of 15ms or
// more, so on a link whose round trip fits in the rest of the RTO the
// deferral costs no retransmission.
func (p *peer) onData(fr wire.Frame) {
	p.applyAck(int(fr.To), int(fr.From), fr.Ack)
	key := pairKey{from: int(fr.From), to: int(fr.To)}
	rs := p.recvStateFor(key)
	switch {
	case fr.Seq < rs.next:
		p.node.tr.dupSuppressed(p.remote)
	case fr.Seq == rs.next:
		p.node.deliverData(fr.Message())
		rs.next++
		for {
			m, ok := rs.buf[rs.next]
			if !ok {
				break
			}
			delete(rs.buf, rs.next)
			p.node.deliverData(m)
			rs.next++
		}
	default:
		if _, dup := rs.buf[fr.Seq]; dup {
			p.node.tr.dupSuppressed(p.remote)
		} else {
			rs.buf[fr.Seq] = fr.Message()
		}
	}
	ackKey := pairKey{from: key.to, to: key.from}
	if cur, ok := p.pendingAck[ackKey]; !ok || rs.next-1 > cur {
		p.pendingAck[ackKey] = rs.next - 1
	}
}

// applyAck applies a cumulative ack from the remote process `remote`
// covering the stream local → remote (manager goroutine only). Acked
// entries are popped from the ring — which zeroes their slots, so the
// messages are garbage-collectible immediately — and a pair that
// drains to low-water resumes its stalled sender.
func (p *peer) applyAck(local, remote int, ack uint64) {
	key := pairKey{from: local, to: remote}
	ss, ok := p.sends[key]
	if !ok {
		return
	}
	progressed := false
	for ss.queue.len() > 0 && ss.queue.front().seq <= ack {
		e := ss.queue.popFront()
		ss.bytes -= len(e.buf)
		p.node.tr.appDeliver(e.msg.From, e.msg.To)
		progressed = true
	}
	if !progressed {
		return
	}
	p.noteQueue(key, ss)
	p.maybeUnstall(key, ss)
	// Forward progress: the path works, so reset the backoff.
	ss.rto = p.node.cfg.RTO
	if ss.queue.len() > 0 {
		if !ss.suspended {
			p.armDeadline(ss, p.node.clk.Now())
		}
	} else {
		ss.deadline = time.Time{}
	}
}

// sendHeartbeat transmits one ◇P₁ heartbeat (manager goroutine only;
// silently skipped while disconnected — missing heartbeats are the
// signal). On a saturated writer the heartbeat is stashed, latest
// instance only: heartbeats are idempotent liveness pulses, so
// coalescing sheds load without losing information.
func (p *peer) sendHeartbeat(from, to int) {
	if p.conn == nil {
		return
	}
	buf := p.encodeFrame(wire.Frame{Kind: wire.Heartbeat, From: uint32(from), To: uint32(to)})
	if buf == nil {
		return
	}
	if !p.sendEncoded(buf) {
		p.pendingHB[pairKey{from: from, to: to}] = true
		p.node.tr.coalescedFrame(p.remote)
	}
}
