package netsim

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Net is an in-memory network: a set of named endpoints connected by
// directed links with configurable latency/jitter and injectable
// faults. Listen/Dial produce net.Listener/net.Conn values with real
// byte-stream semantics — FIFO per direction, partial reads, deadlines
// — except that time is the virtual clock, so nothing moves unless the
// harness advances it.
//
// Fault model (what ChaosPlan scripts):
//
//   - latency/jitter per directed link, applied per write;
//   - partitions hold written bytes in flight (the link is silent but
//     connections stay up, like a blackholing middlebox); healing
//     releases the held bytes in order;
//   - resets kill every live connection between two endpoints with a
//     "connection reset" error on both sides, dropping queued bytes —
//     a connection dying with unflushed kernel buffers;
//   - truncation silently drops the newest queued bytes of a link's
//     streams without killing the connection, punching a hole
//     mid-stream that the wire codec must detect and the transport
//     must recover from by tearing the connection down itself;
//   - rate limits model a slow reader / thin pipe: each chunk's
//     delivery is serialized behind the previous one at the link's
//     byte rate, so a throttled link backs traffic up realistically;
//   - stop-drain freezes the consuming end of a link (the application
//     stops reading): bytes queue against the pipe's bounded buffer,
//     and once it fills, writes block until the write deadline expires
//     — exactly how a wedged peer surfaces through a real kernel
//     socket buffer.
//
// Every pipe buffers at most DefaultBufCap bytes (a kernel
// send-buffer stand-in); a write finding the buffer full blocks until
// the reader drains, the connection dies, or the write deadline
// passes. This is what makes long partitions and stop-drain episodes
// resource-bounded: a silent link accumulates one buffer of bytes,
// never an unbounded backlog.
//
// Lock ordering: Net.mu → pipe.mu → Clock.mu. Clock callbacks fire
// with no clock locks held, so pipes may schedule wakes while locked.
type Net struct {
	clock *Clock
	seed  int64

	// BufCap is the per-pipe byte buffer capacity adopted by
	// connections created after it is set (DefaultBufCap from NewNet;
	// <= 0 means unlimited). Set it before dialing, never mid-run.
	BufCap int

	mu        sync.Mutex
	listeners map[string]*listener
	links     map[[2]string]*linkCfg
	// pipes is kept in creation order, never a map: fault injection
	// walks it drawing per-link jitter samples, so a nondeterministic
	// visit order would consume the rngs differently run to run and
	// skew the restamped delivery times.
	pipes []*pipe
}

// DefaultBufCap is the default per-pipe buffered-byte capacity — the
// virtual analogue of a kernel socket send buffer.
const DefaultBufCap = 256 << 10

// linkCfg is the state of one directed link.
type linkCfg struct {
	latency time.Duration
	jitter  time.Duration
	down    bool
	rate    int64 // delivery bytes/sec; 0 = unlimited
	noDrain bool  // receiving end stopped reading
	rng     *rand.Rand
}

// NewNet builds an empty network on the given virtual clock. The seed
// feeds per-link jitter draws only; it never influences the fault
// schedule (ChaosPlan has its own seed).
func NewNet(clock *Clock, seed int64) *Net {
	return &Net{
		clock:     clock,
		seed:      seed,
		BufCap:    DefaultBufCap,
		listeners: make(map[string]*listener),
		links:     make(map[[2]string]*linkCfg),
	}
}

// Clock returns the network's virtual clock.
func (n *Net) Clock() *Clock { return n.clock }

// Host returns the endpoint handle for addr: its Listen binds the
// address, and its Dial originates from it (so directed partitions
// know which way the connection attempt crosses the link).
func (n *Net) Host(addr string) *Host { return &Host{n: n, addr: addr} }

// Host is one named endpoint of the network.
type Host struct {
	n    *Net
	addr string
}

// Addr returns the host's address string.
func (h *Host) Addr() string { return h.addr }

// Listen binds the host's address. Re-listening after Close is
// allowed (a restarted node reuses its address); double-listening is
// an error, as with real sockets.
func (h *Host) Listen() (net.Listener, error) {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	if _, taken := h.n.listeners[h.addr]; taken {
		return nil, fmt.Errorf("netsim: listen %s: address in use", h.addr)
	}
	l := &listener{n: h.n, addr: h.addr}
	l.cond.L = &l.mu
	h.n.listeners[h.addr] = l
	return l, nil
}

// Dial connects from this host to raddr. It fails immediately when no
// listener is bound (connection refused) or the link is partitioned in
// either direction (a TCP connect needs both ways). Establishment
// itself is instantaneous; per-byte latency applies to the streams.
func (h *Host) Dial(raddr string) (net.Conn, error) {
	h.n.mu.Lock()
	if h.n.linkLocked(h.addr, raddr).down || h.n.linkLocked(raddr, h.addr).down {
		h.n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %s from %s: network unreachable (partitioned)", raddr, h.addr)
	}
	l, ok := h.n.listeners[raddr]
	if !ok {
		h.n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %s from %s: connection refused", raddr, h.addr)
	}
	ab := h.n.newPipeLocked(h.addr, raddr)
	ba := h.n.newPipeLocked(raddr, h.addr)
	h.n.mu.Unlock()

	client := &nsConn{n: h.n, local: h.addr, remote: raddr, rd: ba, wr: ab}
	server := &nsConn{n: h.n, local: raddr, remote: h.addr, rd: ab, wr: ba}
	if err := l.offer(server); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// linkLocked returns (creating if needed) the directed link config.
func (n *Net) linkLocked(from, to string) *linkCfg {
	key := [2]string{from, to}
	lc, ok := n.links[key]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(from))
		h.Write([]byte{0})
		h.Write([]byte(to))
		lc = &linkCfg{rng: rand.New(rand.NewSource(n.seed ^ int64(h.Sum64())))}
		n.links[key] = lc
	}
	return lc
}

func (n *Net) newPipeLocked(from, to string) *pipe {
	p := &pipe{n: n, from: from, to: to, bufCap: n.BufCap}
	p.noDrain = n.linkLocked(from, to).noDrain
	p.cond.L = &p.mu
	n.pipes = append(n.pipes, p)
	return p
}

// sweepLocked forgets pipes that can never carry another byte,
// preserving creation order among the survivors.
func (n *Net) sweepLocked() {
	live := n.pipes[:0]
	for _, p := range n.pipes {
		p.mu.Lock()
		dead := p.resetErr != nil || (p.writeClosed && p.readClosed)
		p.mu.Unlock()
		if !dead {
			live = append(live, p)
		}
	}
	for i := len(live); i < len(n.pipes); i++ {
		n.pipes[i] = nil
	}
	n.pipes = live
}

// --- fault injection ----------------------------------------------------

// SetLink configures latency and jitter on the link between a and b,
// both directions.
func (n *Net) SetLink(a, b string, latency, jitter time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range [][2]string{{a, b}, {b, a}} {
		lc := n.linkLocked(k[0], k[1])
		lc.latency, lc.jitter = latency, jitter
	}
}

// SetLinkRate throttles delivery on the link between a and b (both
// directions) to bytesPerSec, modeling a slow reader or thin pipe:
// each chunk's arrival is serialized behind the previous one at that
// byte rate, so sustained traffic backs up in the pipe buffer. Zero
// restores unlimited rate.
func (n *Net) SetLinkRate(a, b string, bytesPerSec int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range [][2]string{{a, b}, {b, a}} {
		n.linkLocked(k[0], k[1]).rate = bytesPerSec
	}
}

// StopDrain freezes the consuming end of every stream between a and b
// (both directions): delivered bytes stop being readable, as if the
// remote application wedged without closing its socket. Writes keep
// landing in the pipe buffer until it fills, then block.
func (n *Net) StopDrain(a, b string) { n.setDrain(a, b, false) }

// ResumeDrain undoes StopDrain: queued bytes become readable again at
// their original delivery times.
func (n *Net) ResumeDrain(a, b string) { n.setDrain(a, b, true) }

func (n *Net) setDrain(a, b string, drain bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range [][2]string{{a, b}, {b, a}} {
		n.linkLocked(k[0], k[1]).noDrain = !drain
	}
	for _, p := range n.pipes {
		if (p.from == a && p.to == b) || (p.from == b && p.to == a) {
			p.mu.Lock()
			p.noDrain = !drain
			p.broadcastLocked()
			p.mu.Unlock()
		}
	}
}

// QueuedBytes reports the total undelivered (queued or held) bytes
// across all live pipes — the simulated network's entire in-flight
// footprint, used by resource-invariant assertions.
func (n *Net) QueuedBytes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, p := range n.pipes {
		p.mu.Lock()
		total += p.queued
		p.mu.Unlock()
	}
	return total
}

// PartitionDir blackholes the directed link from→to: written bytes are
// held in flight and new dial attempts crossing the link fail.
func (n *Net) PartitionDir(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(from, to).down = true
}

// Partition blackholes both directions between a and b.
func (n *Net) Partition(a, b string) {
	n.PartitionDir(a, b)
	n.PartitionDir(b, a)
}

// HealDir reopens the directed link from→to and releases its held
// bytes, in order, with the link's current latency.
func (n *Net) HealDir(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(from, to).down = false
	n.releaseHeldLocked(from, to)
}

// HealAll reopens every partitioned link, releases all held bytes,
// restores full delivery rate, and resumes draining everywhere — the
// "network is whole again" event the stabilization suffix builds on.
func (n *Net) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, lc := range n.links {
		lc.down = false
		lc.rate = 0
		lc.noDrain = false
	}
	for _, p := range n.pipes {
		p.mu.Lock()
		p.noDrain = false
		p.broadcastLocked()
		p.mu.Unlock()
		n.releaseHeldPipeLocked(p)
	}
	n.sweepLocked()
}

func (n *Net) releaseHeldLocked(from, to string) {
	for _, p := range n.pipes {
		if p.from == from && p.to == to {
			n.releaseHeldPipeLocked(p)
		}
	}
	n.sweepLocked()
}

// releaseHeldPipeLocked restamps a pipe's held chunks with delivery
// times from now, preserving order.
func (n *Net) releaseHeldPipeLocked(p *pipe) {
	lc := n.linkLocked(p.from, p.to)
	now := n.clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.chunks {
		if !p.chunks[i].held {
			continue
		}
		at := now.Add(lc.delay())
		if at.Before(p.lastAt) {
			at = p.lastAt
		}
		p.chunks[i].held = false
		p.chunks[i].at = at
		p.lastAt = at
		p.scheduleWakeLocked(at)
	}
	p.broadcastLocked()
}

// ResetLink kills every live connection between a and b (both
// directions) with a connection-reset error, dropping queued bytes.
// It returns how many stream directions it reset.
func (n *Net) ResetLink(a, b string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for _, p := range n.pipes {
		if (p.from == a && p.to == b) || (p.from == b && p.to == a) {
			p.reset(errConnReset)
			count++
		}
	}
	n.sweepLocked()
	return count
}

// TruncateLink silently drops up to dropTail of the newest queued
// (undelivered) bytes in each stream direction between a and b,
// leaving the connections up: the byte stream acquires a hole that the
// frame codec must detect. It returns how many bytes were dropped.
func (n *Net) TruncateLink(a, b string, dropTail int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	dropped := 0
	for _, p := range n.pipes {
		if (p.from == a && p.to == b) || (p.from == b && p.to == a) {
			dropped += p.truncateTail(dropTail)
		}
	}
	return dropped
}

// --- pipe: one directed byte stream -------------------------------------

type chunk struct {
	at   time.Time
	held bool
	b    []byte
}

// pipe carries bytes from one endpoint to the other. It is shared by
// the two nsConns of a connection: the writer side appends chunks with
// virtual delivery times, the reader side consumes them once the clock
// passes those times.
type pipe struct {
	n        *Net
	from, to string

	mu      sync.Mutex
	cond    sync.Cond
	waiters int // goroutines parked in cond, uncounted in Clock.running

	chunks      []chunk
	lastAt      time.Time // delivery-time high-water, keeps FIFO order under jitter
	queued      int       // undelivered bytes (queued + held), bounded by bufCap
	bufCap      int       // byte capacity; <= 0 means unlimited
	noDrain     bool      // reader end frozen: nothing is deliverable
	writeClosed bool      // writer gone: EOF after the queue drains
	readClosed  bool      // reader gone: writes fail
	resetErr    error     // hard failure, both sides, queue dropped

	readDeadline  time.Time
	writeDeadline time.Time
}

// send stamps b with the link's current delay (or holds it during a
// partition) and enqueues it. When the pipe's byte buffer is full the
// write blocks — like a full kernel send buffer — until the reader
// drains, the connection dies, or the write deadline passes. The
// latency stamp is drawn after any blocking wait so delivery reflects
// when the bytes actually entered the link, not when the writer first
// tried.
func (n *Net) send(p *pipe, b []byte) (int, error) {
	for {
		n.mu.Lock()
		lc := n.linkLocked(p.from, p.to)
		down := lc.down
		var at time.Time
		var tx time.Duration
		if !down {
			at = n.clock.Now().Add(lc.delay())
			if lc.rate > 0 {
				tx = time.Duration(int64(len(b))) * time.Second / time.Duration(lc.rate)
			}
		}
		n.mu.Unlock()

		p.mu.Lock()
		switch {
		case p.resetErr != nil:
			err := p.resetErr
			p.mu.Unlock()
			return 0, err
		case p.writeClosed:
			p.mu.Unlock()
			return 0, net.ErrClosed
		case p.readClosed:
			p.mu.Unlock()
			return 0, errConnReset
		}
		// Admit a write that fits, and always admit into an empty buffer
		// (an oversized single write must not deadlock, mirroring kernels
		// accepting at least one chunk).
		if p.bufCap > 0 && p.queued > 0 && p.queued+len(b) > p.bufCap {
			now := p.n.clock.Now()
			if dl := p.writeDeadline; !dl.IsZero() && !now.Before(dl) {
				p.mu.Unlock()
				return 0, errDeadline
			}
			if dl := p.writeDeadline; !dl.IsZero() {
				// A frozen reader never drains, so the deadline needs its
				// own wake to un-wedge the writer.
				p.scheduleWakeLocked(dl)
			}
			p.waitLocked()
			p.mu.Unlock()
			// Re-stamp from scratch: the link's latency, rate, or
			// partition state may have changed while we were blocked.
			continue
		}
		c := chunk{b: append([]byte(nil), b...), held: down}
		if !down {
			if at.Before(p.lastAt) {
				at = p.lastAt
			}
			at = at.Add(tx) // serialize behind prior traffic at the link rate
			c.at = at
			p.lastAt = at
			p.scheduleWakeLocked(at)
		}
		p.chunks = append(p.chunks, c)
		p.queued += len(b)
		// A zero-delay chunk is deliverable right now; wake blocked readers
		// without waiting for the next clock advance.
		p.broadcastLocked()
		p.mu.Unlock()
		return len(b), nil
	}
}

// delay draws one per-write latency sample (rng guarded by Net.mu).
func (lc *linkCfg) delay() time.Duration {
	d := lc.latency
	if lc.jitter > 0 {
		d += time.Duration(lc.rng.Int63n(int64(lc.jitter) + 1))
	}
	return d
}

// scheduleWakeLocked arms a clock event that re-checks the pipe when a
// delivery time (or deadline) arrives. Stale wakes are harmless: the
// reader re-evaluates its conditions on every broadcast.
func (p *pipe) scheduleWakeLocked(at time.Time) {
	d := at.Sub(p.n.clock.Now())
	if d < 0 {
		d = 0
	}
	p.n.clock.AfterFunc(d, p.wake)
}

// waitLocked parks the calling goroutine on the pipe until the next
// broadcast (p.mu held). A parked goroutine no longer counts as running
// on the clock; the broadcast that wakes it counts it again before it
// can run, so Advance never moves past a woken reader or writer. A
// goroutine nobody counts (a test reading a conn itself) leaves the
// count one lower only while it is parked here.
func (p *pipe) waitLocked() {
	p.waiters++
	p.n.clock.Busy(-1)
	p.cond.Wait()
}

// broadcastLocked wakes every goroutine parked on the pipe (p.mu
// held).
func (p *pipe) broadcastLocked() {
	if p.waiters > 0 {
		p.n.clock.Busy(p.waiters)
		p.waiters = 0
	}
	p.cond.Broadcast()
}

func (p *pipe) wake() {
	p.mu.Lock()
	p.broadcastLocked()
	p.mu.Unlock()
}

// read blocks until bytes are deliverable at the current virtual time,
// the stream ends, or the read deadline passes.
func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.readClosed {
			return 0, net.ErrClosed
		}
		if p.resetErr != nil {
			return 0, p.resetErr
		}
		now := p.n.clock.Now()
		if !p.noDrain && len(p.chunks) > 0 && !p.chunks[0].held && !p.chunks[0].at.After(now) {
			c := &p.chunks[0]
			nb := copy(b, c.b)
			if nb < len(c.b) {
				c.b = c.b[nb:]
			} else {
				p.chunks = p.chunks[1:]
			}
			p.queued -= nb
			// Draining may have opened buffer space; wake blocked writers.
			p.broadcastLocked()
			return nb, nil
		}
		if p.writeClosed && len(p.chunks) == 0 {
			return 0, io.EOF
		}
		if dl := p.readDeadline; !dl.IsZero() && !now.Before(dl) {
			return 0, errDeadline
		}
		p.waitLocked()
	}
}

func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readDeadline = t
	if !t.IsZero() {
		p.scheduleWakeLocked(t)
	}
	p.broadcastLocked()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeDeadline = t
	if !t.IsZero() {
		p.scheduleWakeLocked(t)
	}
	p.broadcastLocked()
}

// closeWrite ends the stream: queued bytes still deliver, then EOF.
func (p *pipe) closeWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeClosed = true
	p.broadcastLocked()
}

// closeRead abandons the stream from the reader side: local reads and
// remote writes fail from here on.
func (p *pipe) closeRead() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readClosed = true
	p.broadcastLocked()
}

func (p *pipe) reset(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.resetErr == nil {
		p.resetErr = err
	}
	p.chunks = nil
	p.queued = 0
	p.broadcastLocked()
}

// truncateTail drops up to dropTail of the newest queued bytes,
// trimming partial chunks, and returns how many were dropped.
func (p *pipe) truncateTail(dropTail int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	dropped := 0
	for dropped < dropTail && len(p.chunks) > 0 {
		last := &p.chunks[len(p.chunks)-1]
		take := dropTail - dropped
		if take >= len(last.b) {
			dropped += len(last.b)
			p.chunks = p.chunks[:len(p.chunks)-1]
			continue
		}
		last.b = last.b[:len(last.b)-take]
		dropped += take
	}
	p.queued -= dropped
	if dropped > 0 {
		// Dropping tail bytes frees buffer space for blocked writers.
		p.broadcastLocked()
	}
	return dropped
}

// --- nsConn: net.Conn over a pipe pair ----------------------------------

type nsConn struct {
	n             *Net
	local, remote string
	rd, wr        *pipe
	closeOnce     sync.Once
}

func (c *nsConn) Read(b []byte) (int, error)  { return c.rd.read(b) }
func (c *nsConn) Write(b []byte) (int, error) { return c.n.send(c.wr, b) }

func (c *nsConn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWrite()
		c.rd.closeRead()
	})
	return nil
}

func (c *nsConn) LocalAddr() net.Addr  { return netAddr(c.local) }
func (c *nsConn) RemoteAddr() net.Addr { return netAddr(c.remote) }

func (c *nsConn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}
func (c *nsConn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}
func (c *nsConn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}

// netAddr is a netsim endpoint address.
type netAddr string

func (a netAddr) Network() string { return "netsim" }
func (a netAddr) String() string  { return string(a) }

// --- listener -----------------------------------------------------------

type listener struct {
	n    *Net
	addr string

	mu      sync.Mutex
	cond    sync.Cond
	waiters int // as pipe.waiters
	pending []*nsConn
	closed  bool
}

// waitLocked and broadcastLocked are pipe's, for Accept (l.mu held).
func (l *listener) waitLocked() {
	l.waiters++
	l.n.clock.Busy(-1)
	l.cond.Wait()
}

func (l *listener) broadcastLocked() {
	if l.waiters > 0 {
		l.n.clock.Busy(l.waiters)
		l.waiters = 0
	}
	l.cond.Broadcast()
}

func (l *listener) offer(c *nsConn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("netsim: dial %s: connection refused (listener closed)", l.addr)
	}
	l.pending = append(l.pending, c)
	l.broadcastLocked()
	return nil
}

func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) == 0 && !l.closed {
		l.waitLocked()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

func (l *listener) Close() error {
	l.n.mu.Lock()
	if l.n.listeners[l.addr] == l {
		delete(l.n.listeners, l.addr)
	}
	l.n.mu.Unlock()
	l.mu.Lock()
	pending := l.pending
	l.pending = nil
	alreadyClosed := l.closed
	l.closed = true
	l.broadcastLocked()
	l.mu.Unlock()
	for _, c := range pending {
		c.rd.reset(errConnReset)
		c.wr.reset(errConnReset)
	}
	if alreadyClosed {
		return net.ErrClosed
	}
	return nil
}

func (l *listener) Addr() net.Addr { return netAddr(l.addr) }

// --- errors -------------------------------------------------------------

var errConnReset = &netError{msg: "netsim: connection reset", timeout: false}
var errDeadline = &netError{msg: "netsim: i/o deadline exceeded", timeout: true}

// netError implements net.Error so deadline expiries are recognizable
// as timeouts by generic networking code.
type netError struct {
	msg     string
	timeout bool
}

func (e *netError) Error() string   { return e.msg }
func (e *netError) Timeout() bool   { return e.timeout }
func (e *netError) Temporary() bool { return e.timeout }
