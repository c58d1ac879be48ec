// Package remote runs the dining algorithm across real sockets: one
// Node per OS process (or per test-harness instance), TCP connections
// between nodes, and the byte-stable internal/wire codec on the wire.
// It is the bridge from the in-process runtimes — the deterministic
// simulator (internal/sim) and the goroutine runtime (internal/live) —
// to a deployable system: delay, loss, reordering, and crashes come
// from the real network instead of a fault plan.
//
// The layering mirrors the paper's Section 2 reconstruction exactly as
// internal/rlink does for the simulator. TCP gives FIFO bytes per
// connection but connections die and are replaced, so above each
// node-pair connection the transport runs an ARQ discipline per
// ordered process pair: sequence numbers assigned at first send,
// cumulative acknowledgments (piggybacked on data frames, or sent as
// pure acks at the next manager tick when no reply carries them),
// go-back-N retransmission with the shared exponential
// backoff + jitter policy (internal/backoff), and receive-side
// dedup/reordering — so application delivery is exactly-once FIFO
// *across reconnects*, which is what core.Diner requires.
//
// ◇P₁ is wall-clock heartbeats between neighbor processes with
// adaptive timeouts (each false suspicion widens the timeout), scoped
// locally as the paper prescribes. As in internal/rlink, suspicion
// parks retransmission toward the suspected process and trust resumes
// it, preserving the quiescence property: a crashed node draws only
// finitely many retransmits.
//
// Every process goroutine exclusively owns its diner, detector state,
// and timers; each peer connection is owned by a single manager
// goroutine that executes closures from a command channel, so the
// package needs no locks beyond the metrics tracker's mutex (lockheld
// enforces the discipline).
package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/vclock"
)

// Config assembles a Node. Topology is required; every other field has
// a workable default.
type Config struct {
	// Topology is the shared cluster layout (required).
	Topology *Topology
	// Node is this daemon's index into Topology.Nodes.
	Node int
	// Colors are the static priorities for all processes; nil selects
	// the deterministic greedy coloring, which every node computes
	// identically from the shared graph.
	Colors []int
	// Options tweak the dining algorithm (see core.Options).
	Options core.Options

	// HeartbeatPeriod is the ◇P₁ heartbeat interval (default 25ms).
	HeartbeatPeriod time.Duration
	// InitialTimeout is the starting suspicion timeout (default 500ms).
	InitialTimeout time.Duration
	// TimeoutIncrement is added after each false suspicion (default
	// 250ms).
	TimeoutIncrement time.Duration

	// EatTime and ThinkTime are the workload pauses (defaults 2ms
	// each). Processes are re-hungry forever until Stop.
	EatTime   time.Duration
	ThinkTime time.Duration

	// OnProcCrash, when non-nil, is invoked once when a local process
	// falls over — a recovered hook panic or a tripped protocol
	// invariant (runs on the process goroutine, before it exits). The
	// chaos harness uses it to tell the fairness monitors a process is
	// legitimately gone rather than starving.
	OnProcCrash func(proc int)
	// OnEat, when non-nil, runs on the process's own goroutine each
	// time it begins eating — the distributed-daemon hook. After
	// detector convergence it never runs concurrently for conflict-
	// graph neighbors, cluster-wide. A panicking hook is recovered and
	// the process falls over as a crash.
	OnEat func(proc int)
	// Observer, when non-nil, is invoked on every dining transition of
	// a local process (from the process goroutine, outside all locks).
	// The cluster test harness hangs its metrics monitors here.
	Observer func(proc int, from, to core.State)

	// RTO is the initial ARQ retransmission timeout (default 30ms);
	// MaxRTO caps the exponential backoff (default 1s);
	// RetransmitJitter decorrelates retransmission bursts (default
	// 10ms).
	RTO, MaxRTO, RetransmitJitter time.Duration
	// DialBackoff and DialBackoffMax bound the reconnect schedule
	// (defaults 25ms and 1s).
	DialBackoff, DialBackoffMax time.Duration

	// SendWindow is the fixed per-ordered-pair ARQ ring capacity
	// (default 256 frames): the hard bound on what a partitioned or
	// slow peer can pin on this node. Crossing the window's high-water
	// mark parks the sending pair at the dining layer like suspicion
	// does; the window itself never grows.
	SendWindow int
	// WedgeBudget is how long a peer manager's mailbox (or a process
	// inbox) may stay backed up without the owner making progress
	// before the node watchdog intervenes (default 2s).
	WedgeBudget time.Duration
	// ProcInboxCap sizes each process event inbox (default 1024; tests
	// shrink it to provoke the watchdog's wedge handling).
	ProcInboxCap int

	// Seed feeds the jitter randomness (default 1).
	Seed int64

	// Clock is the node's sole source of time — heartbeats, suspicion
	// deadlines, ARQ retransmission, reconnect backoff, and workload
	// pauses all read it. Nil selects the wall clock (vclock.Wall); the
	// chaos harness injects netsim's virtual clock so the whole stack
	// runs on simulated time.
	Clock vclock.Clock
	// Incarnation overrides the node's boot incarnation (0 derives one
	// from the wall clock). Harnesses that restart nodes at the same
	// virtual instant must inject distinct incarnations, since peers
	// detect restarts by incarnation change.
	Incarnation uint64

	// Listener, when non-nil, is the pre-bound transport listener (the
	// test harness binds port 0 first so addresses are known before
	// nodes start). Nil makes Start listen on the node's topology
	// address.
	Listener net.Listener
	// Dial, when non-nil, replaces the TCP dialer (tests substitute
	// in-memory pipes). Nil selects net.DialTimeout.
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives debug logging.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() error {
	if c.Topology == nil {
		return errors.New("remote: Config.Topology is required")
	}
	if c.Node < 0 || c.Node >= len(c.Topology.Nodes) {
		return fmt.Errorf("remote: node index %d outside topology of %d nodes", c.Node, len(c.Topology.Nodes))
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 25 * time.Millisecond
	}
	if c.InitialTimeout <= 0 {
		c.InitialTimeout = 500 * time.Millisecond
	}
	if c.TimeoutIncrement <= 0 {
		c.TimeoutIncrement = 250 * time.Millisecond
	}
	if c.EatTime <= 0 {
		c.EatTime = 2 * time.Millisecond
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = 2 * time.Millisecond
	}
	rto := backoff.Policy{
		Initial: int64(c.RTO), Max: int64(c.MaxRTO), Jitter: int64(c.RetransmitJitter),
	}.Normalized(int64(30*time.Millisecond), int64(time.Second), int64(10*time.Millisecond))
	c.RTO, c.MaxRTO, c.RetransmitJitter = time.Duration(rto.Initial), time.Duration(rto.Max), time.Duration(rto.Jitter)
	dial := backoff.Policy{
		Initial: int64(c.DialBackoff), Max: int64(c.DialBackoffMax),
	}.Normalized(int64(25*time.Millisecond), int64(time.Second), 0)
	c.DialBackoff, c.DialBackoffMax = time.Duration(dial.Initial), time.Duration(dial.Max)
	if c.SendWindow <= 0 {
		c.SendWindow = 256
	}
	if c.WedgeBudget <= 0 {
		c.WedgeBudget = 2 * time.Second
	}
	if c.ProcInboxCap <= 0 {
		c.ProcInboxCap = procInboxCap
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = vclock.Wall
	}
	return nil
}

// rtoPolicy is the ARQ retransmission schedule in nanoseconds.
func (c *Config) rtoPolicy() backoff.Policy {
	return backoff.Policy{Initial: int64(c.RTO), Max: int64(c.MaxRTO), Jitter: int64(c.RetransmitJitter)}
}

// dialPolicy is the reconnect schedule in nanoseconds.
func (c *Config) dialPolicy() backoff.Policy {
	return backoff.Policy{Initial: int64(c.DialBackoff), Max: int64(c.DialBackoffMax), Jitter: int64(c.DialBackoff)}
}

// Node is one daemon: the processes it hosts plus the transport links
// to every peer node hosting a conflict-graph neighbor.
type Node struct {
	cfg         Config
	topo        *Topology
	self        int
	incarnation uint64
	clk         vclock.Clock

	ln    net.Listener
	procs map[int]*rproc
	peers map[int]*peer
	tr    *tracker

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  bool
}

// NewNode builds (but does not start) a node.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	colors := cfg.Colors
	if colors == nil {
		colors = topo.G.GreedyColoring()
	}
	if len(colors) != topo.G.N() || !topo.G.IsProperColoring(colors) {
		return nil, errors.New("remote: invalid coloring")
	}
	incarnation := cfg.Incarnation
	if incarnation == 0 {
		incarnation = uint64(cfg.Clock.Now().UnixNano())
	}
	n := &Node{
		cfg:         cfg,
		topo:        topo,
		self:        cfg.Node,
		incarnation: incarnation,
		clk:         cfg.Clock,
		procs:       make(map[int]*rproc),
		peers:       make(map[int]*peer),
		tr:          newTracker(topo.G),
		stop:        make(chan struct{}),
	}
	for _, pid := range topo.Nodes[n.self].Procs {
		p := &rproc{
			node:  n,
			id:    pid,
			inbox: make(chan procEvent, cfg.ProcInboxCap),
			park:  vclock.NewParker(cfg.Clock),
			dead:  make(chan struct{}),
			nbrs:  topo.G.Neighbors(pid),
		}
		deg := len(p.nbrs)
		p.lastHeard = make([]time.Time, deg)
		p.timeout = make([]time.Duration, deg)
		p.suspected = make([]bool, deg)
		p.stalled = make([]bool, deg)
		nbrColors := make(map[int]int, len(p.nbrs))
		for _, j := range p.nbrs {
			nbrColors[j] = colors[j]
		}
		d, err := core.NewDiner(core.Config{
			ID:             pid,
			Color:          colors[pid],
			NeighborColors: nbrColors,
			// A backpressure-stalled neighbor is treated exactly like a
			// suspected one: the diner stops waiting on it, preserving
			// wait-freedom among non-stalled neighbors while the
			// transport drains the backlog.
			Suspects: func(j int) bool {
				i := p.nbrIndex(j)
				return i >= 0 && (p.suspected[i] || p.stalled[i])
			},
			Options: cfg.Options,
		})
		if err != nil {
			return nil, fmt.Errorf("remote: process %d: %w", pid, err)
		}
		p.diner = d
		n.procs[pid] = p
		n.tr.addProc(pid)
	}
	for _, peerIdx := range topo.PeersOf(n.self) {
		n.peers[peerIdx] = newPeer(n, peerIdx)
		n.tr.addPeer(peerIdx, topo.Nodes[peerIdx].Addr)
	}
	return n, nil
}

// Start binds the listener (unless one was injected), launches the
// transport and process goroutines, and makes every hosted process
// hungry. Extra calls are no-ops.
func (n *Node) Start() error {
	if n.started {
		return nil
	}
	n.started = true
	if n.cfg.Listener != nil {
		n.ln = n.cfg.Listener
	} else {
		ln, err := net.Listen("tcp", n.topo.Nodes[n.self].Addr)
		if err != nil {
			return fmt.Errorf("remote: node %d listen: %w", n.self, err)
		}
		n.ln = ln
	}
	n.wg.Add(1)
	accept := vclock.Start(n.clk)
	go n.acceptLoop(accept)
	for _, p := range n.peers {
		n.wg.Add(1)
		p.park.Begin()
		go p.run()
	}
	now := n.clk.Now()
	for _, p := range n.procs {
		for i := range p.nbrs {
			p.lastHeard[i] = now
			p.timeout[i] = n.cfg.InitialTimeout
		}
		n.wg.Add(1)
		p.park.Begin()
		go p.run()
		p.post(procEvent{kind: evHungry})
	}
	n.wg.Add(1)
	watch := vclock.Start(n.clk)
	go n.watchdog(watch)
	return nil
}

// Addr returns the transport listen address (useful with port 0).
func (n *Node) Addr() string {
	if n.ln == nil {
		return n.topo.Nodes[n.self].Addr
	}
	return n.ln.Addr().String()
}

// Stop shuts the node down: the listener and every connection close,
// and all goroutines exit. From the rest of the cluster this is
// indistinguishable from a crash — heartbeats cease, dials are
// refused — which is exactly the failure model the algorithm handles.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		if n.ln != nil {
			n.ln.Close()
		}
	})
	n.wg.Wait()
}

// stopping reports, without blocking, whether Stop has begun. Once it
// has, post may drop a message while a later one from the same sender
// still lands, so the run loops check it after every dequeue and
// handle nothing more.
func (n *Node) stopping() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// logf emits debug logging when configured.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Err returns the first failure recorded by any local process —
// protocol-invariant violations and recovered hook panics. Call after
// Stop.
func (n *Node) Err() error { return n.tr.firstErr() }

// peerFor returns the manager for the node hosting process q.
func (n *Node) peerFor(q int) *peer { return n.peers[n.topo.NodeOf(q)] }

// routeMessages transmits diner outputs from local process p: directly
// into a co-hosted neighbor's inbox, or through the peer transport.
func (n *Node) routeMessages(msgs []core.Message) {
	for _, m := range msgs {
		if n.topo.NodeOf(m.To) == n.self {
			n.tr.appSend(m.From, m.To)
			dst := n.procs[m.To]
			dst.post(procEvent{kind: evMessage, msg: m, from: m.From})
			continue
		}
		pr := n.peerFor(m.To)
		if pr == nil {
			// Topology guarantees a peer exists for every remote
			// neighbor; a miss is a wiring bug worth failing loudly.
			n.tr.recordErr(fmt.Errorf("remote: no peer for process %d", m.To))
			continue
		}
		n.tr.appSend(m.From, m.To)
		m := m
		pr.post(func() { pr.submit(m) })
	}
}

// deliverData posts one in-order application message from a remote
// neighbor into the local process inbox (called on peer manager
// goroutines).
func (n *Node) deliverData(m core.Message) {
	if dst, ok := n.procs[m.To]; ok {
		dst.post(procEvent{kind: evMessage, msg: m, from: m.From})
	}
}

// resetEdges tells every local process neighboring a process hosted on
// the restarted node remote to reinitialize that edge's dining state
// (called on the peer manager goroutine from noteIncarnation, before
// any fresh-epoch frame is read, so the reset lands in each inbox
// ahead of the reborn neighbor's first message). See
// core.Diner.ResetNeighbor for why recovery requires this.
func (n *Node) resetEdges(remote int) {
	for _, lp := range n.procs {
		for _, j := range lp.nbrs {
			if n.topo.NodeOf(j) == remote {
				lp.post(procEvent{kind: evNeighborReset, from: j})
			}
		}
	}
}

// deliverHeartbeat posts a remote heartbeat (called on reader
// goroutines; dropped when the inbox is full, like internal/live —
// late heartbeats only delay unsuspicion).
func (n *Node) deliverHeartbeat(to, from int) {
	if dst, ok := n.procs[to]; ok {
		dst.postHeartbeat(from)
	}
}

// signalStall surfaces a transport backpressure stall (or its end) on
// the stream local → nbr to the owning process (called on peer manager
// goroutines).
func (n *Node) signalStall(local, nbr int, stalled bool) {
	if dst, ok := n.procs[local]; ok {
		dst.post(procEvent{kind: evStall, from: nbr, stalled: stalled})
	}
}

// failProc records err and crashes the local process id — the loud,
// contained failure path for resource-contract breaches (callable from
// peer manager and watchdog goroutines; rproc.crash is idempotent and
// goroutine-safe).
func (n *Node) failProc(id int, err error) {
	n.tr.recordErr(err)
	if p, ok := n.procs[id]; ok {
		p.crash()
	}
}

// --- process event loop ------------------------------------------------

// procInboxCap sizes a process inbox. The paper bounds in-transit
// dining messages by 4 per edge, so the dining load on an inbox is at
// most 4·degree; heartbeats are dropped when the inbox is full. The
// slack above that bound exists so transient bursts (reconnect
// retransmissions) never make a peer manager block on a full inbox
// while a process blocks on that manager's command queue.
const procInboxCap = 1024

type eventKind int

const (
	evMessage eventKind = iota + 1
	evHeartbeat
	evHungry
	evExitEat
	evNeighborReset
	evStall
)

type procEvent struct {
	kind    eventKind
	msg     core.Message
	from    int
	stalled bool // evStall: stall began (true) or drained (false)
}

// rproc is one hosted process: a goroutine owning a diner, its ◇P₁
// state, and its workload timers.
type rproc struct {
	node  *Node
	id    int
	diner *core.Diner // owned: run
	inbox chan procEvent
	park  *vclock.Parker // run's share of the clock's running count
	dead  chan struct{}
	once  sync.Once
	nbrs  []int // sorted

	// Failure-detector state, indexed like nbrs and owned by the run
	// goroutine (enforced by the mailboxown analyzer).
	lastHeard []time.Time     // owned: run
	timeout   []time.Duration // owned: run
	suspected []bool          // owned: run
	// stalled marks neighbors whose outbound stream is backpressure-
	// parked; the diner's Suspects view ORs it with suspicion.
	stalled []bool // owned: run

	// lastEvent is the clk nanos of the last run-loop iteration, read
	// by the node watchdog to spot a wedged process.
	lastEvent atomic.Int64
}

// post delivers an event, giving up if the process died or the node is
// stopping. On a full inbox the caller waits as idle to the clock: a
// process wedged in a hook must not stop the virtual time its watchdog
// needs.
func (p *rproc) post(ev procEvent) {
	select {
	case p.inbox <- ev:
		p.park.Handed()
		return
	default:
	}
	idle := p.park.Blocking()
	defer p.park.Unblocked(idle)
	select {
	case p.inbox <- ev:
		p.park.Handed()
	case <-p.dead:
	case <-p.node.stop:
	}
}

// postHeartbeat delivers a heartbeat without ever blocking.
func (p *rproc) postHeartbeat(from int) {
	select {
	case p.inbox <- procEvent{kind: evHeartbeat, from: from}:
		p.park.Handed()
	default:
	}
}

// crash marks the process failed; its goroutine exits and it falls
// silent, leaving neighbors to their detectors.
func (p *rproc) crash() {
	p.once.Do(func() {
		close(p.dead)
		p.park.Release()
		if p.node.cfg.OnProcCrash != nil {
			p.node.cfg.OnProcCrash(p.id)
		}
	})
	p.node.tr.crash(p.id)
}

func (p *rproc) run() {
	defer p.node.wg.Done()
	defer p.park.Exit()
	// A panicking daemon hook must not hang the neighbors sharing this
	// process's forks: recover, record, and fall over as a crash.
	defer func() {
		if r := recover(); r != nil {
			p.node.tr.recordErr(fmt.Errorf("remote: process %d: recovered hook panic: %v", p.id, r))
			p.crash()
		}
	}()
	ticker := p.node.clk.NewTicker(p.node.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	p.park.Watch(ticker)
	p.lastEvent.Store(p.node.clk.Now().UnixNano())
	for {
		p.park.Park()
		select {
		case <-p.node.stop:
			return
		case <-p.dead:
			return
		case <-ticker.C():
			p.park.Take()
			p.heartbeatRound()
		case ev := <-p.inbox:
			p.park.Take()
			if p.node.stopping() {
				// Stop may have made post drop an earlier event from the
				// same sender; handling this one without it would feed the
				// diner a gap (a fork it never asked for, say).
				return
			}
			p.handle(ev)
		}
		// Progress stamp for the watchdog: a full inbox plus a stale
		// stamp means this process stopped consuming events.
		p.lastEvent.Store(p.node.clk.Now().UnixNano())
	}
}

// heartbeatRound sends heartbeats to all neighbors and refreshes
// suspicions from deadlines.
func (p *rproc) heartbeatRound() {
	for _, j := range p.nbrs {
		if p.node.topo.NodeOf(j) == p.node.self {
			p.node.deliverHeartbeat(j, p.id)
			continue
		}
		if pr := p.node.peerFor(j); pr != nil {
			from, to := p.id, j
			pr.post(func() { pr.sendHeartbeat(from, to) })
		}
	}
	now := p.node.clk.Now()
	changed := false
	for i, j := range p.nbrs {
		if !p.suspected[i] && now.Sub(p.lastHeard[i]) > p.timeout[i] {
			p.suspected[i] = true
			p.setParked(j, true)
			changed = true
		}
	}
	if changed {
		p.node.tr.setSuspects(p.id, p.nbrs, p.suspected)
		p.act(func() []core.Message { return p.diner.ReevaluateSuspicion() })
	}
}

// nbrIndex returns the index of neighbor j in nbrs (and in the
// detector slices), or -1 if j is not a neighbor.
func (p *rproc) nbrIndex(j int) int {
	i := sort.SearchInts(p.nbrs, j)
	if i < len(p.nbrs) && p.nbrs[i] == j {
		return i
	}
	return -1
}

// setParked parks or resumes ARQ retransmission toward neighbor j,
// mirroring rlink's suspicion-parked timers (quiescence: a crashed
// peer draws only finitely many retransmits).
func (p *rproc) setParked(j int, parked bool) {
	if p.node.topo.NodeOf(j) == p.node.self {
		return
	}
	if pr := p.node.peerFor(j); pr != nil {
		from, to := p.id, j
		pr.post(func() { pr.setSuspended(from, to, parked) })
	}
}

func (p *rproc) handle(ev procEvent) {
	switch ev.kind {
	case evHeartbeat:
		i := p.nbrIndex(ev.from)
		if i < 0 {
			return
		}
		p.lastHeard[i] = p.node.clk.Now()
		if p.suspected[i] {
			// False suspicion: widen the timeout (the adaptive part of
			// ◇P₁), resume retransmission, re-run the guards.
			p.suspected[i] = false
			p.timeout[i] += p.node.cfg.TimeoutIncrement
			p.setParked(ev.from, false)
			p.node.tr.setSuspects(p.id, p.nbrs, p.suspected)
			p.act(func() []core.Message { return p.diner.ReevaluateSuspicion() })
		}
	case evMessage:
		m := ev.msg
		if p.node.topo.NodeOf(m.From) == p.node.self {
			// Local edges complete their occupancy accounting here;
			// remote streams complete at the sender when the ack lands.
			p.node.tr.appDeliver(m.From, m.To)
		}
		p.act(func() []core.Message { return p.diner.Deliver(m) })
	case evHungry:
		p.act(func() []core.Message { return p.diner.BecomeHungry() })
	case evExitEat:
		p.act(func() []core.Message { return p.diner.ExitEating() })
	case evNeighborReset:
		p.act(func() []core.Message { return p.diner.ResetNeighbor(ev.from) })
	case evStall:
		i := p.nbrIndex(ev.from)
		if i < 0 || p.stalled[i] == ev.stalled {
			return
		}
		p.stalled[i] = ev.stalled
		// The diner re-reads its Suspects view: a stalled neighbor is
		// dropped from (or restored to) the processes it waits on,
		// exactly as suspicion transitions do.
		p.act(func() []core.Message { return p.diner.ReevaluateSuspicion() })
	}
}

// act executes one diner action, routes its outputs, and reacts to
// state transitions.
func (p *rproc) act(action func() []core.Message) {
	before := p.diner.State()
	msgs := action()
	after := p.diner.State()
	if err := p.diner.Err(); err != nil {
		// A diner that tripped a protocol invariant is halted for good —
		// core.Diner refuses every further action, so it will never
		// answer another ping. Keeping its heartbeat alive would make
		// neighbors trust a process that cannot respond, starving them
		// forever. Fall over as a crash instead (exactly like a
		// panicking OnEat hook): heartbeats stop, ◇P₁ suspects us, and
		// the neighbors keep eating — wait-freedom is preserved. This is
		// also the last line of defense around crash-recovery: the
		// incarnation-driven edge resets (resetEdges) keep restart
		// reconciliation invariant-clean, but a stale message that slips
		// through a race window degrades to a crash here, never a wedge.
		p.node.tr.recordErr(fmt.Errorf("remote: process %d: %w", p.id, err))
		p.crash()
		return
	}
	p.node.routeMessages(msgs)
	if before == after {
		return
	}
	if before == core.Thinking && after == core.Eating {
		p.transition(core.Thinking, core.Hungry)
		before = core.Hungry
	}
	p.transition(before, after)
	switch after {
	case core.Eating:
		if p.node.cfg.OnEat != nil {
			p.node.cfg.OnEat(p.id)
		}
		p.node.clk.AfterFunc(p.node.cfg.EatTime, func() { p.post(procEvent{kind: evExitEat}) })
	case core.Thinking:
		p.node.clk.AfterFunc(p.node.cfg.ThinkTime, func() { p.post(procEvent{kind: evHungry}) })
	case core.Hungry:
		// The hungry phase ends when the protocol grants entry, driven
		// by message deliveries.
	}
}

// transition records one dining transition with the tracker and the
// configured observer.
func (p *rproc) transition(from, to core.State) {
	p.node.tr.transition(p.id, to, p.diner.EatCount(), p.diner.Sessions())
	if p.node.cfg.Observer != nil {
		p.node.cfg.Observer(p.id, from, to)
	}
}

// jitterRand builds a peer-local jitter source. Each peer gets its own
// so managers never share rand state.
func (n *Node) jitterRand(peerIdx int) *rand.Rand {
	return rand.New(rand.NewSource(n.cfg.Seed + int64(n.self)*100003 + int64(peerIdx)*1009))
}
