// Package live runs the dining algorithm on real goroutines: one
// goroutine per process, buffered Go channels as the reliable FIFO
// links, and a wall-clock heartbeat implementation of ◇P₁. It exercises
// exactly the same core.Diner state machine as the deterministic
// simulator, which validates that the algorithm's correctness does not
// depend on simulator scheduling artifacts.
//
// The per-edge channels are deliberately small: the paper's Section 7
// proves at most four dining messages occupy an edge at once, so a
// capacity-8 buffered channel never fills and sends never block. The
// runtime records any would-block event as a bound violation, making
// the bounded-capacity claim an executable assertion.
//
// Config.LossP/DupP inject channel faults on the per-edge links,
// mirroring sim.FaultPlan for the goroutine runtime: each forwarder
// simulates a lossy link by holding "lost" messages through a
// retransmission backoff, and may post duplicate copies; receivers
// deduplicate by per-edge sequence number. Faults cease FaultFor after
// Start (eventual reliability), and the occupancy assertion is relaxed
// while they act — a link mid-backoff legitimately queues more than the
// paper's bound.
//
// Every process goroutine exclusively owns its diner, its failure-
// detector state, and its timers; cross-goroutine interaction happens
// only through channels and the mutex-protected tracker, keeping the
// package race-free (the tests run under -race).
package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/graph"
)

// edgeCap is the per-direction channel capacity. The paper bounds joint
// per-edge occupancy by 4; 8 per direction leaves margin so that a
// full channel can only mean an algorithm bug.
const edgeCap = 8

// forwarderBackoff is the retransmission schedule a lossy-edge
// forwarder sleeps through while a frame is "lost": the shared policy
// (see internal/backoff), in nanoseconds, jitterless — the per-edge
// fault RNG already decorrelates edges.
var forwarderBackoff = backoff.Policy{
	Initial: int64(time.Millisecond),
	Max:     int64(8 * time.Millisecond),
}

// Config assembles a live System.
type Config struct {
	// Graph is the conflict graph (required).
	Graph *graph.Graph
	// Colors are static priorities; nil selects greedy coloring.
	Colors []int
	// Options tweak the dining algorithm (see core.Options).
	Options core.Options

	// HeartbeatPeriod is the ◇P₁ heartbeat interval (default 2ms).
	HeartbeatPeriod time.Duration
	// InitialTimeout is the starting suspicion timeout (default 25ms).
	InitialTimeout time.Duration
	// TimeoutIncrement is added after each false suspicion (default
	// 25ms).
	TimeoutIncrement time.Duration
	// DisableDetector turns heartbeating off entirely; the diner then
	// sees an empty suspect set (Choy–Singh conditions).
	DisableDetector bool

	// EatTime and ThinkTime are the workload pauses (defaults 1ms
	// each). Processes are re-hungry forever until Stop.
	EatTime   time.Duration
	ThinkTime time.Duration

	// OnEat, when non-nil, is invoked on the process's own goroutine
	// each time it begins eating — the live distributed-daemon hook:
	// after detector convergence, OnEat(i) never runs concurrently with
	// OnEat(j) for neighbors i and j. The callback must return promptly
	// (it runs inside the critical section) and must synchronize any
	// state it shares across processes that are not conflict-graph
	// neighbors. A panicking hook does not kill the run: the panic is
	// recovered, recorded, and the process is treated as crashed.
	OnEat func(process int)

	// LossP is the per-message loss probability on every directed edge:
	// a "lost" message is held by its forwarder through a retransmission
	// backoff before getting through, like a real lossy link under ARQ.
	LossP float64
	// DupP is the per-message duplication probability; duplicates are
	// discarded at the receiver by sequence number.
	DupP float64
	// FaultFor bounds the fault window: faults cease this long after
	// Start (default 500ms when LossP/DupP are set) — the live analogue
	// of sim.FaultPlan.HealAt.
	FaultFor time.Duration
	// FaultSeed seeds the per-edge fault randomness (default 1).
	FaultSeed int64
}

// faulty reports whether channel-fault injection is configured.
func (c *Config) faulty() bool { return c.LossP > 0 || c.DupP > 0 }

func (c *Config) withDefaults() error {
	if c.Graph == nil {
		return errors.New("live: Config.Graph is required")
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 2 * time.Millisecond
	}
	if c.InitialTimeout <= 0 {
		c.InitialTimeout = 25 * time.Millisecond
	}
	if c.TimeoutIncrement <= 0 {
		c.TimeoutIncrement = 25 * time.Millisecond
	}
	if c.EatTime <= 0 {
		c.EatTime = time.Millisecond
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = time.Millisecond
	}
	if c.LossP < 0 || c.LossP > 1 {
		return fmt.Errorf("live: LossP %v outside [0,1]", c.LossP)
	}
	if c.DupP < 0 || c.DupP > 1 {
		return fmt.Errorf("live: DupP %v outside [0,1]", c.DupP)
	}
	if c.faulty() {
		if c.FaultFor <= 0 {
			c.FaultFor = 500 * time.Millisecond
		}
		if c.FaultSeed == 0 {
			c.FaultSeed = 1
		}
	}
	return nil
}

type eventKind int

const (
	evMessage eventKind = iota + 1
	evHeartbeat
	evHungry
	evExitEat
)

type event struct {
	kind eventKind
	msg  core.Message
	from int
	seq  uint64 // per-directed-edge message sequence, for receiver dedup
}

// liveFrame is what travels on a per-edge channel: the dining message
// plus its edge-local sequence number.
type liveFrame struct {
	seq uint64
	msg core.Message
}

// System is a running set of dining processes on goroutines.
type System struct {
	cfg     Config
	procs   []*proc
	tracker *tracker

	faultUntil time.Time // written in Start before forwarders launch

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  bool

	// crashWhen, when set before Start (tests only), is consulted on a
	// process's own goroutine after each diner action has sent its
	// messages; the process crashes at that instant if it returns true.
	// It lets a test pick a crash point by protocol state, which Crash
	// from another goroutine cannot.
	crashWhen func(id int, d *core.Diner) bool
}

// proc is one process: a goroutine owning a diner and its detector
// state.
type proc struct {
	sys   *System
	id    int
	diner *core.Diner
	inbox chan event
	dead  chan struct{} // closed on crash
	once  sync.Once

	// out[j] is the FIFO link to neighbor j; owned by this process's
	// goroutine on the send side.
	out map[int]chan liveFrame // owned: run
	// seqOut[j] is the last sequence number assigned on out[j].
	seqOut map[int]uint64 // owned: run
	// lastSeq[j] is the last sequence number accepted from neighbor j,
	// used to discard injected duplicates.
	lastSeq map[int]uint64 // owned: run
	// edgeHW is the per-neighbor send-side occupancy high-water mark,
	// published to the tracker at exit.
	edgeHW map[int]int // owned: run

	// Failure-detector state, owned by the run goroutine (enforced by
	// the mailboxown analyzer).
	lastHeard map[int]time.Time     // owned: run
	timeout   map[int]time.Duration // owned: run
	suspected map[int]bool          // owned: run

	nbrs []int
}

// NewSystem builds (but does not start) a live system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	colors := cfg.Colors
	if colors == nil {
		colors = g.GreedyColoring()
	}
	if len(colors) != g.N() || !g.IsProperColoring(colors) {
		return nil, errors.New("live: invalid coloring")
	}
	s := &System{
		cfg:     cfg,
		procs:   make([]*proc, g.N()),
		tracker: newTracker(g),
		stop:    make(chan struct{}),
	}
	for i := 0; i < g.N(); i++ {
		p := &proc{
			sys:       s,
			id:        i,
			inbox:     make(chan event, 64),
			dead:      make(chan struct{}),
			out:       make(map[int]chan liveFrame),
			seqOut:    make(map[int]uint64),
			lastSeq:   make(map[int]uint64),
			edgeHW:    make(map[int]int),
			lastHeard: make(map[int]time.Time),
			timeout:   make(map[int]time.Duration),
			suspected: make(map[int]bool),
			nbrs:      g.Neighbors(i),
		}
		s.procs[i] = p
	}
	// Create the per-edge links, then the diners. Under fault injection
	// a forwarder can sit in a retransmission backoff while the sender
	// keeps producing, so the links get extra slack.
	capacity := edgeCap
	if cfg.faulty() {
		capacity = 64
	}
	for i, p := range s.procs {
		for _, j := range p.nbrs {
			p.out[j] = make(chan liveFrame, capacity)
			p.timeout[j] = cfg.InitialTimeout
		}
		nbrColors := make(map[int]int, len(p.nbrs))
		for _, j := range p.nbrs {
			nbrColors[j] = colors[j]
		}
		p := p
		d, err := core.NewDiner(core.Config{
			ID:             i,
			Color:          colors[i],
			NeighborColors: nbrColors,
			Suspects:       func(j int) bool { return p.suspected[j] },
			Options:        cfg.Options,
		})
		if err != nil {
			return nil, fmt.Errorf("live: process %d: %w", i, err)
		}
		p.diner = d
	}
	return s, nil
}

// Start launches every process goroutine plus one forwarder per
// directed edge; all processes become hungry shortly after. Extra calls
// are no-ops.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	now := time.Now()
	for _, p := range s.procs {
		for _, j := range p.nbrs {
			p.lastHeard[j] = now
		}
	}
	// Forwarders: drain each directed edge into the receiver's inbox,
	// preserving per-edge FIFO. With faults configured, each forwarder
	// simulates a lossy link: a "lost" frame is held through a doubling
	// backoff (counted as retransmits) before it gets through, and a
	// frame may be posted twice (the receiver drops the duplicate by
	// sequence number). Faults cease at s.faultUntil.
	s.faultUntil = time.Now().Add(s.cfg.FaultFor)
	for _, p := range s.procs {
		for _, j := range p.nbrs {
			from, ch, dst := p.id, p.out[j], s.procs[j]
			var rng *rand.Rand
			if s.cfg.faulty() {
				rng = rand.New(rand.NewSource(s.cfg.FaultSeed + int64(from)*1009 + int64(j)))
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				for {
					select {
					case <-s.stop:
						return
					case <-dst.dead:
						return
					case f := <-ch:
						if rng != nil && !s.forward(rng, dst, from, f) {
							return
						}
						if rng == nil {
							dst.post(event{kind: evMessage, msg: f.msg, from: from, seq: f.seq})
						}
					}
				}
			}()
		}
	}
	for _, p := range s.procs {
		s.wg.Add(1)
		go p.run()
		p.post(event{kind: evHungry})
	}
}

// forward carries one frame across a faulty edge: a "lost" frame is
// held through a doubling retransmission backoff until a copy gets
// through, then posted — possibly twice (duplication). Returns false if
// the system stopped or the destination died mid-backoff.
func (s *System) forward(rng *rand.Rand, dst *proc, from int, f liveFrame) bool {
	pol := forwarderBackoff
	wait := time.Duration(pol.Next(0))
	for time.Now().Before(s.faultUntil) && rng.Float64() < s.cfg.LossP {
		s.tracker.retransmit()
		select {
		case <-s.stop:
			return false
		case <-dst.dead:
			return false
		case <-time.After(wait):
		}
		wait = time.Duration(pol.Next(int64(wait)))
	}
	dst.post(event{kind: evMessage, msg: f.msg, from: from, seq: f.seq})
	if time.Now().Before(s.faultUntil) && rng.Float64() < s.cfg.DupP {
		s.tracker.duplicate()
		dst.post(event{kind: evMessage, msg: f.msg, from: from, seq: f.seq})
	}
	return true
}

// Stop shuts the system down and waits for every goroutine to exit.
func (s *System) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Crash kills process id: its goroutine exits and it never sends again.
func (s *System) Crash(id int) error {
	if id < 0 || id >= len(s.procs) {
		return fmt.Errorf("live: crash %d out of range", id)
	}
	p := s.procs[id]
	p.once.Do(func() { close(p.dead) })
	s.tracker.crash(id)
	return nil
}

// Tracker returns the system's metrics tracker.
func (s *System) Tracker() *Tracker { return (*Tracker)(s.tracker) }

// Err returns the first protocol violation recorded by any process,
// including channel-bound overflows and recovered hook panics. Call
// after Stop.
func (s *System) Err() error {
	if errs := s.Tracker().HookPanics(); len(errs) > 0 {
		return errs[0]
	}
	for i, p := range s.procs {
		if err := p.diner.Err(); err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	if n := s.tracker.boundViolationCount(); n > 0 {
		return fmt.Errorf("live: %d channel-bound violations (edge occupancy exceeded %d)", n, edgeCap)
	}
	return nil
}

// EdgeHighWater returns the largest per-direction channel occupancy
// observed at any send. Call after Stop. The paper's bound implies it
// never exceeds 4. Each process publishes its high-water marks to the
// tracker as its goroutine exits, so this never reads manager-owned
// state across goroutines.
func (s *System) EdgeHighWater() int {
	return s.tracker.edgeHighWaterMax()
}

// post delivers an event to this process, giving up if the process is
// dead or the system is stopping. Heartbeats are dropped when the inbox
// is full (late heartbeats only delay unsuspicion, never break safety);
// other events block until accepted — only forwarders and this
// process's own timers post them, so process goroutines never block on
// a peer.
func (p *proc) post(ev event) {
	if ev.kind == evHeartbeat {
		select {
		case p.inbox <- ev:
		case <-p.dead:
		case <-p.sys.stop:
		default:
		}
		return
	}
	select {
	case p.inbox <- ev:
	case <-p.dead:
	case <-p.sys.stop:
	}
}

// publishEdgeHW hands the process's occupancy high-water marks to the
// tracker; deferred in run so it happens-before Stop returns.
func (p *proc) publishEdgeHW() {
	best := 0
	for _, hw := range p.edgeHW {
		if hw > best {
			best = hw
		}
	}
	p.sys.tracker.edgeHighWater(best)
}

func (p *proc) run() {
	defer p.sys.wg.Done()
	defer p.publishEdgeHW()
	// A panicking daemon hook (OnEat) must not silently kill this
	// goroutine and hang the neighbors that share its forks: recover,
	// record the failure for the report, and fall over as a crash —
	// which the neighbors' detectors handle like any other.
	defer func() {
		if r := recover(); r != nil {
			p.sys.tracker.hookPanic(fmt.Errorf("live: process %d: recovered hook panic: %v", p.id, r))
			p.once.Do(func() { close(p.dead) })
			p.sys.tracker.crash(p.id)
		}
	}()
	var tick <-chan time.Time
	if !p.sys.cfg.DisableDetector {
		ticker := time.NewTicker(p.sys.cfg.HeartbeatPeriod)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		// A crash takes effect before any further step: the select
		// below picks at random among ready cases, so without this a
		// crashed process could still handle a queued event.
		select {
		case <-p.dead:
			return
		default:
		}
		select {
		case <-p.sys.stop:
			return
		case <-p.dead:
			return
		case <-tick:
			p.heartbeatRound()
		case ev := <-p.inbox:
			p.handle(ev)
		}
	}
}

// heartbeatRound sends heartbeats to all neighbors and refreshes
// suspicions from deadlines.
func (p *proc) heartbeatRound() {
	for _, j := range p.nbrs {
		p.sys.procs[j].post(event{kind: evHeartbeat, from: p.id})
	}
	now := time.Now()
	changed := false
	for _, j := range p.nbrs {
		if !p.suspected[j] && now.Sub(p.lastHeard[j]) > p.timeout[j] {
			p.suspected[j] = true
			changed = true
		}
	}
	if changed {
		p.act(func() []core.Message { return p.diner.ReevaluateSuspicion() })
	}
}

func (p *proc) handle(ev event) {
	switch ev.kind {
	case evHeartbeat:
		p.lastHeard[ev.from] = time.Now()
		if p.suspected[ev.from] {
			p.suspected[ev.from] = false
			p.timeout[ev.from] += p.sys.cfg.TimeoutIncrement
			p.act(func() []core.Message { return p.diner.ReevaluateSuspicion() })
		}
	case evMessage:
		if ev.seq <= p.lastSeq[ev.from] {
			// An injected duplicate: the original already arrived.
			p.sys.tracker.dupSuppressed()
			return
		}
		p.lastSeq[ev.from] = ev.seq
		m := ev.msg
		p.act(func() []core.Message { return p.diner.Deliver(m) })
	case evHungry:
		p.act(func() []core.Message { return p.diner.BecomeHungry() })
	case evExitEat:
		p.act(func() []core.Message { return p.diner.ExitEating() })
	}
}

// act executes one diner action, transmits outputs, and reacts to state
// transitions.
func (p *proc) act(action func() []core.Message) {
	before := p.diner.State()
	msgs := action()
	after := p.diner.State()
	// Report the transition before sending: the fork an exit releases
	// can let a neighbor eat, and the tracker would count a violation
	// if the neighbor's eating report overtook this exit's.
	if before != after {
		if before == core.Thinking && after == core.Eating {
			p.sys.tracker.transition(p.id, core.Hungry)
		}
		p.sys.tracker.transition(p.id, after)
	}
	for _, m := range msgs {
		p.seqOut[m.To]++
		f := liveFrame{seq: p.seqOut[m.To], msg: m}
		ch := p.out[m.To]
		if p.sys.cfg.faulty() {
			// A forwarder mid-backoff legitimately backs the link up, so
			// a full channel is congestion, not a protocol bug: block
			// until it drains (or the run ends).
			select {
			case ch <- f:
				if occ := len(ch); occ > p.edgeHW[m.To] {
					p.edgeHW[m.To] = occ
				}
			case <-p.dead:
			case <-p.sys.stop:
			}
			continue
		}
		select {
		case ch <- f:
			if occ := len(ch); occ > p.edgeHW[m.To] {
				p.edgeHW[m.To] = occ
			}
		default:
			// The paper's ≤4 bound makes this unreachable; record it
			// rather than block, so a bug surfaces as a test failure
			// instead of a deadlock.
			p.sys.tracker.boundViolation()
		}
	}
	if p.sys.crashWhen != nil && p.sys.crashWhen(p.id, p.diner) {
		_ = p.sys.Crash(p.id) // cannot fail: p.id is in range
		return
	}
	if before == after {
		return
	}
	switch after {
	case core.Eating:
		if p.sys.cfg.OnEat != nil {
			p.sys.cfg.OnEat(p.id)
		}
		time.AfterFunc(p.sys.cfg.EatTime, func() { p.post(event{kind: evExitEat}) })
	case core.Thinking:
		time.AfterFunc(p.sys.cfg.ThinkTime, func() { p.post(event{kind: evHungry}) })
	case core.Hungry:
		// Nothing to schedule: the hungry phase ends when the protocol
		// grants entry, driven by message deliveries.
	}
}
