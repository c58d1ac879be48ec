package remote

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
)

// tracker is the node's observation point: process goroutines and
// peer managers report into it, and the /status endpoint reads from
// it. It never influences the run. Everything but channel occupancy is
// guarded by mu.
//
// Occupancy is fed from the transport's application-level send/deliver
// events on every dining message (each directed stream is measured at
// its sender; a remote message counts as in transit from submission
// until the cumulative ack covers it), so it stays off mu: one atomic
// in-transit counter per graph edge, in a map built once from the
// static topology and only read afterwards, and one node-wide atomic
// high-water.
type tracker struct {
	inTransit map[[2]int]*atomic.Int32 // by edgeKey; never written after newTracker
	occHigh   atomic.Int32             // max in-transit count any edge reached

	mu    sync.Mutex
	procs map[int]*procStats
	peers map[int]*peerStats
	errs  []error
}

type procStats struct {
	state    core.State
	eats     int
	sessions int
	suspects []int
	crashed  bool
}

type peerStats struct {
	addr          string
	connected     bool
	connects      uint64
	writerDrops   uint64
	retransmits   uint64
	dupSuppressed uint64

	// Health is the authoritative copy of the link's state machine;
	// peer managers (and the watchdog) drive it through setHealth so
	// every transition is validated against healthCanStep and counted.
	health      HealthState
	healthSteps map[string]uint64 // "suspect->healthy" -> count

	coalesced uint64 // idempotent frames merged instead of queued
	stalls    uint64 // backpressure stall episodes begun
	wedges    uint64 // watchdog wedge verdicts against this peer

	// Per ordered-pair ARQ gauges, keyed by the stream's (from, to).
	pairs map[pairKey]*pairStats
}

type pairStats struct {
	depth     int // current unacked entries in the ring
	peakDepth int
	bytes     int // current encoded frame bytes held by the ring
}

func newTracker(g *graph.Graph) *tracker {
	t := &tracker{
		inTransit: make(map[[2]int]*atomic.Int32, g.M()),
		procs:     make(map[int]*procStats),
		peers:     make(map[int]*peerStats),
	}
	for _, e := range g.Edges() {
		t.inTransit[edgeKey(e[0], e[1])] = new(atomic.Int32)
	}
	return t
}

// edgeKey names the undirected edge {a, b}.
func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (t *tracker) addProc(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs[id] = &procStats{state: core.Thinking}
}

func (t *tracker) addPeer(node int, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A link is born Suspect: disconnected, dialer about to try.
	t.peers[node] = &peerStats{
		addr:        addr,
		health:      HealthSuspect,
		healthSteps: make(map[string]uint64),
		pairs:       make(map[pairKey]*pairStats),
	}
}

func (t *tracker) transition(id int, to core.State, eats, sessions int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.procs[id]
	ps.state = to
	ps.eats = eats
	ps.sessions = sessions
}

// setSuspects records the neighbors of id, sorted, whose suspected
// flag (aligned with nbrs) is set.
func (t *tracker) setSuspects(id int, nbrs []int, suspected []bool) {
	out := make([]int, 0, len(suspected))
	for i, v := range suspected {
		if v {
			out = append(out, nbrs[i])
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs[id].suspects = out
}

func (t *tracker) crash(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs[id].crashed = true
}

func (t *tracker) recordErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs = append(t.errs, err)
}

func (t *tracker) firstErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) == 0 {
		return nil
	}
	return t.errs[0]
}

// appSend counts a dining message into transit on edge {from, to} and
// raises the node-wide high-water if the edge just set a new one.
func (t *tracker) appSend(from, to int) {
	v := t.inTransit[edgeKey(from, to)].Add(1)
	for {
		hw := t.occHigh.Load()
		if v <= hw || t.occHigh.CompareAndSwap(hw, v) {
			return
		}
	}
}

// appDeliver counts a dining message out of transit on edge {from, to}.
func (t *tracker) appDeliver(from, to int) {
	t.inTransit[edgeKey(from, to)].Add(-1)
}

func (t *tracker) peerConnected(node int, up bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.peers[node]
	ps.connected = up
	if up {
		ps.connects++
	}
}

func (t *tracker) writerDrop(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node].writerDrops++
}

func (t *tracker) retransmit(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node].retransmits++
}

func (t *tracker) dupSuppressed(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node].dupSuppressed++
}

// setHealth drives the peer's health state machine. Self-loops are
// no-ops; an edge absent from healthCanStep is a programming error and
// is recorded loudly instead of applied, so an illegal transition can
// never pass silently. Returns the state actually in effect after the
// call.
func (t *tracker) setHealth(node int, to HealthState, reason string) HealthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.peers[node]
	from := ps.health
	if from == to {
		return from
	}
	if !healthCanStep(from, to) {
		t.errs = append(t.errs, fmt.Errorf(
			"remote: illegal health transition %v -> %v for peer %d (%s)", from, to, node, reason))
		return from
	}
	ps.health = to
	ps.healthSteps[from.String()+"->"+to.String()]++
	return to
}

// healthOf reads the peer's current health state.
func (t *tracker) healthOf(node int) HealthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[node].health
}

func (t *tracker) coalescedFrame(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node].coalesced++
}

func (t *tracker) stallBegan(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node].stalls++
}

func (t *tracker) wedge(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node].wedges++
}

// pairQueue updates one ordered pair's ARQ gauges (current ring depth
// and encoded frame bytes held).
func (t *tracker) pairQueue(node int, key pairKey, depth, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.peers[node]
	g, ok := ps.pairs[key]
	if !ok {
		g = &pairStats{}
		ps.pairs[key] = g
	}
	g.depth, g.bytes = depth, bytes
	if depth > g.peakDepth {
		g.peakDepth = depth
	}
}

// --- public status surface ---------------------------------------------

// ProcStatus is one hosted process's view in /status.
type ProcStatus struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	EatCount int    `json:"eat_count"`
	Sessions int    `json:"sessions"`
	Suspects []int  `json:"suspects,omitempty"`
	Crashed  bool   `json:"crashed,omitempty"`
}

// PairStatus is one ordered process pair's ARQ gauge in /status.
type PairStatus struct {
	From      int `json:"from"`
	To        int `json:"to"`
	Depth     int `json:"depth"`
	PeakDepth int `json:"peak_depth"`
	Bytes     int `json:"bytes"`
}

// PeerStatus is the transport link to one remote node in /status.
type PeerStatus struct {
	Node          int    `json:"node"`
	Addr          string `json:"addr"`
	Connected     bool   `json:"connected"`
	Health        string `json:"health"`
	Connects      uint64 `json:"connects"`
	Retransmits   uint64 `json:"retransmits"`
	DupSuppressed uint64 `json:"dup_suppressed"`
	WriterDrops   uint64 `json:"writer_drops"`
	Coalesced     uint64 `json:"coalesced"`
	Stalls        uint64 `json:"stalls"`
	Wedges        uint64 `json:"wedges,omitempty"`
	// HealthSteps counts every validated health transition the link has
	// taken, keyed "from->to" — the auditable history the state machine
	// promises.
	HealthSteps map[string]uint64 `json:"health_steps,omitempty"`
	Pairs       []PairStatus      `json:"pairs,omitempty"`
}

// Status is the JSON document served at /status.
type Status struct {
	Node int    `json:"node"`
	Addr string `json:"addr"`
	// MaxEdgeOccupancy is the per-edge application-message high-water
	// mark, as measured by this node (the paper's Section 7 figure —
	// eventually at most 4 per edge).
	MaxEdgeOccupancy int `json:"max_edge_occupancy"`
	// SendWindow is the fixed per-pair ARQ ring capacity; every pair's
	// depth is ≤ this bound at all times, by construction.
	SendWindow int          `json:"send_window"`
	Procs      []ProcStatus `json:"procs"`
	Peers      []PeerStatus `json:"peers"`
	Errors     []string     `json:"errors,omitempty"`
}

// Status snapshots the node for monitoring.
func (n *Node) Status() Status {
	t := n.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{Node: n.self, Addr: n.Addr(), MaxEdgeOccupancy: int(t.occHigh.Load()), SendWindow: n.cfg.SendWindow}
	ids := make([]int, 0, len(t.procs))
	for id := range t.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ps := t.procs[id]
		st.Procs = append(st.Procs, ProcStatus{
			ID: id, State: ps.state.String(), EatCount: ps.eats,
			Sessions: ps.sessions, Suspects: ps.suspects, Crashed: ps.crashed,
		})
	}
	nodes := make([]int, 0, len(t.peers))
	for node := range t.peers {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		ps := t.peers[node]
		p := PeerStatus{
			Node: node, Addr: ps.addr, Connected: ps.connected, Health: ps.health.String(),
			Connects: ps.connects, Retransmits: ps.retransmits, DupSuppressed: ps.dupSuppressed,
			WriterDrops: ps.writerDrops, Coalesced: ps.coalesced, Stalls: ps.stalls, Wedges: ps.wedges,
		}
		if len(ps.healthSteps) > 0 {
			p.HealthSteps = make(map[string]uint64, len(ps.healthSteps))
			for k, v := range ps.healthSteps {
				p.HealthSteps[k] = v
			}
		}
		keys := make([]pairKey, 0, len(ps.pairs))
		for k := range ps.pairs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].from != keys[j].from {
				return keys[i].from < keys[j].from
			}
			return keys[i].to < keys[j].to
		})
		for _, k := range keys {
			g := ps.pairs[k]
			p.Pairs = append(p.Pairs, PairStatus{From: k.from, To: k.to, Depth: g.depth, PeakDepth: g.peakDepth, Bytes: g.bytes})
		}
		st.Peers = append(st.Peers, p)
	}
	for _, err := range t.errs {
		st.Errors = append(st.Errors, err.Error())
	}
	return st
}

// EatCounts returns the eat count of every hosted process, keyed by
// process ID.
func (n *Node) EatCounts() map[int]int {
	n.tr.mu.Lock()
	defer n.tr.mu.Unlock()
	out := make(map[int]int, len(n.tr.procs))
	for id, ps := range n.tr.procs {
		out[id] = ps.eats
	}
	return out
}

// MaxEdgeOccupancy returns this node's per-edge application-message
// high-water mark.
func (n *Node) MaxEdgeOccupancy() int {
	return int(n.tr.occHigh.Load())
}

// MaxPairDepth returns the highest ARQ ring depth any ordered pair on
// any peer link has ever reached — the resource invariant the chaos
// soak samples (must stay ≤ SendWindow).
func (n *Node) MaxPairDepth() int {
	n.tr.mu.Lock()
	defer n.tr.mu.Unlock()
	max := 0
	for _, ps := range n.tr.peers {
		for _, g := range ps.pairs {
			if g.peakDepth > max {
				max = g.peakDepth
			}
		}
	}
	return max
}

// QueuedFrameBytes returns the encoded bytes currently pinned by all
// ARQ rings on this node — the frame-buffer footprint that must stay
// flat across an arbitrarily long partition.
func (n *Node) QueuedFrameBytes() int {
	n.tr.mu.Lock()
	defer n.tr.mu.Unlock()
	total := 0
	for _, ps := range n.tr.peers {
		for _, g := range ps.pairs {
			total += g.bytes
		}
	}
	return total
}

// SendWindow returns the configured per-pair ARQ ring capacity.
func (n *Node) SendWindow() int { return n.cfg.SendWindow }

// Handler serves the debug endpoints: /status (JSON) and
// /debug/pprof/*.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.Status())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
