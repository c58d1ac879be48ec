package cluster

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// PlanConfig parameterizes one scripted chaos run on the virtual
// network: an arbitrary conflict graph (process i lives alone on node
// i, addressed NodeAddr(i)), an explicit netsim.ChaosPlan, and the
// cluster tuning. Zero durations pick the chaos-soak defaults. This is
// the data-driven seam of the harness: RunChaosSoak derives its plan
// from a seed, the scenario engine compiles one from a scenario file,
// and both execute it here.
type PlanConfig struct {
	// Seed feeds network jitter and the per-node RNGs. 0 is valid.
	Seed int64
	// Graph is the conflict graph. Required.
	Graph *graph.Graph
	// Plan is the fault schedule, with addresses NodeAddr(0..N-1).
	Plan netsim.ChaosPlan
	// OvertakeK is the waiting bound the anchor search moves past
	// (default 2, the paper's ◇2-BW constant).
	OvertakeK int
	// MinSessions is the teeth of the anchor search: completed
	// post-anchor hungry sessions demanded of every live process before
	// the monitors are re-read (default 2).
	MinSessions int
	// WaitCap bounds the extra virtual time each goal-driven wait may
	// consume past the plan's Duration (default 12s).
	WaitCap time.Duration

	HeartbeatPeriod  time.Duration // default 10ms
	InitialTimeout   time.Duration // default 120ms
	TimeoutIncrement time.Duration // default 60ms
	EatTime          time.Duration // default 4ms
	ThinkTime        time.Duration // default 4ms
	RTO              time.Duration // default 20ms
	DialBackoff      time.Duration // zero keeps remote's default
	DialBackoffMax   time.Duration // zero keeps remote's default
	SendWindow       int           // zero keeps remote's default
	Logf             func(format string, args ...any)
}

// PlanRun is the outcome of one scripted run: the stopped-or-running
// cluster (the caller owns Stop), the executed plan, and the
// stabilization search result. Property verdicts are the caller's job
// — RunChaosSoak and the scenario checkers read the cluster's monitors
// through their own rules.
type PlanRun struct {
	// Cluster is still running; the caller must Stop it.
	Cluster *Cluster
	// Plan is the executed schedule.
	Plan netsim.ChaosPlan
	// Addrs are the node addresses, index-aligned with the graph.
	Addrs []string
	// Blast is the crash/restart blast radius of the plan.
	Blast map[int]bool
	// StableAt is the stabilization anchor the search settled on (or
	// its last position if it never settled).
	StableAt sim.Time
	// Settled reports that the anchor search converged within its
	// iteration budget.
	Settled bool
	// WaitErr, when non-nil, is the session-wait timeout that aborted
	// the anchor search: the cluster stopped completing sessions, which
	// is wait-freedom failing at the harness level.
	WaitErr error
}

// NodeAddr is the virtual-network address of node i.
func NodeAddr(i int) string { return fmt.Sprintf("n%d", i) }

// anchorIterBudget bounds the anchor-seeking stabilization search; a
// run whose violations never cease exhausts it and reports !Settled.
const anchorIterBudget = 8

// RunPlan executes one scripted fault schedule against a full
// remote-stack cluster on the virtual network, then runs the
// anchor-seeking stabilization search: start at the final heal, and
// while an exclusion violation or an over-K bounded-waiting window
// still starts at or after the anchor, move past it and look again —
// the paper's guarantees are all of the form "there is a time after
// which ...", so the search's job is to find that time and prove a
// non-trivial suffix is clean. Each iteration demands MinSessions
// fresh post-anchor sessions from every live process before re-reading
// the monitors, so a converged anchor is never vacuous.
//
// The returned error covers harness malfunctions (cluster
// construction, a restart that could not bind); the session-wait
// timeout is reported in PlanRun.WaitErr instead, because "no
// progress" is a property verdict, not a harness failure.
func RunPlan(cfg PlanConfig) (*PlanRun, error) {
	if cfg.OvertakeK == 0 {
		cfg.OvertakeK = 2
	}
	if cfg.MinSessions == 0 {
		cfg.MinSessions = 2
	}
	if cfg.WaitCap == 0 {
		cfg.WaitCap = soakWaitCap
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 10 * time.Millisecond
	}
	if cfg.InitialTimeout == 0 {
		cfg.InitialTimeout = 120 * time.Millisecond
	}
	if cfg.TimeoutIncrement == 0 {
		cfg.TimeoutIncrement = 60 * time.Millisecond
	}
	if cfg.EatTime == 0 {
		cfg.EatTime = 4 * time.Millisecond
	}
	if cfg.ThinkTime == 0 {
		cfg.ThinkTime = 4 * time.Millisecond
	}
	if cfg.RTO == 0 {
		cfg.RTO = 20 * time.Millisecond
	}

	clk := netsim.NewClock()
	nw := netsim.NewNet(clk, cfg.Seed)
	n := cfg.Graph.N()
	addrs := make([]string, n)
	placement := make([][]int, n)
	for i := range addrs {
		addrs[i] = NodeAddr(i)
		placement[i] = []int{i}
	}

	cl, err := New(cfg.Graph, placement, Options{
		HeartbeatPeriod:  cfg.HeartbeatPeriod,
		InitialTimeout:   cfg.InitialTimeout,
		TimeoutIncrement: cfg.TimeoutIncrement,
		EatTime:          cfg.EatTime,
		ThinkTime:        cfg.ThinkTime,
		RTO:              cfg.RTO,
		DialBackoff:      cfg.DialBackoff,
		DialBackoffMax:   cfg.DialBackoffMax,
		SendWindow:       cfg.SendWindow,
		Seed:             cfg.Seed + 1,
		Logf:             cfg.Logf,
		Network:          nw,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// Execute the schedule. Times are absolute offsets; Kill may pump
	// the clock past an event's instant, in which case the event
	// applies as soon as scripted time catches up. Virtual time must be
	// advanced in bounded steps, never one leap per event: a goroutine
	// that falls behind a sweeping clock stamps its next chunk after the
	// clock's final resting point, so the delivery wake only fires on
	// the NEXT Advance — one big jump harvests roughly one message hop
	// per call and can freeze an entire handshake chain.
	for _, ev := range cfg.Plan.Events {
		advanceTo(clk, ev.At)
		if err := applyChaos(cl, nw, ev); err != nil {
			cl.Stop()
			return nil, err
		}
	}
	advanceTo(clk, cfg.Plan.Duration)

	pr := &PlanRun{
		Cluster: cl,
		Plan:    cfg.Plan,
		Addrs:   addrs,
		Blast:   BlastRadius(cfg.Graph, cfg.Plan, addrs),
	}

	pr.StableAt, pr.Settled, pr.WaitErr = cl.AnchorSearch(
		sim.Time(cfg.Plan.HealAt()), cfg.OvertakeK, cfg.MinSessions, cfg.WaitCap)
	cl.FinishMonitors()
	return pr, nil
}

// AnchorSearch runs the anchor-seeking stabilization search against
// the running cluster: start the anchor at `start` (typically the
// final heal), and while an exclusion violation or an over-k
// bounded-waiting window still begins at or after the anchor, move
// past it and look again. Violations after the heal are legal while
// they last: the physical network is whole, but reconnect backoff
// (grown while the link was dead) can keep a link down for up to a
// full backoff cap afterwards, and until the handshake completes both
// sides legitimately eat under mutual suspicion. What must not happen
// is that they keep occurring: each iteration demands minSessions
// fresh post-anchor sessions from every live process (the teeth of
// the check) before re-reading the monitors, and a run whose
// violations never cease exhausts the iteration budget and returns
// settled=false. A session wait that times out aborts the search and
// is reported in waitErr — the cluster stopped completing sessions,
// which is wait-freedom failing. The caller still owns FinishMonitors.
func (c *Cluster) AnchorSearch(start sim.Time, k, minSessions int, waitCap time.Duration) (stable sim.Time, settled bool, waitErr error) {
	stable = start
	for iter := 0; iter < anchorIterBudget && !settled; iter++ {
		if err := c.WaitClosedSessions(stable, minSessions, waitCap); err != nil {
			return stable, false, err
		}
		moved := false
		if t, found := c.LastExclusionViolation(); found && t >= stable {
			stable = t + 1
			moved = true
		}
		if t, found := c.LastExcessOvertake(k); found && t >= stable {
			stable = t + 1
			moved = true
		}
		if !moved {
			settled = true
		}
	}
	return stable, settled, nil
}

// ClosedSessionsFrom counts, per process, completed hungry sessions
// starting at or after t. The overtake monitor emits one window per
// neighbor per session, all sharing the session's start time, so
// distinct start times count sessions.
func (c *Cluster) ClosedSessionsFrom(t sim.Time) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.g.N()
	out := make([]int, n)
	last := make([]sim.Time, n)
	seen := make([]bool, n)
	for _, w := range c.over.Windows() {
		if !w.Closed || w.HungryAt < t {
			continue
		}
		if !seen[w.Victim] || w.HungryAt != last[w.Victim] {
			out[w.Victim]++
			last[w.Victim] = w.HungryAt
			seen[w.Victim] = true
		}
	}
	return out
}

// WaitClosedSessions drives time until every live process has
// completed at least min hungry sessions starting at or after t — the
// teeth that keep an eventual-property assertion from passing over an
// empty suffix.
func (c *Cluster) WaitClosedSessions(t sim.Time, min int, timeout time.Duration) error {
	return c.waitCond(func() bool {
		ss := c.ClosedSessionsFrom(t)
		for id := 0; id < c.g.N(); id++ {
			if c.procDown(id) {
				continue
			}
			if ss[id] < min {
				return false
			}
		}
		return true
	}, timeout)
}

// WaitUntilElapsed drives time — virtual or wall, depending on the
// cluster's mode — until the cluster clock reaches t. Harnesses
// scripting absolute-offset events use it as their only clock.
func (c *Cluster) WaitUntilElapsed(t sim.Time, timeout time.Duration) error {
	return c.waitCond(func() bool { return c.now() >= t }, timeout)
}

// ErrsOutsideBlast checks that every node hosting only
// outside-blast-radius processes recorded no error; the detail string
// describes the first offender.
func (c *Cluster) ErrsOutsideBlast(blast map[int]bool) (bool, string) {
	for ni, n := range c.Nodes {
		c.mu.Lock()
		dead := c.killed[ni]
		c.mu.Unlock()
		if dead {
			continue
		}
		inBlast := false
		for _, p := range c.Topo.Nodes[ni].Procs {
			if blast[p] {
				inBlast = true
			}
		}
		if inBlast {
			continue
		}
		if err := n.Err(); err != nil {
			return false, fmt.Sprintf("node %d (outside blast radius): %v", ni, err)
		}
	}
	return true, ""
}

// BlastRadius collects the processes whose protocol state may
// legitimately be torn by a crash/restart episode: the restarted
// node's processes plus their conflict-graph neighbors (stale
// messages from either side can trip an invariant, which the runtime
// converts into a process crash — see rproc.act).
func BlastRadius(g *graph.Graph, plan netsim.ChaosPlan, addrs []string) map[int]bool {
	out := make(map[int]bool)
	for _, ev := range plan.Events {
		if ev.Kind != netsim.ChaosRestart {
			continue
		}
		for ni, a := range addrs {
			if a != ev.A {
				continue
			}
			// Placement is process i on node i.
			out[ni] = true
			for _, j := range g.Neighbors(ni) {
				out[j] = true
			}
		}
	}
	return out
}
