package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/sim"
)

const (
	// eatThink is the eat and think time: remote.Config turns ≤0 into
	// 2ms, so a saturated loop must ask for 1µs explicitly.
	eatThink = time.Microsecond
	// remoteSetups is how many times a run sets a remote cluster up.
	remoteSetups = 31
	// setupTimeout bounds one set-up.
	setupTimeout = 10 * time.Second
	// restartSettle excuses exclusion mistakes this long after a
	// restart, while neighbours still suspect the returning process:
	// ◇WX allows mistakes only until the detector stabilises.
	restartSettle = 300 * time.Millisecond
	// exitLag is how late a process's exit may be reported. The
	// Observer fires after a transition's messages are routed, so the
	// fork a process releases can reach its neighbour, which eats and
	// reports first, before the releasing process reports its own exit.
	// An overlap whose earlier eater is seen exiting within exitLag of
	// the later eater's entry is that reporting order, not two
	// processes in their critical sections.
	exitLag = 20 * time.Millisecond
)

// grant is one hungry→eat session, in nanoseconds since the run's time
// origin.
type grant struct {
	proc  int32
	index int32 // the process's session number
	h, e  int64
	x     int64 // exit (eating → thinking); 0 while eating
}

// procLog is one process's session record. Only the process's own
// goroutine writes it while its node runs (a restarted node's goroutine
// starts after the stopped one has exited), so the Observer takes no
// shared lock on the hot path; the logs are merged once the run stops.
type procLog struct {
	hungrySince int64 // 0 = not hungry
	sessions    int32
	chunks      [][]grant
	last        *grant
	eaten       bool
}

// grantChunk is how many sessions one block of a process's record
// holds. The record grows by whole blocks and never copies, so its
// footprint rises linearly with sessions: a doubling reallocation
// mid-run would show in the peak RSS as noise the program did not
// cause.
const grantChunk = 4096

// lifeEvent is a crash or restart of one process (ns since t0).
type lifeEvent struct {
	at      int64
	proc    int
	restart bool
}

// observer is the remote.Config.Observer shared by every node: it
// records every session per process, and after the run feeds the
// transitions to a metrics.ExclusionMonitor in time order.
type observer struct {
	t0       time.Time
	g        *graph.Graph
	procs    []*procLog
	eatenN   atomic.Int32
	allEaten chan struct{}

	mu     sync.Mutex
	fallen []int
	life   []lifeEvent
	// stopping marks processes whose node is inside Node.Stop; one that
	// falls over then is not counted in fallen (see cluster.halt).
	stopping []bool

	// Filled by finish: every session in eating order, and the
	// exclusion monitor fed from the merged transitions.
	grants []grant
	excl   *metrics.ExclusionMonitor
}

func newObserver(g *graph.Graph, t0 time.Time) *observer {
	o := &observer{t0: t0, g: g, allEaten: make(chan struct{}), stopping: make([]bool, g.N())}
	for i := 0; i < g.N(); i++ {
		o.procs = append(o.procs, &procLog{})
	}
	return o
}

func (o *observer) observe(p int, from, to core.State) {
	now := int64(time.Since(o.t0))
	pl := o.procs[p]
	switch to {
	case core.Hungry:
		pl.hungrySince = now
	case core.Eating:
		if h := pl.hungrySince; h != 0 {
			if k := len(pl.chunks); k == 0 || len(pl.chunks[k-1]) == grantChunk {
				pl.chunks = append(pl.chunks, make([]grant, 0, grantChunk))
			}
			c := &pl.chunks[len(pl.chunks)-1]
			*c = append(*c, grant{proc: int32(p), h: h, e: now, index: pl.sessions})
			pl.last = &(*c)[len(*c)-1]
			pl.sessions++
		}
		pl.hungrySince = 0
		if !pl.eaten {
			pl.eaten = true
			if int(o.eatenN.Add(1)) == len(o.procs) {
				close(o.allEaten)
			}
		}
	case core.Thinking:
		if g := pl.last; g != nil && g.x == 0 {
			g.x = now
		}
	}
}

func (o *observer) procFell(p int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.stopping[p] {
		o.fallen = append(o.fallen, p)
	}
}

// setStopping marks procs as inside (or out of) their node's Stop.
func (o *observer) setStopping(procs []int, on bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range procs {
		o.stopping[p] = on
	}
}

// crashed marks procs down at instant at (ns since t0). Call after
// their node has stopped.
func (o *observer) crashed(procs []int, at int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range procs {
		o.procs[p].hungrySince = 0
		o.life = append(o.life, lifeEvent{at: at, proc: p})
	}
}

// restarted marks procs live again. Call before their node starts.
func (o *observer) restarted(procs []int, at int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range procs {
		o.life = append(o.life, lifeEvent{at: at, proc: p, restart: true})
	}
}

// finish merges the per-process records once every node has stopped:
// grants in eating order, and every eat, exit, crash and restart fed to
// the exclusion monitor in time order.
func (o *observer) finish() {
	type event struct {
		at   int64
		proc int
		kind int // 0 eat, 1 exit, 2 crash, 3 restart
	}
	var evs []event
	for _, pl := range o.procs {
		for _, c := range pl.chunks {
			o.grants = append(o.grants, c...)
			for _, g := range c {
				evs = append(evs, event{at: g.e, proc: int(g.proc)})
				if g.x != 0 {
					evs = append(evs, event{at: g.x, proc: int(g.proc), kind: 1})
				}
			}
		}
		pl.chunks, pl.last = nil, nil
	}
	for _, l := range o.life {
		k := 2
		if l.restart {
			k = 3
		}
		evs = append(evs, event{at: l.at, proc: l.proc, kind: k})
	}
	sort.Slice(o.grants, func(i, j int) bool { return o.grants[i].e < o.grants[j].e })
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	o.excl = metrics.NewExclusionMonitor(o.g)
	for _, ev := range evs {
		at := sim.Time(ev.at)
		switch ev.kind {
		case 0:
			o.excl.OnTransition(at, ev.proc, core.Hungry, core.Eating)
		case 1:
			o.excl.OnTransition(at, ev.proc, core.Eating, core.Thinking)
		case 2:
			o.excl.OnCrash(at, ev.proc)
		case 3:
			o.excl.OnRestart(at, ev.proc)
		}
	}
}

// reportingLag reports whether violation v (v.A began eating while
// neighbour v.B was seen eating) is the Observer's reporting order:
// v.B's exit was reported within exitLag of v.A's entry. byProc holds
// each process's grants in eating order.
func reportingLag(byProc [][]grant, v metrics.Violation) (bool, time.Duration) {
	gs := byProc[v.B]
	i := sort.Search(len(gs), func(i int) bool { return gs[i].e > int64(v.At) }) - 1
	if i < 0 || gs[i].x == 0 {
		return false, 0
	}
	lag := time.Duration(gs[i].x - int64(v.At))
	return lag <= exitLag, lag
}

// cluster is a set of remote.Nodes on loopback, driven only through
// NewNode/Start/Stop/Status.
type cluster struct {
	w     *Workload
	in    Inputs
	topo  *remote.Topology
	obs   *observer
	tap   *tapStats // nil when untraced
	incar uint64

	nodes []*remote.Node
	// finals are the last Status of every node instance, taken just
	// before it stopped.
	finals []remote.Status
	errs   []error
	// stopErrs are errors that first appeared while a node stopped.
	stopErrs []error
}

func newCluster(w *Workload, in Inputs, obs *observer, tap *tapStats) (*cluster, error) {
	c := &cluster{w: w, in: in, obs: obs, tap: tap}
	g := w.Graph()
	lns := make([]net.Listener, len(w.Placement))
	specs := make([]remote.NodeSpec, len(w.Placement))
	for i, procs := range w.Placement {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		specs[i] = remote.NodeSpec{Addr: ln.Addr().String(), Procs: procs}
	}
	topo, err := remote.NewTopology(g, specs)
	if err != nil {
		closeListeners(lns)
		return nil, err
	}
	c.topo = topo
	c.nodes = make([]*remote.Node, len(lns))
	for i, ln := range lns {
		n, err := remote.NewNode(c.config(i, ln))
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		c.nodes[i] = n
	}
	for i, n := range c.nodes {
		if err := n.Start(); err != nil {
			closeListeners(lns[i:])
			c.stopAll()
			return nil, err
		}
	}
	return c, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

func (c *cluster) config(ni int, ln net.Listener) remote.Config {
	c.incar++
	cfg := remote.Config{
		Topology:        c.topo,
		Node:            ni,
		EatTime:         eatThink,
		ThinkTime:       eatThink,
		Seed:            c.in.NodeSeeds[ni],
		Incarnation:     c.incar,
		Listener:        ln,
		Observer:        c.obs.observe,
		OnProcCrash:     c.obs.procFell,
		HeartbeatPeriod: c.w.HeartbeatDelay,
		InitialTimeout:  c.w.InitialTimeout,
		DialBackoffMax:  c.w.DialBackoffMax,
	}
	if c.tap != nil {
		cfg.Listener = tapListener{Listener: ln, st: c.tap}
		cfg.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return c.tap.wrap(conn), nil
		}
	}
	return cfg
}

// stopNode snapshots and stops node i, recording its error.
func (c *cluster) stopNode(i int) {
	if n := c.nodes[i]; n != nil {
		c.finals = append(c.finals, n.Status())
		c.halt(i)
	}
}

// halt stops node i without a snapshot. An error the node recorded
// while running fails the run. One that first appears during Stop is
// kept apart: Stop closes the node's stop channel while its process
// goroutines still run, and a post that selects the closed channel
// drops a message its successors do not, so a diner can see a fork
// request whose fork was dropped and record a Lemma 1.1 violation that
// no running node ever had. That is a defect of Node.Stop, reported on
// every run in which it shows, not a fault of the measured sessions.
func (c *cluster) halt(i int) {
	n := c.nodes[i]
	if n == nil {
		return
	}
	running := n.Err()
	c.obs.setStopping(c.w.Placement[i], true)
	n.Stop()
	switch err := n.Err(); {
	case running != nil:
		c.errs = append(c.errs, fmt.Errorf("node %d: %w", i, running))
	case err != nil:
		c.stopErrs = append(c.stopErrs, fmt.Errorf("node %d: %w", i, err))
	}
	c.nodes[i] = nil
}

// stopAll snapshots every node before stopping any, so no snapshot
// shows a link dropped by the shutdown itself.
func (c *cluster) stopAll() {
	for _, n := range c.nodes {
		if n != nil {
			c.finals = append(c.finals, n.Status())
		}
	}
	for i := range c.nodes {
		c.halt(i)
	}
}

// restartNode boots a fresh incarnation of node i on its old address.
func (c *cluster) restartNode(i int) error {
	addr := c.topo.Nodes[i].Addr
	var (
		ln  net.Listener
		err error
	)
	for try := 0; try < 50; try++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("relisten node %d on %s: %w", i, addr, err)
	}
	n, err := remote.NewNode(c.config(i, ln))
	if err != nil {
		ln.Close()
		return err
	}
	c.obs.restarted(c.w.Placement[i], int64(time.Since(c.obs.t0)))
	c.obs.setStopping(c.w.Placement[i], false)
	if err := n.Start(); err != nil {
		return err
	}
	c.nodes[i] = n
	return nil
}

// peerRetransmits sums the retransmits every live node reports toward
// node target.
func (c *cluster) peerRetransmits(target int) uint64 {
	var total uint64
	for i, n := range c.nodes {
		if n == nil || i == target {
			continue
		}
		for _, p := range n.Status().Peers {
			if p.Node == target {
				total += p.Retransmits
			}
		}
	}
	return total
}

// crashRecord is one executed crash of the schedule (ns since t0).
type crashRecord struct {
	node             int
	stop, restart    int64
	retxSuspected    uint64 // retransmits toward the node while it was suspected
	retxStillGrowing bool
}

// remoteRun is everything one remote run measured.
type remoteRun struct {
	setups   []float64
	bounds   []boundary
	rssPeaks []float64
	obs      *observer
	cl       *cluster
	crashes  []crashRecord
	// lagged counts overlaps excused as reporting order; maxLag is the
	// longest such lag.
	lagged int
	maxLag time.Duration
	// tapWin holds the tap counters at the window's start and end
	// (traced runs only).
	tapWin [2]tapCounts
	// stopErrs gathers every set-up's and the run's errors raised while
	// a node stopped (see cluster.halt).
	stopErrs []error
}

// runRemoteOnce sets the cluster up remoteSetups times (setups reps
// when traced), runs warm-up and the measured window, and stops it.
func runRemoteOnce(w *Workload, in Inputs, window time.Duration, tap *tapStats, reps int) (*remoteRun, error) {
	run := &remoteRun{}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		obs := newObserver(w.Graph(), t0)
		if tap != nil {
			tap.t0 = t0
		}
		cl, err := newCluster(w, in, obs, tap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		select {
		case <-obs.allEaten:
			run.setups = append(run.setups, time.Since(t0).Seconds())
		case <-time.After(setupTimeout):
			cl.stopAll()
			return nil, gatef("set-up %d: not every process was granted within %v", rep, setupTimeout)
		}
		if rep < reps-1 {
			cl.stopAll()
			if err := errors.Join(cl.errs...); err != nil {
				return nil, gatef("set-up %d: %v", rep, err)
			}
			run.stopErrs = append(run.stopErrs, cl.stopErrs...)
			continue
		}
		run.obs, run.cl = obs, cl
	}
	obs, cl := run.obs, run.cl
	start := time.Since(obs.t0) + warmup
	end := start + window
	sleepUntil(obs.t0, start)
	var crashDone chan []crashRecord
	if w.Crash {
		crashDone = make(chan []crashRecord, 1)
		go func() { crashDone <- runCrashes(cl, obs.t0, start, end) }()
	}
	run.bounds, run.rssPeaks = measureWindow(obs.t0, start, window, func(k int) {
		if tap != nil && (k == 0 || k == subWindows) {
			run.tapWin[k/subWindows] = tap.counts()
		}
	})
	if crashDone != nil {
		run.crashes = <-crashDone
	}
	cl.stopAll()
	run.stopErrs = append(run.stopErrs, cl.stopErrs...)
	obs.finish()
	return run, nil
}

// crashCycleMin is the shortest crash cycle: down time plus enough
// service for the detector to trust the restarted node again.
const crashCycleMin = time.Second

// runCrashes executes the crash schedule over the window [start, end).
// Crash cycles tile the sub-windows — every sub-window holds the same
// whole number of cycles whenever a sub-window is at least
// crashCycleMin long — so each sub-window sees the same crash load and
// their medians stay comparable. In each cycle the scheduled node stops
// at the middle (plus its seeded delay), the neighbours' retransmits
// toward it are sampled once suspicion has parked them, and it restarts
// after its down time.
func runCrashes(cl *cluster, t0 time.Time, start, end time.Duration) []crashRecord {
	var out []crashRecord
	sub := (end - start) / subWindows
	cycle := sub
	if per := int(sub / crashCycleMin); per > 1 {
		cycle = sub / time.Duration(per)
	}
	if cycle < crashCycleMin {
		cycle = crashCycleMin
	}
	park := 2*cl.w.InitialTimeout + 2*cl.w.HeartbeatDelay
	for i := 0; ; i++ {
		step := cl.in.Crashes[i%len(cl.in.Crashes)]
		at := start + time.Duration(i)*cycle + cycle/2 + step.Delay
		if at+step.Down+50*time.Millisecond > end {
			return out
		}
		sleepUntil(t0, at)
		rec := crashRecord{node: step.Node, stop: int64(time.Since(t0))}
		cl.stopNode(step.Node)
		cl.obs.crashed(cl.w.Placement[step.Node], rec.stop)
		stop := time.Duration(rec.stop)
		sleepUntil(t0, stop+park)
		r1 := cl.peerRetransmits(step.Node)
		sleepUntil(t0, stop+(park+step.Down)/2)
		r2 := cl.peerRetransmits(step.Node)
		sleepUntil(t0, stop+step.Down)
		r3 := cl.peerRetransmits(step.Node)
		rec.retxSuspected = r3 - r1
		rec.retxStillGrowing = r2 > r1 && r3 > r2
		if err := cl.restartNode(step.Node); err != nil {
			cl.errs = append(cl.errs, err)
			return out
		}
		rec.restart = int64(time.Since(t0))
		out = append(out, rec)
	}
}

// runRemote is the end-to-end (tr == nil) or traced remote run.
func runRemote(w *Workload, in Inputs, window time.Duration, tr *tracer) (*result, error) {
	reps := remoteSetups
	var tap *tapStats
	if tr != nil {
		reps = 1
		if tr.traced {
			tap = newTapStats(time.Now())
			tr.tap = tap
		}
	}
	run, err := runRemoteOnce(w, in, window, tap, reps)
	if err != nil {
		return nil, err
	}
	if err := remoteGates(w, run); err != nil {
		return nil, err
	}
	res, err := remoteMetrics(w, run)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.remote = run
	}
	return res, nil
}

// remoteGates checks the run's correctness.
func remoteGates(w *Workload, run *remoteRun) error {
	cl, obs := run.cl, run.obs
	if err := errors.Join(cl.errs...); err != nil {
		return gatef("node error: %v", err)
	}
	if len(obs.fallen) > 0 {
		return gatef("processes fell over: %v", obs.fallen)
	}
	start, end := run.bounds[0].at, run.bounds[len(run.bounds)-1].at
	byProc := make([][]grant, w.Graph().N())
	for _, g := range obs.grants {
		byProc[g.proc] = append(byProc[g.proc], g)
	}
	for _, v := range obs.excl.Violations() {
		at := time.Duration(v.At)
		if at < start {
			continue // before the detector stabilised (set-up, warm-up)
		}
		excused, lag := reportingLag(byProc, v)
		if excused {
			run.lagged++
			if lag > run.maxLag {
				run.maxLag = lag
			}
		}
		for _, c := range run.crashes {
			r := time.Duration(c.restart)
			if !excused && at >= r && at < r+restartSettle {
				excused = true
			}
		}
		if !excused {
			return gatef("exclusion violation: neighbours %d and %d ate together at %v", v.A, v.B, at)
		}
	}
	ate := make([]bool, w.Graph().N())
	for _, g := range obs.grants {
		if e := time.Duration(g.e); e >= start && e < end {
			ate[g.proc] = true
		}
	}
	for p, ok := range ate {
		if !ok {
			return gatef("process %d never ate in the measured window", p)
		}
	}
	for _, c := range run.crashes {
		if c.retxStillGrowing {
			return gatef("quiescence: retransmits toward crashed node %d kept growing while it was suspected", c.node)
		}
	}
	return nil
}

// remoteMetrics computes the end-to-end metrics of a remote run.
func remoteMetrics(w *Workload, run *remoteRun) (*result, error) {
	obs := run.obs
	res := &result{}
	var ws windowStats
	var all []float64
	start, end := run.bounds[0].at, run.bounds[len(run.bounds)-1].at
	for k := 0; k < subWindows; k++ {
		from, to := run.bounds[k], run.bounds[k+1]
		var lats []float64
		for _, g := range obs.grants {
			if e := time.Duration(g.e); e >= from.at && e < to.at {
				lat := float64(g.e-g.h) / 1e6
				lats = append(lats, lat)
				if lat > grantDeadline.Seconds()*1000 {
					res.failed++
				}
			}
		}
		if err := ws.addWindow(lats, from, to); err != nil {
			return nil, err
		}
		all = append(all, lats...)
	}
	res.attempted = len(all)
	// Sessions still waiting at the end of the window were attempted;
	// past the deadline they failed.
	for _, pl := range obs.procs {
		if h := pl.hungrySince; h != 0 && time.Duration(h) < end {
			res.attempted++
			if end-time.Duration(h) > grantDeadline {
				res.failed++
			}
		}
	}
	ws.report(res, all, run.setups, run.rssPeaks)
	res.notes = append(res.notes, fmt.Sprintf(
		"exclusion gate: %d neighbour overlaps excused as exit reported late (longest %v, limit %v)",
		run.lagged, run.maxLag, exitLag))
	if len(run.stopErrs) > 0 {
		res.notes = append(res.notes, fmt.Sprintf(
			"known defect, not gated: %d node stops recorded a protocol error raised during Node.Stop (a dropped in-flight post), first: %v",
			len(run.stopErrs), run.stopErrs[0]))
	}
	if w.Crash {
		gaps := crashGaps(w, run, start)
		d := Summarize(gaps)
		res.add("crash_gap_ms", "ms", d.P50, d.N,
			"per crash, the longest hungry wait of a live neighbour spanning it; median over crashes")
	}
	return res, nil
}

// crashGaps returns, per crash inside the window, the longest wait (ms)
// of a neighbouring process whose hungry session spans the crash.
func crashGaps(w *Workload, run *remoteRun, start time.Duration) []float64 {
	g := w.Graph()
	var gaps []float64
	for _, c := range run.crashes {
		if time.Duration(c.stop) < start {
			continue
		}
		victims := map[int]bool{}
		for _, p := range w.Placement[c.node] {
			victims[p] = true
		}
		nbr := map[int]bool{}
		for p := range victims {
			for _, q := range g.Neighbors(p) {
				if !victims[q] {
					nbr[q] = true
				}
			}
		}
		longest := -1.0
		for _, s := range run.obs.grants {
			if nbr[int(s.proc)] && s.h <= c.stop && s.e > c.stop {
				if d := float64(s.e-s.h) / 1e6; d > longest {
					longest = d
				}
			}
		}
		if longest >= 0 {
			gaps = append(gaps, longest)
		}
	}
	sort.Float64s(gaps)
	return gaps
}
