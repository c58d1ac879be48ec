package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dsvc"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/wire"
)

// replayBudget bounds each time-boxed replay loop.
const replayBudget = 300 * time.Millisecond

// replaySpan is one timed call batch of a replay, for the span file.
type replaySpan struct {
	Layer string
	Op    string
	Calls int
	Ns    int64
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// coreReplay is the result of driving the workload's conflict graph
// with bare core.Diners.
type coreReplay struct {
	steps, sessions, msgs int
	ns                    int64
	allocs                uint64
}

// replayCore runs every process of g as a closed loop — hungry, eat,
// exit, hungry again — with a single-goroutine FIFO router and no
// failure detector. Eating lasts until the exit event queued at the
// grant reaches the head of the queue, so neighbours act meanwhile and
// the exact exclusion check below has teeth: unlike the Observer of a
// live run, the router sees every transition in the order it happened.
func replayCore(g *graph.Graph) (*coreReplay, error) {
	colors := g.GreedyColoring()
	n := g.N()
	diners := make([]*core.Diner, n)
	for i := 0; i < n; i++ {
		nc := make(map[int]int)
		for _, j := range g.Neighbors(i) {
			nc[j] = colors[j]
		}
		d, err := core.NewDiner(core.Config{ID: i, Color: colors[i], NeighborColors: nc})
		if err != nil {
			return nil, err
		}
		diners[i] = d
	}
	type event struct {
		msg  core.Message
		exit int // process to exit eating, or -1
	}
	queue := make([]event, 0, 1024)
	r := &coreReplay{}
	var violation error
	push := func(p int, out []core.Message) {
		r.steps++
		for _, m := range out {
			queue = append(queue, event{msg: m, exit: -1})
		}
		if diners[p].State() == core.Eating {
			r.sessions++
			for _, j := range g.Neighbors(p) {
				if diners[j].State() == core.Eating && violation == nil {
					violation = fmt.Errorf("core replay: neighbours %d and %d eating together", p, j)
				}
			}
			queue = append(queue, event{exit: p})
		}
	}
	a0 := heapObjects()
	start := time.Now()
	for i, d := range diners {
		push(i, d.BecomeHungry())
	}
	for head := 0; head < len(queue); head++ {
		if head&1023 == 0 && time.Since(start) > replayBudget {
			break
		}
		ev := queue[head]
		if ev.exit >= 0 {
			push(ev.exit, diners[ev.exit].ExitEating())
			push(ev.exit, diners[ev.exit].BecomeHungry())
			continue
		}
		r.msgs++
		push(ev.msg.To, diners[ev.msg.To].Deliver(ev.msg))
		if head > 1<<16 {
			queue = append(queue[:0], queue[head+1:]...)
			head = -1
		}
	}
	r.ns = int64(time.Since(start))
	r.allocs = heapObjects() - a0
	for _, d := range diners {
		if err := d.Err(); err != nil {
			return nil, gatef("core replay: process %d: %v", d.ID(), err)
		}
	}
	if violation != nil {
		return nil, gatef("%v", violation)
	}
	if r.sessions == 0 {
		return nil, gatef("core replay: no process ever ate")
	}
	return r, nil
}

// wireReplay is the result of decoding and re-encoding the bytes the
// tap captured.
type wireReplay struct {
	frames, bytes            int
	decodeNsPer, encodeNsPer float64
}

// replayWire decodes every captured stream with wire.Decoder and
// re-encodes its frames with wire.AppendFrame, repeating until the
// budget is spent. A stream's truncated last frame is not counted.
func replayWire(captures [][]byte) *wireReplay {
	var frames []wire.Frame
	total := 0
	var fr wire.Frame
	for _, c := range captures {
		dec := wire.NewDecoder(bytes.NewReader(c))
		for dec.Next(&fr) == nil {
			frames = append(frames, fr.Clone())
			total += wire.FrameSize(fr)
		}
	}
	r := &wireReplay{}
	if len(frames) == 0 {
		return r
	}
	start := time.Now()
	for time.Since(start) < replayBudget/2 {
		for _, c := range captures {
			dec := wire.NewDecoder(bytes.NewReader(c))
			for dec.Next(&fr) == nil {
				r.frames++
			}
		}
	}
	decodeNs := time.Since(start)
	decoded := r.frames
	buf := make([]byte, 0, 4+wire.MaxPayload)
	start = time.Now()
	encoded := 0
	for time.Since(start) < replayBudget/2 {
		for _, f := range frames {
			buf, _ = wire.AppendFrame(buf[:0], f)
			encoded++
		}
	}
	r.decodeNsPer = float64(decodeNs) / float64(decoded)
	r.encodeNsPer = float64(time.Since(start)) / float64(encoded)
	r.frames, r.bytes = len(frames), total
	return r
}

// dsvcReplay is the result of replaying a dsvc-http op log on a bare
// dsvc.Engine.
type dsvcReplay struct {
	acquireUs, releaseUs, changeUs, statusUs, planUs []float64
	pumpNs                                           int64
	acquires, immediate                              int
	delivered, queueHW                               int
	recolored                                        []float64
	spans                                            []replaySpan
}

// replayDsvc replays the recorded client calls in send order on a fresh
// engine, pumping to quiescence after each as dsvcd's mailbox does, and
// times each engine call. Colours are diffed around every committed
// change (graph layer) and the recolouring plan is re-timed on a mirror
// of the committed graph.
func replayDsvc(in Inputs, ops []dsvcOp) (*dsvcReplay, error) {
	ops = append([]dsvcOp(nil), ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	e := dsvc.NewEngine(dsvc.Limits{})
	mirror := graph.New(in.Resources)
	for r := 0; r < in.Resources; r++ {
		if _, err := e.Register(resName(r), "bench"); err != nil {
			return nil, err
		}
	}
	for _, ed := range in.Edges {
		if err := e.AddEdge(resName(ed[0]), resName(ed[1])); err != nil {
			return nil, err
		}
		e.PumpAll()
		mirror.MustAddEdge(ed[0], ed[1])
	}
	r := &dsvcReplay{}
	timed := func(f func()) float64 {
		t := time.Now()
		f()
		return float64(time.Since(t).Nanoseconds()) / 1e3
	}
	pump := func() {
		t := time.Now()
		e.PumpAll()
		r.pumpNs += int64(time.Since(t))
	}
	live := make(map[string]string) // live session ID -> replay session ID
	var pendingColors []int
	var lastMs int64
	for i, op := range ops {
		if ms := op.at / 1e6; ms > lastMs {
			e.Advance(sim.Time(ms - lastMs))
			lastMs = ms
		}
		var err error
		switch op.kind {
		case opAcquire:
			names := make([]string, len(op.set))
			for k, v := range op.set {
				names[k] = resName(v)
			}
			var s *dsvc.Session
			r.acquireUs = append(r.acquireUs, timed(func() { s, err = e.Acquire(fmt.Sprintf("c%d", op.client), names) }))
			if err != nil {
				return nil, fmt.Errorf("replay acquire %v: %w", names, err)
			}
			r.acquires++
			if s.State() == dsvc.SessionGranted {
				r.immediate++
			}
			live[op.sess] = s.ID()
		case opRelease:
			id, ok := live[op.sess]
			if !ok {
				continue
			}
			delete(live, op.sess)
			r.releaseUs = append(r.releaseUs, timed(func() { err = e.Release(id) }))
			if err != nil {
				return nil, fmt.Errorf("replay release %s: %w", id, err)
			}
		case opChange:
			colors := e.Colors()
			a, b := op.pair[0], op.pair[1]
			r.planUs = append(r.planUs, timed(func() {
				if op.add {
					mirror.PlanAddEdge(colors, a, b)
				} else {
					mirror.PlanRemoveEdge(colors, a, b)
				}
			}))
			if op.add {
				err = mirror.AddEdge(a, b)
			} else {
				err = mirror.RemoveEdge(a, b)
			}
			if err != nil {
				return nil, fmt.Errorf("replay mirror graph: %w", err)
			}
			if pendingColors == nil {
				pendingColors = colors
			}
			r.changeUs = append(r.changeUs, timed(func() {
				if op.add {
					err = e.AddEdge(resName(a), resName(b))
				} else {
					err = e.RemoveEdge(resName(a), resName(b))
				}
			}))
			if err != nil {
				return nil, fmt.Errorf("replay change %v: %w", op.pair, err)
			}
		}
		pump()
		if pendingColors != nil && e.PendingChanges() == 0 {
			now := e.Colors()
			moved := 0
			for v := range now {
				if v < len(pendingColors) && now[v] != pendingColors[v] {
					moved++
				}
			}
			r.recolored = append(r.recolored, float64(moved))
			pendingColors = nil
		}
		if i%100 == 0 {
			r.statusUs = append(r.statusUs, timed(func() { e.Status() }))
		}
	}
	if err := e.CheckInvariants(); err != nil {
		return nil, gatef("dsvc replay: %v", err)
	}
	r.delivered, r.queueHW = e.Delivered(), e.QueueHighWater()
	r.spans = []replaySpan{
		{Layer: "dsvc", Op: "Acquire", Calls: len(r.acquireUs), Ns: sumUsNs(r.acquireUs)},
		{Layer: "dsvc", Op: "Release", Calls: len(r.releaseUs), Ns: sumUsNs(r.releaseUs)},
		{Layer: "dsvc", Op: "PumpAll", Calls: len(ops), Ns: r.pumpNs},
		{Layer: "dsvc", Op: "AddEdge/RemoveEdge", Calls: len(r.changeUs), Ns: sumUsNs(r.changeUs)},
		{Layer: "dsvc", Op: "Status", Calls: len(r.statusUs), Ns: sumUsNs(r.statusUs)},
		{Layer: "graph", Op: "PlanAddEdge/PlanRemoveEdge", Calls: len(r.planUs), Ns: sumUsNs(r.planUs)},
	}
	return r, nil
}

func sumUsNs(us []float64) int64 {
	var t float64
	for _, u := range us {
		t += u
	}
	return int64(t * 1e3)
}
