package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/wire"
)

// perLayerNames are the traced run's metrics as BENCHMARK.json lists
// them. A layer the workload does not drive reads 0 (no TCP on
// clique6-local and dsvc-http, no HTTP on the remote workloads, no
// restarts outside ring5-crash).
var perLayerNames = []string{
	"core.step_ns", "core.allocs_per_step", "core.msgs_per_session",
	"remote.data_frames_per_session", "remote.acks_per_data_frame", "remote.heartbeat_frames_per_s",
	"remote.retransmits_per_ksession", "remote.dup_suppressed_per_ksession", "remote.coalesced_per_ksession",
	"remote.stalls", "remote.max_pair_depth", "remote.max_edge_occupancy",
	"remote.false_suspicions", "remote.rejoin_ms_p50", "remote.reconnects", "remote.retransmits_while_suspected",
	"tcp.writes_per_session", "tcp.reads_per_session", "tcp.bytes_per_session", "tcp.frames_per_write",
	"wire.decode_ns_per_frame", "wire.encode_ns_per_frame", "wire.bytes_per_frame",
	"dsvcd.handler_us_p50.acquire", "dsvcd.handler_us_p99.acquire",
	"dsvcd.handler_us_p50.release", "dsvcd.handler_us_p99.release",
	"dsvcd.handler_us_p50.status", "dsvcd.handler_us_p50.edge",
	"dsvcd.client_overhead_us_p50", "dsvcd.longpoll_share", "dsvcd.status_bytes",
	"dsvc.acquire_us", "dsvc.release_us", "dsvc.pump_us_per_session", "dsvc.msgs_per_session",
	"dsvc.queue_highwater", "dsvc.change_us", "dsvc.status_us",
	"graph.recolored_per_change", "graph.plan_us",
	"go.alloc_bytes_per_session", "go.gc_cycles_per_ksession", "go.sched_latency_p99_us", "go.goroutines",
	"trace.overhead_sessions_pct", "trace.overhead_p50_pct",
}

// tracer collects what one phase of a traced run observed. With traced
// false it only keeps the run's raw data (the untraced phase).
type tracer struct {
	traced bool
	tap    *tapStats
	http   *httpTracer
	remote *remoteRun
	dsvc   *dsvcRun
}

// runTraced runs the workload twice for half the window each: first
// untraced (the overhead baseline and the Go runtime figures), then with
// the TCP tap, the dsvcd timing middleware and span recording on. It
// then replays what it captured through the core, wire, dsvc and graph
// layers, writes the span file, and reports every per-layer metric.
func runTraced(w *Workload, in Inputs, window time.Duration, spansPath string) (*result, error) {
	half := window / 2
	plain := &tracer{}
	res0, err := runWorkload(w, in, half, plain)
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	tr := &tracer{traced: true}
	res1, err := runWorkload(w, in, half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	res := &result{attempted: res1.attempted, failed: res1.failed}
	lw := &layerWriter{result: res}

	cr, err := replayCore(workloadGraph(w, in))
	if err != nil {
		return nil, err
	}
	lw.add("core.step_ns", "ns", float64(cr.ns)/float64(cr.steps), cr.steps, "bare core.Diner replay of the workload graph, FIFO router")
	lw.add("core.allocs_per_step", "count", float64(cr.allocs)/float64(cr.steps), cr.steps, "")
	lw.add("core.msgs_per_session", "count", float64(cr.msgs)/float64(cr.sessions), cr.sessions, "")
	lw.spans = append(lw.spans, replaySpan{Layer: "core", Op: "Diner step", Calls: cr.steps, Ns: cr.ns})

	remoteLayers(lw, w, tr.remote, tr.tap)
	if err := dsvcLayers(lw, in, tr); err != nil {
		return nil, err
	}
	goLayers(lw, plain)

	s0, _ := res0.get("sessions_per_s")
	s1, _ := res1.get("sessions_per_s")
	p0, _ := res0.get("grant_p50_ms")
	p1, _ := res1.get("grant_p50_ms")
	lw.add("trace.overhead_sessions_pct", "%", 100*(s0.Value-s1.Value)/s0.Value, s1.N,
		fmt.Sprintf("untraced %.6g vs traced %.6g sessions/s over %v each", s0.Value, s1.Value, half))
	lw.add("trace.overhead_p50_pct", "%", 100*(p1.Value-p0.Value)/p0.Value, p1.N,
		fmt.Sprintf("untraced %.6g vs traced %.6g ms grant p50", p0.Value, p1.Value))
	lw.selfTime(w, res0, tr)

	if err := writeSpans(spansPath, w, tr, lw.spans); err != nil {
		return nil, err
	}
	for _, n := range res0.notes {
		res.notes = append(res.notes, "untraced phase: "+n)
	}
	for _, n := range res1.notes {
		res.notes = append(res.notes, "traced phase: "+n)
	}
	res.notes = append(res.notes, "spans written to "+spansPath)
	res.notes = append(res.notes, "deferred to in-program tracing: tcp.transit_us_p50/p99 (writev bypasses the tap, so a frame's write instant is not visible from outside)")
	return res, nil
}

// workloadGraph is the workload's conflict graph: the remote topology,
// or the dsvc-http graph over resource vertices.
func workloadGraph(w *Workload, in Inputs) *graph.Graph {
	if w.Kind != kindDsvc {
		return w.Graph()
	}
	g := graph.New(in.Resources)
	for _, e := range in.Edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// layerWriter accumulates per-layer metrics and replay spans.
type layerWriter struct {
	*result
	spans []replaySpan
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// remoteLayers reports the remote, detector, tcp and wire layers of a
// remote run (run nil: the workload has no remote layer).
func remoteLayers(lw *layerWriter, w *Workload, run *remoteRun, tap *tapStats) {
	var (
		sessions, total float64
		win             tapCounts
		secs            float64
		st              struct {
			retx, dup, coal, stalls, connects, peers, suspects uint64
			depth, occ                                         int
		}
		rejoin    []float64
		retxSusp  uint64
		expectSus uint64
		crashes   int
	)
	if run != nil {
		first, last := run.bounds[0], run.bounds[len(run.bounds)-1]
		secs = (last.at - first.at).Seconds()
		for _, g := range run.obs.grants {
			if e := time.Duration(g.e); e >= first.at && e < last.at {
				sessions++
			}
		}
		total = float64(len(run.obs.grants))
		win = run.tapWin[1].sub(run.tapWin[0])
		for _, s := range run.cl.finals {
			if s.MaxEdgeOccupancy > st.occ {
				st.occ = s.MaxEdgeOccupancy
			}
			for _, p := range s.Peers {
				st.retx += p.Retransmits
				st.dup += p.DupSuppressed
				st.coal += p.Coalesced
				st.stalls += p.Stalls
				st.connects += p.Connects
				st.peers++
				for k, v := range p.HealthSteps {
					if k == "healthy->suspect" || k == "degraded->suspect" || k == "healthy->down" || k == "degraded->down" {
						st.suspects += v
					}
				}
				for _, pr := range p.Pairs {
					if pr.PeakDepth > st.depth {
						st.depth = pr.PeakDepth
					}
				}
			}
		}
		topo := run.cl.topo
		crashes = len(run.crashes)
		for _, c := range run.crashes {
			expectSus += uint64(len(topo.PeersOf(c.node)))
			retxSusp += c.retxSuspected
			procs := map[int32]bool{}
			for _, p := range w.Placement[c.node] {
				procs[int32(p)] = true
			}
			for _, g := range run.obs.grants {
				if procs[g.proc] && g.e > c.restart {
					rejoin = append(rejoin, float64(g.e-c.restart)/1e6)
					break
				}
			}
		}
	}
	data := float64(win.frames[wire.Data])
	lw.add("remote.data_frames_per_session", "count", ratio(data, sessions), int(sessions), "tap-decoded data frames in the window")
	lw.add("remote.acks_per_data_frame", "count", ratio(float64(win.frames[wire.Ack]), data), int(data), "pure ack frames per data frame")
	lw.add("remote.heartbeat_frames_per_s", "1/s", ratio(float64(win.frames[wire.Heartbeat]), secs), int(win.frames[wire.Heartbeat]), "")
	lw.add("remote.retransmits_per_ksession", "count", 1000*ratio(float64(st.retx), total), int(total), "Status().Peers over every node instance, whole run")
	lw.add("remote.dup_suppressed_per_ksession", "count", 1000*ratio(float64(st.dup), total), int(total), "")
	lw.add("remote.coalesced_per_ksession", "count", 1000*ratio(float64(st.coal), total), int(total), "")
	lw.add("remote.stalls", "count", float64(st.stalls), int(st.peers), "backpressure stall episodes")
	lw.add("remote.max_pair_depth", "count", float64(st.depth), int(st.peers), "highest ARQ ring depth of any ordered pair")
	lw.add("remote.max_edge_occupancy", "count", float64(st.occ), int(st.peers), "per-edge in-transit high-water mark")
	falseSus := 0.0
	if st.suspects > expectSus {
		falseSus = float64(st.suspects - expectSus)
	}
	lw.add("remote.false_suspicions", "count", falseSus, int(st.suspects),
		fmt.Sprintf("links entering suspect/down (HealthSteps) beyond the %d the crashes explain", expectSus))
	lw.add("remote.rejoin_ms_p50", "ms", Median(rejoin), len(rejoin), "restart until the restarted process first eats")
	reconnects := 0.0
	if st.connects > st.peers {
		reconnects = float64(st.connects - st.peers)
	}
	lw.add("remote.reconnects", "count", reconnects, int(st.peers), "connections beyond one per link of each node instance")
	lw.add("remote.retransmits_while_suspected", "count", float64(retxSusp), crashes, "toward a crashed node, from suspicion until its restart")

	frames := float64(win.frames[wire.Data] + win.frames[wire.Ack] + win.frames[wire.Heartbeat] + win.frames[wire.Hello])
	lw.add("tcp.writes_per_session", "count", ratio(float64(win.flushes+win.writes), sessions), int(sessions), "writev flushes plus plain writes")
	lw.add("tcp.reads_per_session", "count", ratio(float64(win.reads), sessions), int(sessions), "")
	lw.add("tcp.bytes_per_session", "B", ratio(float64(win.bytes), sessions), int(sessions), "")
	lw.add("tcp.frames_per_write", "count", ratio(frames, float64(win.flushes+win.writes)), int(win.flushes+win.writes), "")

	var wr wireReplay
	if tap != nil {
		wr = *replayWire(tap.captures())
	}
	lw.add("wire.decode_ns_per_frame", "ns", wr.decodeNsPer, wr.frames, "wire.Decoder over the captured read streams")
	lw.add("wire.encode_ns_per_frame", "ns", wr.encodeNsPer, wr.frames, "wire.AppendFrame of the captured frames")
	lw.add("wire.bytes_per_frame", "B", ratio(float64(wr.bytes), float64(wr.frames)), wr.frames, "")
	if wr.frames > 0 {
		lw.spans = append(lw.spans,
			replaySpan{Layer: "wire", Op: "Decoder.Next", Calls: wr.frames, Ns: int64(wr.decodeNsPer * float64(wr.frames))},
			replaySpan{Layer: "wire", Op: "AppendFrame", Calls: wr.frames, Ns: int64(wr.encodeNsPer * float64(wr.frames))})
	}
}

// dsvcLayers reports the dsvcd, dsvc and graph layers (all 0 unless the
// traced phase ran the HTTP service).
func dsvcLayers(lw *layerWriter, in Inputs, tr *tracer) error {
	var (
		rp      = &dsvcReplay{}
		byRoute = map[string][]float64{}
		over    []float64
		sizes   []float64
	)
	if tr.http != nil {
		var err error
		if rp, err = replayDsvc(in, tr.http.ops); err != nil {
			return err
		}
		lw.spans = append(lw.spans, rp.spans...)
		ht := tr.http
		for i := range ht.spans {
			s := &ht.spans[i]
			h, ok := ht.handler[s.ID]
			if !ok {
				continue
			}
			s.HandlerStart, s.HandlerNs = h[0], h[1]
			byRoute[s.Route] = append(byRoute[s.Route], float64(h[1])/1e3)
			over = append(over, float64(s.End-s.Start-h[1])/1e3)
		}
		for _, n := range tr.dsvc.sizes {
			sizes = append(sizes, float64(n))
		}
	}
	for _, route := range []string{"acquire", "release"} {
		d := Summarize(byRoute[route])
		lw.add("dsvcd.handler_us_p50."+route, "us", d.P50, d.N, "timing middleware around Service.Handler()")
		p99, err := P99(byRoute[route])
		if err != nil && tr.http != nil {
			return fmt.Errorf("dsvcd %s handler: %w", route, err)
		}
		lw.add("dsvcd.handler_us_p99."+route, "us", p99, d.N, "")
	}
	for _, route := range []string{"status", "edge"} {
		d := Summarize(byRoute[route])
		lw.add("dsvcd.handler_us_p50."+route, "us", d.P50, d.N, "tail: "+d.String())
	}
	lw.add("dsvcd.client_overhead_us_p50", "us", Median(over), len(over), "client span minus handler span, same request")
	longpoll := 0.0
	if rp.acquires > 0 {
		longpoll = 1 - float64(rp.immediate)/float64(rp.acquires)
	}
	lw.add("dsvcd.longpoll_share", "count", longpoll, rp.acquires,
		"acquires not granted inside the acquire command (replayed), so they long-poll")
	lw.add("dsvcd.status_bytes", "B", Median(sizes), len(sizes), "/v1/status body while a change drains")

	lw.add("dsvc.acquire_us", "us", Median(rp.acquireUs), len(rp.acquireUs), "op log replayed on a bare dsvc.Engine")
	lw.add("dsvc.release_us", "us", Median(rp.releaseUs), len(rp.releaseUs), "")
	lw.add("dsvc.pump_us_per_session", "us", ratio(float64(rp.pumpNs)/1e3, float64(rp.acquires)), rp.acquires, "PumpAll after every call")
	lw.add("dsvc.msgs_per_session", "count", ratio(float64(rp.delivered), float64(rp.acquires)), rp.acquires, "Delivered()")
	lw.add("dsvc.queue_highwater", "count", float64(rp.queueHW), rp.acquires, "QueueHighWater()")
	lw.add("dsvc.change_us", "us", Median(rp.changeUs), len(rp.changeUs), "AddEdge/RemoveEdge call")
	lw.add("dsvc.status_us", "us", Median(rp.statusUs), len(rp.statusUs), "Status() every 100 ops")
	mean := 0.0
	for _, v := range rp.recolored {
		mean += v
	}
	lw.add("graph.recolored_per_change", "count", ratio(mean, float64(len(rp.recolored))), len(rp.recolored), "Colors() diff around each commit")
	lw.add("graph.plan_us", "us", Median(rp.planUs), len(rp.planUs), "PlanAddEdge/PlanRemoveEdge on a mirror graph")
	return nil
}

// goLayers reports Go runtime figures from the untraced phase.
func goLayers(lw *layerWriter, plain *tracer) {
	var bounds []boundary
	sessions := 0.0
	switch {
	case plain.remote != nil:
		bounds = plain.remote.bounds
		first, last := bounds[0], bounds[len(bounds)-1]
		for _, g := range plain.remote.obs.grants {
			if e := time.Duration(g.e); e >= first.at && e < last.at {
				sessions++
			}
		}
	case plain.dsvc != nil:
		bounds = plain.dsvc.bounds
		first, last := bounds[0], bounds[len(bounds)-1]
		for _, ss := range plain.dsvc.samples {
			for _, s := range ss {
				if e := time.Duration(s.e); s.granted && e >= first.at && e < last.at {
					sessions++
				}
			}
		}
	}
	a, b := bounds[0].rt, bounds[len(bounds)-1].rt
	n := int(sessions)
	lw.add("go.alloc_bytes_per_session", "B", ratio(float64(b.allocBytes-a.allocBytes), sessions), n, "runtime/metrics, untraced phase")
	lw.add("go.gc_cycles_per_ksession", "count", 1000*ratio(float64(b.gcCycles-a.gcCycles), sessions), n, "")
	lw.add("go.sched_latency_p99_us", "us", schedP99(a, b)*1e6, n, "runnable-to-running wait, interpolated in its histogram bucket")
	lw.add("go.goroutines", "count", float64(b.goroutines), 1, "at the end of the window")
}

// selfTime prints where a session's time goes, from the spans and
// replays: for remote workloads the CPU each layer's calls cost per
// session against the measured CPU per session; for dsvc-http the
// client and handler self time of the acquire request.
func (lw *layerWriter) selfTime(w *Workload, untraced *result, tr *tracer) {
	get := func(name string) float64 {
		m, _ := lw.get(name)
		return m.Value
	}
	res := lw.result
	switch w.Kind {
	case kindRemote:
		cpu, _ := untraced.get("cpu_us_per_session")
		steps := get("core.msgs_per_session") + 3 // deliveries plus hungry, eat-exit, re-hungry
		coreUs := get("core.step_ns") * steps / 1e3
		frames := get("remote.data_frames_per_session") * (1 + get("remote.acks_per_data_frame"))
		wireUs := frames * (get("wire.decode_ns_per_frame") + get("wire.encode_ns_per_frame")) / 1e3
		res.notes = append(res.notes, fmt.Sprintf(
			"self time per session (CPU µs): core %.3g, wire %.3g, everything else (ARQ, mailboxes, timers, syscalls, scheduler, observer) %.3g, of %.4g measured untraced",
			coreUs, wireUs, cpu.Value-coreUs-wireUs, cpu.Value))
	case kindDsvc:
		var client, handler []float64
		for _, s := range tr.http.spans {
			if s.Route == "acquire" && s.HandlerNs > 0 {
				client = append(client, float64(s.End-s.Start)/1e3)
				handler = append(handler, float64(s.HandlerNs)/1e3)
			}
		}
		engine := get("dsvc.acquire_us") + get("dsvc.pump_us_per_session")
		res.notes = append(res.notes, fmt.Sprintf(
			"acquire critical path (µs, medians): client span %.4g = client+HTTP self %.4g + handler %.4g (engine calls %.3g, mailbox, JSON and long-poll wait %.4g)",
			Median(client), Median(client)-Median(handler), Median(handler), engine, Median(handler)-engine))
	}
}

// writeSpans writes the traced phase's spans as JSON lines.
func writeSpans(path string, w *Workload, tr *tracer, replay []replaySpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	put := func(v any) {
		if err == nil {
			err = enc.Encode(v)
		}
	}
	put(map[string]any{"type": "run", "workload": w.Name})
	if run := tr.remote; run != nil {
		grants := run.obs.grants
		if len(grants) > maxSessionSpans {
			grants = grants[:maxSessionSpans]
		}
		for _, g := range grants {
			put(map[string]any{"type": "session", "proc": g.proc, "n": g.index, "hungry_ns": g.h, "eat_ns": g.e, "exit_ns": g.x})
		}
		frames := tr.tap.frameSpans()
		sort.Slice(frames, func(i, j int) bool { return frames[i].At < frames[j].At })
		for _, s := range frames {
			put(map[string]any{"type": "frame", "kind": s.Kind.String(), "from": s.From, "to": s.To, "seq": s.Seq, "read_ns": int64(s.At)})
		}
	}
	if tr.http != nil {
		spans := tr.http.spans
		if len(spans) > maxSessionSpans {
			spans = spans[:maxSessionSpans]
		}
		for _, s := range spans {
			put(map[string]any{"type": "http", "id": s.ID, "route": s.Route, "client_start_ns": s.Start, "client_end_ns": s.End,
				"handler_start_ns": s.HandlerStart, "handler_ns": s.HandlerNs})
		}
	}
	for _, s := range replay {
		put(map[string]any{"type": "replay", "layer": s.Layer, "op": s.Op, "calls": s.Calls, "ns": s.Ns})
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// maxSessionSpans caps session and HTTP spans in the span file.
const maxSessionSpans = 100000
