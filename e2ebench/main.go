// Command e2ebench is the repository's end-to-end benchmark. It drives
// the dining daemon only through its public entry points — remote.Node
// over loopback TCP (or one node with no peers), and dsvcd's HTTP API
// behind a loopback http.Server — measures what a user of the system
// sees, checks correctness gates, and in a separate traced run times
// the calls into each layer from outside the program.
//
//	e2ebench --workload ring5-tcp --seed 1 --seconds 20 --trace 0
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A tripped correctness gate prints its cause to standard
// error and exits 1 without a result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/graph"
)

type wkind int

const (
	kindRemote wkind = iota + 1
	kindDsvc
)

// Workload is one benchmark input shape. Every workload is a closed
// loop over loopback with no injected delay.
type Workload struct {
	Name string
	Kind wkind
	Why  string

	// Remote workloads: conflict graph, process placement per node,
	// detector and redial settings (zero = remote's defaults), crash
	// schedule.
	Graph          func() *graph.Graph
	Placement      [][]int
	Crash          bool
	HeartbeatDelay time.Duration
	InitialTimeout time.Duration
	DialBackoffMax time.Duration
}

var workloads = []*Workload{
	{
		Name:      "ring5-tcp",
		Kind:      kindRemote,
		Why:       "every dining message crosses ARQ, encode, writev, decode and the manager mailbox",
		Graph:     func() *graph.Graph { return graph.Ring(5) },
		Placement: [][]int{{0}, {1}, {2}, {3}, {4}},
	},
	{
		Name:      "clique6-local",
		Kind:      kindRemote,
		Why:       "all processes on one node: direct inbox posts, no wire/ARQ/TCP work; the transport control",
		Graph:     func() *graph.Graph { return graph.Clique(6) },
		Placement: [][]int{{0, 1, 2, 3, 4, 5}},
	},
	{
		Name:           "ring5-crash",
		Kind:           kindRemote,
		Why:            "rotating node crashes and restarts: suspicion, retransmit parking, reconnect, edge resets",
		Graph:          func() *graph.Graph { return graph.Ring(5) },
		Placement:      [][]int{{0}, {1}, {2}, {3}, {4}},
		Crash:          true,
		HeartbeatDelay: 10 * time.Millisecond,
		InitialTimeout: 100 * time.Millisecond,
		// The redial cap bounds how long a link to a restarted node
		// stays down (rejoin is otherwise 1–84+ ms, set by where the
		// backoff stood at restart), so every crash cycle costs alike.
		DialBackoffMax: 40 * time.Millisecond,
	},
	{
		Name: "dsvc-http",
		Kind: kindDsvc,
		Why:  "the only path through dsvcd, JSON, the service mailbox, the dsvc engine and graph recolouring",
	},
}

func findWorkload(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Metric names as BENCHMARK.json lists them; the result line carries
// exactly one of these two sets.
var endToEndNames = []string{
	"sessions_per_s", "grant_p50_ms", "grant_p99_ms",
	"cpu_us_per_session", "mem_peak_mb", "setup_s",
}

// metric is one reported figure. N is its sample count; Note says how
// it was formed.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *result) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// gateError is a tripped correctness gate.
type gateError struct{ cause string }

func (e *gateError) Error() string { return "correctness gate: " + e.cause }

func gatef(format string, args ...any) error {
	return &gateError{cause: fmt.Sprintf(format, args...)}
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadList())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spans := flag.String("spans", "", "span file of the traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadList()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace))
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.Name, *seed))
	}
	in := GenInputs(w, *seed)
	window := time.Duration(*seconds * float64(time.Second))

	var (
		res  *result
		want []string
		err  error
	)
	fmt.Printf("workload %s seed %d window %v trace %d: %s\n", w.Name, *seed, window, *trace, w.Why)
	if *trace == 0 {
		if res, err = runWorkload(w, in, window, nil); err == nil {
			err = checkCore(w, in, res)
		}
		want = endToEndNames
	} else {
		res, err = runTraced(w, in, window, *spans)
		want = perLayerNames
	}
	if err != nil {
		fatal(err)
	}
	printHuman(res)
	if err := printResult(res, want); err != nil {
		fatal(err)
	}
}

// runWorkload performs one measured run; tr is nil for the untraced
// end-to-end run.
func runWorkload(w *Workload, in Inputs, window time.Duration, tr *tracer) (*result, error) {
	switch w.Kind {
	case kindRemote:
		return runRemote(w, in, window, tr)
	case kindDsvc:
		return runDsvc(w, in, window, tr)
	default:
		return nil, fmt.Errorf("workload %s: unknown kind %d", w.Name, w.Kind)
	}
}

// checkCore runs the exact exclusion check of the core replay after an
// end-to-end run. The live gate cannot tell two overlapping 1µs meals
// from an exit reported late; the replay's single router can.
func checkCore(w *Workload, in Inputs, res *result) error {
	cr, err := replayCore(workloadGraph(w, in))
	if err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"core replay: %d sessions, %d diner steps at %.4g ns/step (a host-speed reference), neighbours never ate together",
		cr.sessions, cr.steps, float64(cr.ns)/float64(cr.steps)))
	return nil
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// printHuman writes every metric with its unit, sample count and note.
func printHuman(r *result) {
	fmt.Printf("%-40s %14s %-6s %9s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range r.metrics {
		fmt.Printf("%-40s %14.6g %-6s %9d  %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-40s %14.6g %-6s %9d  failed %d of %d attempted sessions\n",
		"failed_share", share, "share", r.attempted, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Println(n)
	}
}

// printResult writes the machine-readable last line with exactly the
// wanted metrics.
func printResult(r *result, want []string) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, name := range want {
		m, ok := r.get(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = val{Value: m.Value, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no session was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	os.Exit(1)
}
