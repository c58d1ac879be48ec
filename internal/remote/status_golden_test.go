package remote

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// Volatile parts of the /status document: run-dependent counters and
// states are pinned to fixed values so the golden compares structure —
// field names, order, nesting, indentation — not one run's numbers.
var (
	statusStateRe  = regexp.MustCompile(`"state": "[^"]*"`)
	statusCountRe  = regexp.MustCompile(`"(eat_count|sessions|connects|retransmits|dup_suppressed|writer_drops|max_edge_occupancy|coalesced|stalls|wedges|depth|peak_depth|bytes)": \d+`)
	statusBoolRe   = regexp.MustCompile(`"connected": (?:true|false)`)
	statusSuspects = regexp.MustCompile(`,\n\s*"suspects": \[[^\]]*\]`)
	statusHealthRe = regexp.MustCompile(`"health": "[^"]*"`)
	// The transition tally depends on connect/reconnect timing, so both
	// its keys and counts are run-dependent; drop the whole object.
	statusStepsRe = regexp.MustCompile(`\n\s*"health_steps": \{[^}]*\},?`)
)

func normalizeStatusJSON(b []byte) []byte {
	b = statusStateRe.ReplaceAll(b, []byte(`"state": "X"`))
	b = statusCountRe.ReplaceAll(b, []byte(`"$1": 0`))
	b = statusBoolRe.ReplaceAll(b, []byte(`"connected": true`))
	// A non-empty suspects list follows "sessions" and may precede
	// "crashed"; it goes together with the comma in front of it.
	b = statusSuspects.ReplaceAll(b, nil)
	b = statusHealthRe.ReplaceAll(b, []byte(`"health": "X"`))
	b = statusStepsRe.ReplaceAll(b, nil)
	return b
}

// TestStatusGolden pins the dinerd /status JSON document — the
// monitoring contract scripts scrape — against
// testdata/status.golden. Node addresses come from the virtual
// network, so apart from the normalized counters the document is
// stable across runs and machines. Regenerate with
//
//	go test ./internal/remote/ -run TestStatusGolden -update
//
// after an intentional schema change, and review the diff as part of
// the change.
func TestStatusGolden(t *testing.T) {
	g := graph.Clique(2)
	nodes, clk := virtCluster(t, g, [][]int{{0}, {1}}, nil)
	waitEatsV(t, clk, nodes, nil, 1, 20*time.Second)

	rec := httptest.NewRecorder()
	nodes[0].Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status returned %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/status Content-Type = %q, want application/json", ct)
	}
	got := normalizeStatusJSON(rec.Body.Bytes())

	path := filepath.Join("testdata", "status.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("/status JSON drifted from golden (run with -update if intentional):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestNormalizeStatusDropsSuspects pins the normalizer on documents
// with non-empty suspect lists, in both positions a list can take:
// last in its object, and ahead of "crashed". Normalizing must leave
// the document the golden would hold had nothing been suspected.
func TestNormalizeStatusDropsSuspects(t *testing.T) {
	render := func(st Status) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	suspected := Status{Procs: []ProcStatus{
		{ID: 0, State: "Hungry", Suspects: []int{1, 2}},
		{ID: 1, State: "Thinking", Suspects: []int{0}, Crashed: true},
	}}
	quiet := Status{Procs: []ProcStatus{
		{ID: 0, State: "Hungry"},
		{ID: 1, State: "Thinking", Crashed: true},
	}}
	got := normalizeStatusJSON(render(suspected))
	if want := normalizeStatusJSON(render(quiet)); string(got) != string(want) {
		t.Fatalf("normalized:\n%s\nwant:\n%s", got, want)
	}
	if !json.Valid(got) {
		t.Fatalf("normalized document is not valid JSON:\n%s", got)
	}
}
