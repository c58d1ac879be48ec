package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := GenInputs(w, 7), GenInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.Name)
		}
	}
}

func TestInputsDifferBySeed(t *testing.T) {
	d1, d2 := GenInputs(findWorkload("dsvc-http"), 1), GenInputs(findWorkload("dsvc-http"), 2)
	if reflect.DeepEqual(d1.Edges, d2.Edges) {
		t.Error("dsvc graph identical for seeds 1 and 2")
	}
	if reflect.DeepEqual(d1.Sets, d2.Sets) {
		t.Error("resource sets identical for seeds 1 and 2")
	}
	if reflect.DeepEqual(d1.Churn, d2.Churn) {
		t.Error("churn pairs identical for seeds 1 and 2")
	}
	c1, c2 := GenInputs(findWorkload("ring5-crash"), 1), GenInputs(findWorkload("ring5-crash"), 2)
	if reflect.DeepEqual(c1.Crashes, c2.Crashes) {
		t.Error("crash schedule identical for seeds 1 and 2")
	}
	r1, r2 := GenInputs(findWorkload("ring5-tcp"), 1), GenInputs(findWorkload("ring5-tcp"), 2)
	if reflect.DeepEqual(r1.NodeSeeds, r2.NodeSeeds) {
		t.Error("node seeds identical for seeds 1 and 2")
	}
}

// TestDsvcInputsNeverConflict pins the property the dsvc-http workload
// relies on for "no operation fails": no session set holds two adjacent
// resources or both ends of a churn pair, every set is non-empty, and
// every resource is covered.
func TestDsvcInputsNeverConflict(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := GenInputs(findWorkload("dsvc-http"), seed)
		if len(in.Edges) != dsvcEdges || len(in.Churn) != dsvcChurn || len(in.Sets) != dsvcClients {
			t.Fatalf("seed %d: shape %d edges, %d churn, %d clients", seed, len(in.Edges), len(in.Churn), len(in.Sets))
		}
		bad := map[[2]int]bool{}
		for _, e := range in.Edges {
			bad[order(e[0], e[1])] = true
		}
		for _, c := range in.Churn {
			if bad[order(c[0], c[1])] {
				t.Fatalf("seed %d: churn pair %v is a base edge or repeated", seed, c)
			}
			bad[order(c[0], c[1])] = true
		}
		for ci, sets := range in.Sets {
			covered := make([]bool, in.Resources)
			for _, set := range sets {
				if len(set) == 0 || len(set) > 3 {
					t.Fatalf("seed %d client %d: set %v has bad size", seed, ci, set)
				}
				for i, x := range set {
					covered[x] = true
					for _, y := range set[:i] {
						if x == y || bad[order(x, y)] {
							t.Fatalf("seed %d client %d: set %v holds conflicting %d,%d", seed, ci, set, x, y)
						}
					}
				}
			}
			for r, ok := range covered {
				if !ok {
					t.Fatalf("seed %d client %d: resource %d never requested", seed, ci, r)
				}
			}
		}
	}
}

func order(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func TestCrashScheduleRotates(t *testing.T) {
	in := GenInputs(findWorkload("ring5-crash"), 3)
	n := len(findWorkload("ring5-crash").Placement)
	for i, c := range in.Crashes {
		if c.Node != in.Crashes[i%n].Node {
			t.Fatalf("crash %d hits node %d, round order says %d", i, c.Node, in.Crashes[i%n].Node)
		}
		if c.Down < crashDownLo || c.Down >= crashDownLo+crashJitter || c.Delay >= crashJitter {
			t.Fatalf("crash %d: delay %v down %v outside the schedule's range", i, c.Delay, c.Down)
		}
	}
	seen := map[int]bool{}
	for _, c := range in.Crashes[:n] {
		seen[c.Node] = true
	}
	if len(seen) != n {
		t.Fatalf("first round crashes %d distinct nodes, want %d", len(seen), n)
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the result line in
// step: the result line must carry exactly the listed metrics.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("end_to_end %v, program reports %v", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerNames) {
		t.Errorf("per_layer %v, program reports %v", got, perLayerNames)
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
