package live

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestLiveCrashFreeNoDetector(t *testing.T) {
	// Without a detector there is no suspicion, so fork exclusivity
	// makes violations impossible — even on real goroutines.
	s, err := NewSystem(Config{
		Graph:           graph.Ring(8),
		DisableDetector: true,
		EatTime:         200 * time.Microsecond,
		ThinkTime:       200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(300 * time.Millisecond)
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Tracker().Violations(); v != 0 {
		t.Fatalf("violations = %d, want 0 without a detector", v)
	}
	for i, c := range s.Tracker().EatCounts() {
		if c == 0 {
			t.Fatalf("process %d never ate", i)
		}
	}
	if hw := s.EdgeHighWater(); hw > 4 {
		t.Fatalf("edge occupancy = %d, exceeds the paper's bound", hw)
	}
}

func TestLiveWaitFreedomAfterCrash(t *testing.T) {
	// With the heartbeat detector, survivors must keep eating after a
	// neighbor crashes.
	s, err := NewSystem(Config{
		Graph:            graph.Ring(6),
		HeartbeatPeriod:  time.Millisecond,
		InitialTimeout:   30 * time.Millisecond,
		TimeoutIncrement: 30 * time.Millisecond,
		EatTime:          200 * time.Microsecond,
		ThinkTime:        200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(150 * time.Millisecond)
	if err := s.Crash(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	deadline := time.Now()
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if i == 2 {
			continue
		}
		last := s.Tracker().LastEat(i)
		if last.IsZero() {
			t.Fatalf("survivor %d never ate", i)
		}
		if deadline.Sub(last) > 400*time.Millisecond {
			t.Fatalf("survivor %d stopped eating %v before the end (starved)", i, deadline.Sub(last))
		}
	}
}

func TestLiveChoySinghBlocksOnCrash(t *testing.T) {
	// Original doorway on goroutines: after the crash, at least the
	// crashed vertex's neighbors stop making progress.
	s, err := NewSystem(Config{
		Graph:           graph.Ring(4),
		DisableDetector: true,
		Options: core.Options{
			IgnoreDetector:     true,
			DisableRepliedFlag: true,
		},
		EatTime:   200 * time.Microsecond,
		ThinkTime: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash 0 only at an instant when, on both of its edges, it holds
	// the token but not the fork: each neighbor then holds (or is being
	// sent) the fork it shares with 0 and never needs it back, so it
	// stalls only *outside* the doorway, waiting for 0's ack. Crashing
	// at an arbitrary instant can instead leave a neighbor inside the
	// doorway waiting for a fork 0 took down with it; that neighbor then
	// defers every ping from 2 and starves 2 as well.
	var armed atomic.Bool
	crashed := make(chan struct{})
	s.crashWhen = func(id int, d *core.Diner) bool {
		if id != 0 || !armed.Load() {
			return false
		}
		for _, j := range []int{1, 3} {
			if d.HoldsFork(j) || !d.HoldsToken(j) {
				return false
			}
		}
		close(crashed)
		return true
	}
	s.Start()
	time.Sleep(100 * time.Millisecond)
	armed.Store(true)
	select {
	case <-crashed:
	case <-time.After(10 * time.Second):
		s.Stop()
		t.Fatal("process 0 never reached a crash point with both forks given away")
	}
	time.Sleep(500 * time.Millisecond)
	before := s.Tracker().EatCounts()
	time.Sleep(300 * time.Millisecond)
	after := s.Tracker().EatCounts()
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, j := range []int{1, 3} { // neighbors of the crashed vertex
		if after[j] == before[j] {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatalf("no neighbor of the crashed vertex blocked: before=%v after=%v", before, after)
	}
	// The antipodal vertex shares no edge with the crashed one and must
	// keep eating (its neighbors are blocked *outside* the doorway,
	// where they still grant acks and forks).
	if after[2] == before[2] {
		t.Fatalf("vertex 2 should keep eating: before=%v after=%v", before, after)
	}
}

func TestLiveDetectorSuppressesFalseBlockage(t *testing.T) {
	// Sanity: a 2-clique with detector converges to steady alternation;
	// both processes keep accumulating eats.
	s, err := NewSystem(Config{
		Graph:           graph.Path(2),
		HeartbeatPeriod: time.Millisecond,
		InitialTimeout:  40 * time.Millisecond,
		EatTime:         100 * time.Microsecond,
		ThinkTime:       100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(400 * time.Millisecond)
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	counts := s.Tracker().EatCounts()
	if counts[0] < 10 || counts[1] < 10 {
		t.Fatalf("eat counts too low: %v", counts)
	}
}

func TestLiveDaemonSchedulesStabilizingProtocol(t *testing.T) {
	// A live distributed daemon: each eating session executes one step
	// of self-stabilizing (Δ+1)-coloring over shared state. Without a
	// detector, exclusion is perpetual (fork-based), so neighboring
	// steps never overlap and the unsynchronized neighbor reads below
	// are race-free — which `go test -race` verifies for us.
	const n = 8
	colors := make([]int, n) // monochrome start: every edge conflicts
	step := func(i int) {
		l, r := (i+n-1)%n, (i+1)%n
		if colors[i] != colors[l] && colors[i] != colors[r] {
			return
		}
		for c := 0; ; c++ {
			if c != colors[l] && c != colors[r] {
				colors[i] = c
				return
			}
		}
	}
	s, err := NewSystem(Config{
		Graph:           graph.Ring(n),
		DisableDetector: true,
		EatTime:         100 * time.Microsecond,
		ThinkTime:       100 * time.Microsecond,
		OnEat:           step,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(300 * time.Millisecond)
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if colors[i] == colors[(i+1)%n] {
			t.Fatalf("coloring did not stabilize under the live daemon: %v", colors)
		}
	}
}

func TestLiveConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("nil graph must be rejected")
	}
	if _, err := NewSystem(Config{Graph: graph.Path(2), Colors: []int{0, 0}}); err == nil {
		t.Fatal("improper coloring must be rejected")
	}
	if _, err := NewSystem(Config{Graph: graph.Path(2), LossP: 1.5}); err == nil {
		t.Fatal("loss probability above 1 must be rejected")
	}
	if _, err := NewSystem(Config{Graph: graph.Path(2), DupP: -0.1}); err == nil {
		t.Fatal("negative duplication probability must be rejected")
	}
}

func TestLiveLossyLinks(t *testing.T) {
	// Real goroutines over lossy, duplicating channels: the forwarder's
	// retransmission backoff plus receive-side sequence dedup must keep
	// every process eating with no protocol violation. Faults run only
	// for a window, so the system also demonstrates recovery to clean
	// FIFO delivery.
	s, err := NewSystem(Config{
		Graph:           graph.Ring(6),
		DisableDetector: true,
		EatTime:         200 * time.Microsecond,
		ThinkTime:       200 * time.Microsecond,
		LossP:           0.2,
		DupP:            0.2,
		FaultFor:        300 * time.Millisecond,
		FaultSeed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(700 * time.Millisecond)
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Tracker().Violations(); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
	for i, c := range s.Tracker().EatCounts() {
		if c == 0 {
			t.Fatalf("process %d never ate under lossy links", i)
		}
	}
	tr := s.Tracker()
	if tr.Retransmits() == 0 {
		t.Fatal("fault injection never held a frame: test exercised nothing")
	}
	if tr.Duplicates() > 0 && tr.DupSuppressed() == 0 {
		t.Fatalf("%d duplicates injected but none suppressed", tr.Duplicates())
	}
}

func TestLivePanicRecovery(t *testing.T) {
	// A panicking OnEat hook must not hang Stop or the victim's
	// neighbors: the process is recovered, reported, and treated as
	// crashed, while everyone else keeps eating (heartbeat detector).
	s, err := NewSystem(Config{
		Graph:            graph.Ring(6),
		HeartbeatPeriod:  time.Millisecond,
		InitialTimeout:   30 * time.Millisecond,
		TimeoutIncrement: 30 * time.Millisecond,
		EatTime:          200 * time.Microsecond,
		ThinkTime:        200 * time.Microsecond,
		OnEat: func(i int) {
			if i == 2 {
				panic("daemon hook failure")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	time.Sleep(600 * time.Millisecond)
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung after a hook panic")
	}
	err = s.Err()
	if err == nil {
		t.Fatal("recovered hook panic must surface through Err")
	}
	if got := err.Error(); !strings.Contains(got, "hook panic") || !strings.Contains(got, "daemon hook failure") {
		t.Fatalf("Err() = %q, want recovered panic details", got)
	}
	counts := s.Tracker().EatCounts()
	for i, c := range counts {
		if i == 2 {
			continue
		}
		if c == 0 {
			t.Fatalf("survivor %d never ate after the panic: %v", i, counts)
		}
	}
}

func TestLiveStopIdempotentAndCrashRange(t *testing.T) {
	s, err := NewSystem(Config{Graph: graph.Path(2), DisableDetector: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Start() // no-op
	if err := s.Crash(5); err == nil {
		t.Fatal("out-of-range crash must error")
	}
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	s.Stop() // no-op
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}
