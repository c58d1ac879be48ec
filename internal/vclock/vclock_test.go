package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countClock is a Clock that implements Activity and remembers the
// lowest count it ever held.
type countClock struct {
	Clock
	n, low atomic.Int64
}

func (c *countClock) Busy(d int) {
	v := c.n.Add(int64(d))
	for {
		low := c.low.Load()
		if v >= low || c.low.CompareAndSwap(low, v) {
			return
		}
	}
}

func TestParkerSequences(t *testing.T) {
	c := &countClock{Clock: Wall}
	want := func(step string, n int64) {
		t.Helper()
		if got := c.n.Load(); got != n {
			t.Fatalf("%s: count %d, want %d", step, got, n)
		}
	}

	p := Start(c)
	want("Start", 1)
	p.Park()
	want("Park with nothing handed", 0)
	p.Handed()
	want("Handed to a parked goroutine", 1)
	p.Take()
	want("Take after Handed", 1)

	// The goroutine takes a hand-off before its sender announces it:
	// the late Handed is stale and must not count the parked goroutine.
	p.Take()
	p.Park()
	want("Park after an early Take", 0)
	p.Handed()
	want("stale Handed", 0)

	// A hand-off announced while running keeps the next Park counted.
	p.Handed()
	want("Handed to a parked goroutine again", 1)
	p.Handed()
	want("Handed while running", 1)
	p.Take()
	p.Park()
	want("Park with a hand-off still queued", 1)
	p.Take()
	p.Park()
	want("Park after draining", 0)

	p.Exit()
	want("Exit while parked", 0)
	p.Handed()
	want("Handed after Exit", 0)
	if low := c.low.Load(); low < 0 {
		t.Fatalf("count went down to %d", low)
	}

	q := Start(c)
	q.Exit()
	want("Exit while running", 0)

	// Wall is not an Activity, and a nil Parker counts nothing.
	w := Start(Wall)
	w.Park()
	w.Handed()
	w.Take()
	w.Exit()
	var nilp *Parker
	nilp.Handed()
	nilp.Park()
}

// TestParkerConcurrentSenders drives a mailbox goroutine from several
// senders at once and checks the count never goes negative and is
// zero once the goroutine has taken every message and exited.
func TestParkerConcurrentSenders(t *testing.T) {
	const senders, each = 4, 2000
	c := &countClock{Clock: Wall}
	tk := newChanTicker()
	p := Start(c)
	p.Watch(tk)
	mbox := make(chan int, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer p.Exit()
		for got := 0; got < senders*each; {
			p.Park()
			select {
			case <-tk.C():
				p.Take()
			case <-mbox:
				p.Take()
				got++
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mbox <- i
				p.Handed()
				if i%100 == 0 {
					tk.tick()
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if n := c.n.Load(); n != 0 {
		t.Fatalf("count %d after the goroutine exited, want 0", n)
	}
	if low := c.low.Load(); low < 0 {
		t.Fatalf("count went down to %d", low)
	}
}

func TestParkerBlockingSenders(t *testing.T) {
	c := &countClock{Clock: Wall}
	want := func(step string, n int64) {
		t.Helper()
		if got := c.n.Load(); got != n {
			t.Fatalf("%s: count %d, want %d", step, got, n)
		}
	}

	// A sender (counted on its own: +1) blocks on a running owner's
	// full mailbox and goes idle; the owner counts it again when it
	// parks, and the sender's Unblocked then counts nothing.
	p := Start(c)
	c.Busy(1) // the sender
	idle := p.Blocking()
	if !idle {
		t.Fatal("Blocking on a running owner stayed counted")
	}
	want("sender idle", 1)
	p.Park()
	want("owner parked, sender counted again", 1)
	p.Unblocked(idle)
	want("Unblocked after Park", 1)
	c.Busy(-1)

	// A sender that wakes before the owner parks counts itself again.
	p.Handed()
	p.Take()
	want("owner running", 1)
	c.Busy(1)
	idle = p.Blocking()
	want("sender idle again", 1)
	p.Unblocked(idle)
	want("sender counted itself", 2)
	c.Busy(-1)

	// Blocking on a parked owner keeps the sender counted: nobody would
	// count it again.
	p.Park()
	want("owner parked", 0)
	c.Busy(1)
	if p.Blocking() {
		t.Fatal("Blocking on a parked owner went idle")
	}
	want("sender stays counted", 1)
	p.Unblocked(false)
	c.Busy(-1)

	// Release counts idle senders again for good; later senders stay
	// counted.
	p.Take()
	c.Busy(2)
	a, b := p.Blocking(), p.Blocking()
	want("two senders idle", 1)
	p.Release()
	want("Release", 3)
	p.Unblocked(a)
	p.Unblocked(b)
	want("Unblocked after Release", 3)
	if p.Blocking() {
		t.Fatal("Blocking on a released owner went idle")
	}
	c.Busy(-2)
	p.Exit()
	want("all gone", 0)
	if low := c.low.Load(); low < 0 {
		t.Fatalf("count went down to %d", low)
	}
}

// TestParkerBlockingSendersConcurrent fills a small mailbox from
// several counted senders that block through Blocking/Unblocked, and
// checks the count never goes negative and returns to zero.
func TestParkerBlockingSendersConcurrent(t *testing.T) {
	const senders, each = 4, 2000
	c := &countClock{Clock: Wall}
	p := Start(c)
	mbox := make(chan int, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer p.Exit()
		for got := 0; got < senders*each; got++ {
			p.Park()
			<-mbox
			p.Take()
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		c.Busy(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Busy(-1)
			for i := 0; i < each; i++ {
				select {
				case mbox <- i:
					p.Handed()
					continue
				default:
				}
				idle := p.Blocking()
				mbox <- i
				p.Handed()
				p.Unblocked(idle)
			}
		}()
	}
	wg.Wait()
	<-done
	if n := c.n.Load(); n != 0 {
		t.Fatalf("count %d after every goroutine exited, want 0", n)
	}
	if low := c.low.Load(); low < 0 {
		t.Fatalf("count went down to %d", low)
	}
}

// chanTicker is a Ticker whose ticks the test delivers by hand and
// reports through NotifyTick, like netsim's virtual ticker.
type chanTicker struct {
	ch     chan time.Time
	mu     sync.Mutex
	notify func()
}

func newChanTicker() *chanTicker { return &chanTicker{ch: make(chan time.Time, 1)} }

func (t *chanTicker) C() <-chan time.Time { return t.ch }
func (t *chanTicker) Stop()               {}

func (t *chanTicker) NotifyTick(f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.notify = f
}

func (t *chanTicker) tick() {
	select {
	case t.ch <- time.Time{}:
	default:
		return
	}
	t.mu.Lock()
	f := t.notify
	t.mu.Unlock()
	if f != nil {
		f()
	}
}
