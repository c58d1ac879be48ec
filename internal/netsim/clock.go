// Package netsim is an in-memory, virtual-time network for the
// real-network runtime. It provides the two seams internal/remote
// needs to run unmodified off the wall clock and off real sockets:
//
//   - Clock, a virtual implementation of vclock.Clock: timers and
//     tickers fire only when the harness calls Advance, so a soak that
//     spans minutes of heartbeat/retransmission/reconnect activity
//     replays in milliseconds of real time, identically per seed;
//   - Net, an in-memory transport whose Listen/Dial endpoints speak
//     net.Listener/net.Conn byte-stream semantics (partial reads,
//     FIFO per direction, deadlines against the virtual clock), with
//     per-directed-link latency/jitter, asymmetric partitions that
//     hold bytes in flight, connection resets, and byte-stream
//     truncation — the fault repertoire ChaosPlan scripts.
//
// Virtual-time semantics (DESIGN.md S19): Advance moves the clock from
// event to event. At each instant it fires every due timer, then waits
// until the goroutines the instant woke are idle again before the clock
// moves on. It knows how many are still running: the runtime reports
// its goroutines through vclock.Parker, and netsim's pipes, listeners
// and tickers count the goroutines they park and wake. Woken
// goroutines therefore never fall behind virtual time, on any core
// count and under any load; what stays outside the harness's control
// is only the order in which goroutines woken at the same instant run,
// so the determinism the chaos suite asserts is over the fault schedule
// and the stabilized outcome, never over per-message interleavings
// (see cluster.RunChaosSoak).
package netsim

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// epoch is the fixed virtual time origin. It is a constant — never the
// wall clock — so every run of a seeded simulation sees identical
// timestamps.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Clock is a virtual vclock.Clock. All methods are safe for concurrent
// use; Advance must be called from one goroutine at a time (a second
// concurrent Advance blocks until the first returns).
type Clock struct {
	runMu sync.Mutex // serializes Advance callers

	// running counts the goroutines of the simulated stack that are
	// not blocked waiting for the clock or for each other: the runtime
	// reports its own through vclock.Parker, and netsim's pipes and
	// listeners count the goroutines they park and wake (Busy).
	running atomic.Int64

	// settle sleeps on idle when the count stays up past a few yields;
	// Busy wakes it when the count drops to zero.
	idleMu   sync.Mutex
	idle     sync.Cond
	sleeping atomic.Bool

	mu  sync.Mutex
	now time.Time
	seq uint64
	evs eventHeap
}

// NewClock returns a virtual clock frozen at the fixed epoch.
func NewClock() *Clock {
	c := &Clock{now: epoch}
	c.idle.L = &c.idleMu
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Elapsed returns how much virtual time has passed since the epoch.
func (c *Clock) Elapsed() time.Duration {
	return c.Now().Sub(epoch)
}

// AfterFunc schedules f to run when Advance reaches d from now. f runs
// on the Advance caller's goroutine with no clock locks held.
func (c *Clock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &vtimer{c: c, ev: c.scheduleLocked(c.now.Add(d), f)}
}

// NewTicker returns a ticker firing every d of virtual time. Like
// time.Ticker it drops ticks when the consumer lags.
func (c *Clock) NewTicker(d time.Duration) vclock.Ticker {
	if d <= 0 {
		panic("netsim: non-positive ticker period")
	}
	t := &vticker{c: c, d: d}
	//lint:ignore detpure the ticker channel is the one place virtual time crosses into goroutine-land; consumers select on it exactly like time.Ticker.C
	t.ch = make(chan time.Time, 1)
	c.mu.Lock()
	t.ev = c.scheduleLocked(c.now.Add(d), t.fire)
	c.mu.Unlock()
	return t
}

// scheduleLocked inserts one event (c.mu held).
func (c *Clock) scheduleLocked(when time.Time, fn func()) *event {
	c.seq++
	ev := &event{when: when, seq: c.seq, fn: fn}
	heap.Push(&c.evs, ev)
	return ev
}

// Advance moves virtual time forward by d, firing every timer that
// comes due, in time order (FIFO among same-instant timers). Before the
// first instant and after each fired one it waits for the simulated
// stack to park, so the goroutines a test or an instant woke finish
// their follow-on work before the clock moves again.
func (c *Clock) Advance(d time.Duration) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.settle()
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		c.dropStoppedLocked()
		if len(c.evs) == 0 || c.evs[0].when.After(target) {
			c.now = target
			c.mu.Unlock()
			break
		}
		// Move to the next instant and take everything due at it. Events
		// scheduled by the fired callbacks at (or before) this instant
		// are picked up by the next loop iteration.
		if c.evs[0].when.After(c.now) {
			c.now = c.evs[0].when
		}
		var due []*event
		for len(c.evs) > 0 && !c.evs[0].when.After(c.now) {
			ev := heap.Pop(&c.evs).(*event)
			if !ev.stopped {
				ev.fired = true
				due = append(due, ev)
			}
		}
		c.mu.Unlock()
		// Callbacks run counted, like any goroutine of the simulated
		// stack: one that blocks on a netsim pipe or a full mailbox
		// reports itself idle from this count, never from another
		// goroutine's.
		c.Busy(1)
		for _, ev := range due {
			//lint:ignore lockheld c.mu is released on the line above; runMu is held by design — Advance IS the timer executor, and serializing callbacks under it is the virtual-time contract (callbacks may re-enter the clock, which takes only c.mu)
			ev.fn()
		}
		c.Busy(-1)
		c.settle()
		c.mu.Lock()
	}
	c.settle()
}

// dropStoppedLocked discards lazily-cancelled events at the heap head.
func (c *Clock) dropStoppedLocked() {
	for len(c.evs) > 0 && c.evs[0].stopped {
		heap.Pop(&c.evs)
	}
}

// Busy implements vclock.Activity: it adds n to the count of running
// goroutines that Advance waits on. The count going below zero means a
// goroutine that nobody counted parked on the virtual network (a test
// reading a conn without a vclock.Parker, say); from then on Advance
// could move past work still in flight, so Busy panics instead.
func (c *Clock) Busy(n int) {
	v := c.running.Add(int64(n))
	if v < 0 {
		panic("netsim: running-goroutine count below zero: a goroutine parked on the virtual network without a vclock.Parker")
	}
	if v == 0 && c.sleeping.Load() {
		c.idleMu.Lock()
		c.idle.Broadcast()
		c.idleMu.Unlock()
	}
}

// settleSpins is how many scheduler yields settle spends before it
// sleeps until the running count drops: most instants' work is a
// short cascade of goroutine hand-offs that finishes within a few.
const settleSpins = 64

// settle waits until the simulated stack is idle: no goroutine it
// woke is still running (runMu held). It trusts the count alone; a
// goroutine that blocks outside the accounted primitives without
// reporting itself idle hangs Advance, and the test timeout's stack
// dump shows where.
func (c *Clock) settle() {
	for i := 0; i < settleSpins; i++ {
		if c.running.Load() <= 0 {
			return
		}
		runtime.Gosched()
	}
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	c.sleeping.Store(true)
	defer c.sleeping.Store(false)
	for c.running.Load() > 0 {
		c.idle.Wait()
	}
}

// event is one scheduled callback.
type event struct {
	when    time.Time
	seq     uint64
	fn      func()
	stopped bool
	fired   bool
}

// eventHeap orders events by (when, seq): time order, FIFO within an
// instant.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// vtimer implements vclock.Timer.
type vtimer struct {
	c  *Clock
	ev *event
}

func (t *vtimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.ev.fired || t.ev.stopped {
		return false
	}
	t.ev.stopped = true
	return true
}

// vticker implements vclock.Ticker by rescheduling itself after each
// fire.
type vticker struct {
	c  *Clock
	d  time.Duration
	ch chan time.Time

	// Guarded by c.mu.
	ev      *event
	stopped bool
	notify  func() // called after each delivered tick
}

func (t *vticker) C() <-chan time.Time { return t.ch }

// NotifyTick registers f to run after each tick the ticker delivers
// (not after dropped ones), so the receiver's vclock.Parker counts the
// wake before Advance moves on.
func (t *vticker) NotifyTick(f func()) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.notify = f
}

func (t *vticker) Stop() {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.stopped = true
	if t.ev != nil {
		t.ev.stopped = true
	}
}

// fire delivers one tick (dropping it if the consumer lags, like
// time.Ticker) and re-arms.
func (t *vticker) fire() {
	now := t.c.Now()
	delivered := false
	//lint:ignore detpure nonblocking tick delivery mirrors time.Ticker: a lagging consumer drops ticks instead of blocking virtual time
	select {
	//lint:ignore detpure nonblocking tick delivery mirrors time.Ticker (the send half of the drop-if-lagging select)
	case t.ch <- now:
		delivered = true
	default:
	}
	t.c.mu.Lock()
	notify := t.notify
	t.c.mu.Unlock()
	if delivered && notify != nil {
		notify()
	}
	t.c.mu.Lock()
	if !t.stopped {
		t.ev = t.c.scheduleLocked(t.c.now.Add(t.d), t.fire)
	}
	t.c.mu.Unlock()
}
