// Package vclock is the clock seam between the real-network runtime
// and its test harnesses. internal/remote reads time exclusively
// through the Clock interface, so the same transport/ARQ/◇P₁ code runs
// on the wall clock in production (Wall) and on internal/netsim's
// virtual clock in the deterministic chaos suite — heartbeat timeouts,
// retransmission deadlines, and reconnect backoff all advance only when
// the harness advances time.
//
// The interface is the minimal slice of package time the runtime uses:
// Now, AfterFunc, NewTicker. Timer and Ticker are interfaces (not the
// concrete time types) because time.Ticker exposes its channel as a
// struct field, which an alternative implementation cannot provide.
package vclock

import (
	"sync/atomic"
	"time"
)

// Timer is a handle to one scheduled callback, as returned by
// Clock.AfterFunc.
type Timer interface {
	// Stop cancels the timer; it reports whether the call prevented the
	// callback from firing (time.Timer semantics).
	Stop() bool
}

// Ticker delivers ticks on a channel at a fixed period. Like
// time.Ticker it drops ticks when the receiver lags, and Stop does not
// close the channel.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Clock is a source of time and timers.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
	NewTicker(d time.Duration) Ticker
}

// Wall is the real-time clock backed by package time.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time {
	//lint:ignore detpure Wall is the one sanctioned wall-clock seam implementation
	return time.Now()
}

func (wallClock) AfterFunc(d time.Duration, f func()) Timer {
	//lint:ignore detpure Wall is the one sanctioned wall-clock seam implementation
	return time.AfterFunc(d, f)
}

func (wallClock) NewTicker(d time.Duration) Ticker {
	//lint:ignore detpure Wall is the one sanctioned wall-clock seam implementation
	return wallTicker{time.NewTicker(d)}
}

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }

// Activity is implemented by clocks that move time only while the
// goroutines they drive are idle — netsim's virtual clock, whose
// Advance waits for the count of running goroutines to reach zero
// before each instant. The runtime keeps that count through Parker
// values; Wall does not implement Activity, so on the wall clock the
// accounting costs one nil check per call.
type Activity interface {
	// Busy adds n (possibly negative) to the count of running
	// goroutines.
	Busy(n int)
}

// tickNotifier is implemented by tickers that can report each
// delivered tick, so the receiving goroutine's Parker counts the
// hand-off.
type tickNotifier interface {
	NotifyTick(f func())
}

// Parker is one goroutine's share of an Activity count. The goroutine
// counts as running from Begin to Exit, except while parked in a
// select waiting for a hand-off: a mailbox message or a tick. The
// protocol has four calls:
//
//   - the goroutine calls Park just before it blocks in the select;
//   - in every select branch that received a hand-off (and for every
//     further one it drains without blocking) it calls Take;
//   - whoever completed a hand-off (a successful channel send) calls
//     Handed right after it;
//   - branches that end the goroutine (a closed stop channel) just
//     return, and Exit settles the count.
//
// Hand-offs are numbered, so a Handed that arrives after the goroutine
// took that hand-off and parked again is recognized as stale and
// counts nothing. Park re-checks for hand-offs announced while it was
// parking, and Handed re-counts a goroutine it finds parked: between
// the two, a goroutine never runs uncounted while its sender is idle.
//
// A sender that has to block on a full mailbox brackets the blocking
// send with Blocking and Unblocked, which count the sender as idle
// while it waits (see Blocking).
type Parker struct {
	act   Activity
	given atomic.Uint64 // hand-offs completed by senders
	state atomic.Uint64 // taken<<1 | parked bit

	// waiting counts senders idle in Blocking that nobody has counted
	// again yet; released is set once the goroutine takes nothing more.
	waiting  atomic.Int64
	released atomic.Bool
}

const (
	parkedBit = 1
	takenOne  = 2
)

// counts reports whether p feeds an Activity. A nil Parker (a
// hand-built mailbox owner in a test) counts nothing, like Wall's.
func (p *Parker) counts() bool { return p != nil && p.act != nil }

// NewParker returns the Parker of a goroutine not yet launched. Senders
// may call Handed on it before Begin; mailbox owners create theirs up
// front for that reason.
func NewParker(c Clock) *Parker {
	a, _ := c.(Activity)
	return &Parker{act: a}
}

// Start is NewParker followed by Begin.
func Start(c Clock) *Parker {
	p := NewParker(c)
	p.Begin()
	return p
}

// Begin counts the goroutine as running. Call it before the go
// statement that launches it, so the clock cannot move before the
// goroutine first parks.
func (p *Parker) Begin() {
	if p.counts() {
		p.act.Busy(1)
	}
}

// Exit stops counting the goroutine as it returns, parked or not.
func (p *Parker) Exit() {
	if !p.counts() {
		return
	}
	for {
		s := p.state.Load()
		if p.state.CompareAndSwap(s, s&^parkedBit) {
			if s&parkedBit == 0 {
				p.act.Busy(-1)
			}
			return
		}
	}
}

// Watch makes every tick t delivers a hand-off, when t can report its
// ticks.
func (p *Parker) Watch(t Ticker) {
	if n, ok := t.(tickNotifier); ok && p.counts() {
		n.NotifyTick(p.Handed)
	}
}

// Park stops counting the goroutine, unless a hand-off it has not
// taken yet is already announced. Call it just before blocking in the
// select over the goroutine's mailboxes.
func (p *Parker) Park() {
	if !p.counts() {
		return
	}
	for {
		s := p.state.Load()
		if p.given.Load() > s>>1 {
			return // work is waiting: stay counted
		}
		if !p.state.CompareAndSwap(s, s|parkedBit) {
			continue
		}
		if p.given.Load() > s>>1 {
			// A hand-off landed while we parked: unpark, unless its
			// Handed already re-counted us.
			if !p.state.CompareAndSwap(s|parkedBit, s) {
				p.act.Busy(-1)
			}
			return
		}
		// Senders idle in Blocking were covered by us running; count
		// them again before we stop counting ourselves.
		for p.claim() {
			p.act.Busy(1)
		}
		p.act.Busy(-1)
		return
	}
}

// Take records one hand-off the goroutine received, re-counting it if
// it was parked.
func (p *Parker) Take() {
	if !p.counts() {
		return
	}
	if p.state.Load()&parkedBit == 0 {
		// Only Park sets the bit, so it stays clear while we run.
		p.state.Add(takenOne)
		return
	}
	// Count ourselves before unparking: there must be no instant at
	// which we run but neither we nor a sender's Handed count us.
	p.act.Busy(1)
	for {
		s := p.state.Load()
		if p.state.CompareAndSwap(s, (s+takenOne)&^parkedBit) {
			if s&parkedBit == 0 {
				p.act.Busy(-1) // a Handed re-counted us first
			}
			return
		}
	}
}

// Handed announces a hand-off just made to the goroutine and counts it
// as running again if it is parked before taking it. Call it after
// every successful send to one of the goroutine's mailboxes.
func (p *Parker) Handed() {
	if !p.counts() {
		return
	}
	seq := p.given.Add(1)
	for {
		s := p.state.Load()
		if s&parkedBit == 0 || s>>1 >= seq {
			return // running, or the hand-off was already taken
		}
		// Count the goroutine before unparking it, as Take does.
		p.act.Busy(1)
		if p.state.CompareAndSwap(s, s&^parkedBit) {
			return
		}
		p.act.Busy(-1)
	}
}

// Blocking is called by a sender about to block on a full mailbox of
// p's goroutine, and reports whether the sender now counts as idle;
// pass the result to Unblocked once the blocking send returns.
//
// A blocked sender must not hold the count up: the goroutine it waits
// for may itself be blocked outside the accounting (a wedged hook), and
// only the clock moving on lets the watchdog crash it. So the sender
// goes idle, and whoever can make it run again counts it first: Park
// counts every idle sender before p's goroutine stops counting itself,
// and Release does the same when the goroutine stops taking hand-offs.
// While p's goroutine is parked or released nobody would, so the sender
// stays counted. Which sender a count lands on does not matter; every
// idle sender is counted again exactly once.
func (p *Parker) Blocking() bool {
	if !p.counts() {
		return false
	}
	p.waiting.Add(1)
	if p.state.Load()&parkedBit == 0 && !p.released.Load() {
		p.act.Busy(-1)
		return true
	}
	// Withdraw; if a Park or Release counted us in the meantime, give
	// back the extra count.
	if !p.claim() {
		p.act.Busy(-1)
	}
	return false
}

// Unblocked counts a sender that went idle in Blocking as running
// again, unless a Park or Release already did.
func (p *Parker) Unblocked(idle bool) {
	if idle && p.claim() {
		p.act.Busy(1)
	}
}

// Release counts every sender idle in Blocking as running again, for
// good: call it once the goroutine will take no more hand-offs (its
// dead channel is closed), since no Park will count them after that.
func (p *Parker) Release() {
	if !p.counts() {
		return
	}
	p.released.Store(true)
	for p.claim() {
		p.act.Busy(1)
	}
}

// claim takes one idle sender off the waiting count and reports
// whether there was one. The caller counts it.
func (p *Parker) claim() bool {
	for {
		w := p.waiting.Load()
		if w <= 0 {
			return false
		}
		if p.waiting.CompareAndSwap(w, w-1) {
			return true
		}
	}
}
