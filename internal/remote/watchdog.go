package remote

import (
	"fmt"
	"time"

	"repro/internal/vclock"
)

// The node watchdog is the self-defense layer behind the transport's
// cooperative flow control: everything else in this package assumes
// every goroutine keeps draining its queue, and the watchdog is what
// turns a violation of that assumption — a wedged process or peer
// manager — into a loud, contained failure instead of a silent
// cluster-wide stall.
//
// Two wedge shapes exist, and they chain:
//
//   - a process stops consuming its inbox (a blocking OnEat hook, a
//     livelocked workload). Its inbox fills, and the next peer manager
//     that tries to deliver to it blocks in post — now the *manager*
//     is wedged too, and every pair that manager carries stops acking.
//   - a peer manager stops draining cmds for any other reason.
//
// The watchdog breaks the chain at the root: a process with a full
// inbox and a stale progress stamp is crashed through the normal crash
// path (closing its dead channel unblocks every post aimed at it, so
// wedged managers resume on their own). ◇P₁ then handles the rest —
// heartbeats cease, neighbors suspect the crashed process, and the
// paper's failure containment bounds the blast radius to its edges.
//
// For a manager that stays wedged even with no crashed-process
// excuse, the watchdog declares the link Down, force-closes the
// current socket (the one manager-owned resource it can safely touch
// from outside: connDown is generation-checked, so a racing close is
// absorbed), and gives the manager one more budget to recover.
// Escalation after that is a recorded error — the same loud channel
// as a protocol-invariant trip, surfaced by Node.Err and fatal to the
// chaos soak's no-errors verdict.
//
// The watchdog deliberately does NOT reset ARQ or dining state for a
// wedged link. Unilateral resets desynchronize: dropping our send
// cursor back to 1 against a peer whose receive cursor is high means
// every future frame is dedup-dropped forever. State resets are only
// safe through the incarnation handshake (noteIncarnation), where the
// restarted side provably boots fresh — so recovery-by-restart stays
// the job of the crash/restart path the watchdog feeds into.
func (n *Node) watchdog(park *vclock.Parker) {
	defer n.wg.Done()
	defer park.Exit()
	budget := n.cfg.WedgeBudget
	ticker := n.clk.NewTicker(budget / 2)
	defer ticker.Stop()
	park.Watch(ticker)
	// downSince tracks managers the watchdog has already intervened
	// against, for the one-more-budget escalation.
	downSince := make(map[int]time.Time)
	for {
		park.Park()
		select {
		case <-n.stop:
			return
		case <-ticker.C():
			park.Take()
			n.watchdogScan(budget, downSince)
		}
	}
}

// watchdogScan runs one sweep over processes and peer managers.
func (n *Node) watchdogScan(budget time.Duration, downSince map[int]time.Time) {
	now := n.clk.Now()
	for id, p := range n.procs {
		select {
		case <-p.dead:
			continue
		default:
		}
		if len(p.inbox) < cap(p.inbox) {
			continue
		}
		if now.Sub(time.Unix(0, p.lastEvent.Load())) <= budget {
			continue
		}
		// Full inbox and no progress for a whole budget: the process is
		// wedged. Crash it — post() selects on the dead channel, so
		// every manager blocked delivering to this inbox unwedges.
		n.failProc(id, fmt.Errorf(
			"remote: watchdog: process %d wedged (inbox full, no progress for %v); crashing it", id, budget))
	}
	for remote, pr := range n.peers {
		if len(pr.cmds) < cap(pr.cmds)/2 {
			delete(downSince, remote)
			continue
		}
		if now.Sub(time.Unix(0, pr.lastDrain.Load())) <= budget {
			delete(downSince, remote)
			continue
		}
		since, known := downSince[remote]
		if !known {
			// First verdict: declare the link Down, force-close the
			// socket to stop inbound pressure, and give the manager one
			// more budget to drain (the usual cause — a crashed-process
			// inbox — has just been cleared above).
			downSince[remote] = now
			n.tr.wedge(remote)
			n.tr.setHealth(remote, HealthDown, "manager wedged")
			n.logf("node %d: watchdog: peer %d manager wedged (mailbox %d/%d); closing socket",
				n.self, remote, len(pr.cmds), cap(pr.cmds))
			if box, ok := pr.liveSock.Load().(sockBox); ok && box.c != nil {
				box.c.Close()
			}
			continue
		}
		if now.Sub(since) > budget {
			// Still wedged a full budget after intervention: crash
			// loudly. The error makes Node.Err non-nil and fails every
			// harness verdict — a wedge must never pass silently.
			n.tr.recordErr(fmt.Errorf(
				"remote: watchdog: peer %d manager still wedged %v after intervention", remote, now.Sub(since)))
			delete(downSince, remote)
		}
	}
}
