package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Per-connection caps on what the tap keeps in memory.
const (
	tapCaptureBytes = 256 << 10 // read-side bytes kept for the wire replay
	tapFrameSpans   = 200000    // frame spans kept over all connections
)

// tapStats is the traced run's TCP tap, installed through
// remote.Config.Dial and remote.Config.Listener. Counters are shared by
// every tapped connection.
type tapStats struct {
	t0 time.Time

	flushes atomic.Int64 // SetWriteDeadline calls: one per writeLoop flush (one writev)
	writes  atomic.Int64 // plain Write calls (the Hello handshake)
	reads   atomic.Int64 // Read calls that returned bytes
	bytes   atomic.Int64 // bytes read
	frames  [wire.Ack + 1]atomic.Int64
	spans   atomic.Int64 // frame spans recorded so far

	mu    sync.Mutex
	conns []*tapConn
}

func newTapStats(t0 time.Time) *tapStats { return &tapStats{t0: t0} }

// tapCounts is a snapshot of the tap's counters.
type tapCounts struct {
	flushes, writes, reads, bytes int64
	frames                        [wire.Ack + 1]int64
}

func (st *tapStats) counts() tapCounts {
	c := tapCounts{flushes: st.flushes.Load(), writes: st.writes.Load(), reads: st.reads.Load(), bytes: st.bytes.Load()}
	for k := range c.frames {
		c.frames[k] = st.frames[k].Load()
	}
	return c
}

func (c tapCounts) sub(o tapCounts) tapCounts {
	c.flushes -= o.flushes
	c.writes -= o.writes
	c.reads -= o.reads
	c.bytes -= o.bytes
	for k := range c.frames {
		c.frames[k] -= o.frames[k]
	}
	return c
}

// frameSpan is one frame's arrival at the reading end of a connection.
// The tap cannot see the writing end's bytes (writev bypasses it), so a
// span is the read-return instant, identified by the decoded
// (kind, from, to, seq).
type frameSpan struct {
	Kind     wire.FrameKind
	From, To uint32
	Seq      uint64
	At       time.Duration
}

// tapConn wraps a loopback *net.TCPConn. It embeds the concrete
// *net.TCPConn so that the connection's unexported writeBuffers method
// stays in the method set: net.Buffers.WriteTo then still issues one
// writev per flush instead of falling back to one Write per frame,
// which would measure a different program. The flush count comes from
// SetWriteDeadline, which the transport calls once before every flush.
type tapConn struct {
	*net.TCPConn
	st *tapStats

	// Read-side state, touched only by the connection's one reader
	// goroutine and read back after the node has stopped.
	pend    []byte // bytes of a frame not yet complete
	fr      wire.Frame
	capture []byte
	spans   []frameSpan
}

// wrap taps c when it is a TCP connection.
func (st *tapStats) wrap(c net.Conn) net.Conn {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	t := &tapConn{TCPConn: tc, st: st}
	st.mu.Lock()
	st.conns = append(st.conns, t)
	st.mu.Unlock()
	return t
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.st.writes.Add(1)
	return c.TCPConn.Write(b)
}

func (c *tapConn) SetWriteDeadline(t time.Time) error {
	c.st.flushes.Add(1)
	return c.TCPConn.SetWriteDeadline(t)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.TCPConn.Read(b)
	if n > 0 {
		c.observe(b[:n])
	}
	return n, err
}

// observe counts one read and decodes the frames it completes.
func (c *tapConn) observe(b []byte) {
	at := time.Since(c.st.t0)
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(len(b)))
	if room := tapCaptureBytes - len(c.capture); room > 0 {
		if room > len(b) {
			room = len(b)
		}
		c.capture = append(c.capture, b[:room]...)
	}
	c.pend = append(c.pend, b...)
	p := c.pend
	for len(p) >= 4 {
		n := int(binary.LittleEndian.Uint32(p))
		if n > wire.MaxPayload || len(p) < 4+n {
			break
		}
		if wire.DecodePayloadInto(&c.fr, p[4:4+n]) == nil && c.fr.Kind <= wire.Ack {
			c.st.frames[c.fr.Kind].Add(1)
			if c.fr.Kind != wire.Hello && c.st.spans.Add(1) <= tapFrameSpans {
				c.spans = append(c.spans, frameSpan{Kind: c.fr.Kind, From: c.fr.From, To: c.fr.To, Seq: c.fr.Seq, At: at})
			}
		}
		p = p[4+n:]
	}
	c.pend = append(c.pend[:0], p...)
}

// captures returns every connection's captured read stream. Call only
// after the nodes owning the connections have stopped.
func (st *tapStats) captures() [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([][]byte, 0, len(st.conns))
	for _, c := range st.conns {
		out = append(out, c.capture)
	}
	return out
}

// frameSpans returns the recorded frame spans (after the nodes stop).
func (st *tapStats) frameSpans() []frameSpan {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []frameSpan
	for _, c := range st.conns {
		out = append(out, c.spans...)
	}
	return out
}

// tapListener taps every accepted connection.
type tapListener struct {
	net.Listener
	st *tapStats
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.st.wrap(c), nil
}
