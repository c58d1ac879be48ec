package main

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// plainWrap is the naive tap the benchmark must not use: a net.Conn
// wrapper hides *net.TCPConn's writev path from net.Buffers.WriteTo.
type plainWrap struct {
	net.Conn
	writes int
}

func (p *plainWrap) Write(b []byte) (int, error) {
	p.writes++
	return p.Conn.Write(b)
}

// loopbackPair returns a dialed TCP connection and a channel yielding
// everything its accepted end reads until close.
func loopbackPair(t *testing.T) (net.Conn, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return c, got
}

func TestTapKeepsWritevPath(t *testing.T) {
	raw, got := loopbackPair(t)
	st := newTapStats(time.Now())
	c := st.wrap(raw)
	if _, ok := c.(*tapConn); !ok {
		t.Fatalf("TCP connection was not tapped: %T", c)
	}
	bufs := net.Buffers{[]byte("ab"), []byte("cd"), []byte("ef")}
	if n, err := bufs.WriteTo(c); err != nil || n != 6 {
		t.Fatalf("WriteTo = %d, %v", n, err)
	}
	if w := st.writes.Load(); w != 0 {
		t.Fatalf("net.Buffers.WriteTo went through the tap's Write %d times; writev was lost", w)
	}
	c.Close()
	if b := <-got; string(b) != "abcdef" {
		t.Fatalf("peer read %q", b)
	}

	// Control: the naive wrapper turns the same flush into per-buffer
	// writes, which is the failure the tap exists to avoid.
	raw2, got2 := loopbackPair(t)
	pw := &plainWrap{Conn: raw2}
	bufs = net.Buffers{[]byte("ab"), []byte("cd"), []byte("ef")}
	if _, err := bufs.WriteTo(pw); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-got2
	if pw.writes != 3 {
		t.Fatalf("control wrapper saw %d writes, want 3 (one per buffer)", pw.writes)
	}
}

func TestTapCountsFramesAcrossReads(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st := newTapStats(time.Now())
	tl := tapListener{Listener: ln, st: st}
	var stream []byte
	for seq := uint64(1); seq <= 50; seq++ {
		fr, err := wire.DataFrame(core.Message{Kind: core.Fork, From: 1, To: 2}, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stream, err = wire.AppendFrame(stream, fr); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		// Split mid-frame so the tap must carry partial frames over.
		for i := 0; i < len(stream); i += 7 {
			end := i + 7
			if end > len(stream) {
				end = len(stream)
			}
			if _, err := c.Write(stream[i:end]); err != nil {
				return
			}
		}
	}()
	c, err := tl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(c)
	var fr wire.Frame
	for i := 0; i < 50; i++ {
		if err := dec.Next(&fr); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	c.Close()
	if n := st.frames[wire.Data].Load(); n != 50 {
		t.Fatalf("tap decoded %d data frames, want 50", n)
	}
	if b := st.bytes.Load(); b != int64(len(stream)) {
		t.Fatalf("tap counted %d bytes, want %d", b, len(stream))
	}
	spans := st.frameSpans()
	if len(spans) != 50 || spans[49].Seq != 50 || spans[0].From != 1 || spans[0].To != 2 {
		t.Fatalf("frame spans: %d, last %+v", len(spans), spans[len(spans)-1])
	}
}
