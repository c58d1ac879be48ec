package bench

import (
	"bytes"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// The remote family measures the wire→diner→wire hot path: codec
// encode/decode cost (ns/op and, critically, allocs/op — the zero-copy
// decode contract is 0), loopback link throughput per-frame vs
// coalesced (the ≥10× msgs/sec story), and p99 frame latency under
// netsim-scheduled load. cmd/bench -family remote emits them into the
// committed BENCH_remote.json.

// benchDataFrame is the canonical hot-path frame: one dining message
// with a piggybacked cumulative ack, exactly what submit encodes.
func benchDataFrame(seq uint64) wire.Frame {
	f, err := wire.DataFrame(core.Message{Kind: core.Request, From: 3, To: 8, Color: 5}, seq, seq-1)
	if err != nil {
		panic(err)
	}
	return f
}

// WireEncodeData measures the submit-side encode: one Data frame
// rendered into a reused buffer (the transport allocates exactly once
// per queued frame via FrameSize; amortized here to isolate encode
// cost).
func WireEncodeData(b *testing.B) {
	fr := benchDataFrame(42)
	buf := make([]byte, 0, wire.FrameSize(fr))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], fr)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = buf
}

// WireDecodeData measures the zero-copy payload decode: one Data
// payload parsed in place into a reused Frame. The contract is 0
// allocs/op.
func WireDecodeData(b *testing.B) {
	payload, err := wire.EncodePayload(benchDataFrame(42))
	if err != nil {
		b.Fatal(err)
	}
	var fr wire.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodePayloadInto(&fr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// WireDecoderStream measures the full streaming decode path — length
// prefix, buffered reassembly, payload parse — through wire.Decoder on
// a prebuilt frame stream. Also 0 allocs/op: frames are views into the
// decoder's reused read buffer.
func WireDecoderStream(b *testing.B) {
	const frames = 512
	var stream []byte
	for i := 1; i <= frames; i++ {
		var err error
		stream, err = wire.AppendFrame(stream, benchDataFrame(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	src := bytes.NewReader(stream)
	dec := wire.NewDecoder(src)
	var fr wire.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Next(&fr); err != nil {
			b.Fatal(err)
		}
		if i%frames == frames-1 {
			b.StopTimer()
			src.Reset(stream)
			dec = wire.NewDecoder(src)
			b.StartTimer()
		}
	}
}

// WireReadFrameLegacy is the before-contrast: the per-frame
// make([]byte, n) read path the zero-copy decoder replaced. Kept as a
// benchmark so BENCH_remote.json always shows the allocation gap.
func WireReadFrameLegacy(b *testing.B) {
	frame, err := wire.AppendFrame(nil, benchDataFrame(42))
	if err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		if _, err := wire.ReadFrame(src); err != nil {
			b.Fatal(err)
		}
	}
}

// loopbackPair returns a connected TCP pair on 127.0.0.1.
func loopbackPair(b *testing.B) (client, server net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("loopback listen unavailable: %v", err)
	}
	defer ln.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		b.Fatal(a.err)
	}
	b.Cleanup(func() { client.Close(); a.c.Close() })
	return client, a.c
}

// LinkLoopbackPerFrame is the before side of the throughput story: one
// encode allocation, one write syscall, and one per-frame body
// allocation on the read side, per message, over real loopback TCP.
// Reported as msgs/sec.
func LinkLoopbackPerFrame(b *testing.B) {
	client, server := loopbackPair(b)
	fr := benchDataFrame(42)
	errc := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			if err := wire.WriteFrame(client, fr); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < b.N; i++ {
		if _, err := wire.ReadFrame(server); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// LinkLoopbackBatched is the after side: frames pre-encoded once (the
// send ring stores encodings), gathered 64 at a time into one
// net.Buffers writev, decoded zero-copy on the far end. The acceptance
// target is ≥10× LinkLoopbackPerFrame's msgs/sec.
func LinkLoopbackBatched(b *testing.B) {
	const batch = 64
	client, server := loopbackPair(b)
	encoded := make([][]byte, batch)
	for i := range encoded {
		buf, err := wire.AppendFrame(nil, benchDataFrame(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		encoded[i] = buf
	}
	dec := wire.NewDecoder(server)
	var fr wire.Frame
	errc := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		bufs := make(net.Buffers, 0, batch)
		sent := 0
		for sent < b.N {
			n := batch
			if rem := b.N - sent; n > rem {
				n = rem
			}
			bufs = append(bufs[:0], encoded[:n]...)
			if _, err := bufs.WriteTo(client); err != nil {
				errc <- err
				return
			}
			sent += n
		}
		errc <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := dec.Next(&fr); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// LinkLatencyP99Netsim measures tail frame latency under
// netsim-scheduled load: a seeded virtual-time link (200µs ± 100µs
// jitter) carries a paced stream of data frames, and each frame's
// delivery latency is observed in virtual time. Deterministic per seed
// up to reader scheduling lag; reported as p99_frame_ms.
func LinkLatencyP99Netsim(b *testing.B) {
	var p99 time.Duration
	for i := 0; i < b.N; i++ {
		p99 = netsimLatencyRun(b)
	}
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99_frame_ms")
}

func netsimLatencyRun(b *testing.B) time.Duration {
	const (
		frames   = 512
		interval = 50 * time.Microsecond
	)
	clk := netsim.NewClock()
	nw := netsim.NewNet(clk, 42)
	nw.SetLink("a", "b", 200*time.Microsecond, 100*time.Microsecond)
	ln, err := nw.Host("b").Listen()
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	acceptor := vclock.Start(clk) // Accept may park on the virtual listener
	go func() {
		defer acceptor.Exit()
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	client, err := nw.Host("a").Dial("b")
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	a := <-ch
	if a.err != nil {
		b.Fatal(a.err)
	}
	defer a.c.Close()

	// Pace the sends on virtual time: frame i leaves at (i+1)*interval,
	// written from the clock's timer context so send times are exact.
	for i := 0; i < frames; i++ {
		buf, err := wire.AppendFrame(nil, benchDataFrame(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		frame := buf
		clk.AfterFunc(time.Duration(i+1)*interval, func() { client.Write(frame) })
	}

	lats := make([]time.Duration, 0, frames)
	done := make(chan struct{})
	reader := vclock.Start(clk) // Advance waits for the reader to park
	go func() {
		defer close(done)
		defer reader.Exit()
		dec := wire.NewDecoder(a.c)
		var fr wire.Frame
		for len(lats) < frames {
			if err := dec.Next(&fr); err != nil {
				return
			}
			sentAt := time.Duration(fr.Seq) * interval
			lats = append(lats, clk.Elapsed()-sentAt)
		}
	}()
	deadline := time.Duration(frames+1)*interval + 100*time.Millisecond
	for waited := time.Duration(0); waited < deadline; waited += time.Millisecond {
		select {
		case <-done:
			waited = deadline
		default:
			clk.Advance(time.Millisecond)
		}
	}
	<-done
	if len(lats) != frames {
		b.Fatalf("received %d/%d frames", len(lats), frames)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[(len(lats)*99)/100]
}
