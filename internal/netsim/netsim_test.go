package netsim

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/vclock"
)

// testTimeout bounds real-time waits on virtual-clock activity; a
// second of wall time is an eternity when every delay is simulated.
const testTimeout = 5 * time.Second

func dialPair(t *testing.T, n *Net, from, to string) (client, server net.Conn) {
	t.Helper()
	ln, err := n.Host(to).Listen()
	if err != nil {
		t.Fatalf("listen %s: %v", to, err)
	}
	accepted := make(chan net.Conn, 1)
	goCounted(n.clock, func() {
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			close(accepted)
			return
		}
		accepted <- c
	})
	client, err = n.Host(from).Dial(to)
	if err != nil {
		t.Fatalf("dial %s->%s: %v", from, to, err)
	}
	select {
	case server = <-accepted:
	case <-time.After(testTimeout):
		t.Fatal("accept timed out")
	}
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { ln.Close() })
	return client, server
}

// readAsync starts a Read on its own goroutine, returning channels for
// the result — tests pump the virtual clock while the read blocks.
func readAsync(c net.Conn, size int) (<-chan []byte, <-chan error) {
	data := make(chan []byte, 1)
	errc := make(chan error, 1)
	goCounted(c.(*nsConn).n.clock, func() {
		buf := make([]byte, size)
		n, err := c.Read(buf)
		if err != nil {
			errc <- err
			return
		}
		data <- buf[:n]
	})
	return data, errc
}

// goCounted runs f on a goroutine the clock counts as running, as every
// goroutine that blocks on the virtual network must be: Advance waits
// for it to park or return, and the count never drops below zero.
func goCounted(clk *Clock, f func()) {
	pk := vclock.Start(clk)
	go func() {
		defer pk.Exit()
		f()
	}()
}

func wantData(t *testing.T, data <-chan []byte, errc <-chan error, want string) {
	t.Helper()
	select {
	case b := <-data:
		if string(b) != want {
			t.Fatalf("read %q, want %q", b, want)
		}
	case err := <-errc:
		t.Fatalf("read error %v, want %q", err, want)
	case <-time.After(testTimeout):
		t.Fatalf("read of %q timed out (virtual time stuck?)", want)
	}
}

func wantErr(t *testing.T, data <-chan []byte, errc <-chan error, check func(error) bool, desc string) {
	t.Helper()
	select {
	case b := <-data:
		t.Fatalf("read %q, want %s", b, desc)
	case err := <-errc:
		if !check(err) {
			t.Fatalf("read error %v, want %s", err, desc)
		}
	case <-time.After(testTimeout):
		t.Fatalf("read timed out, want %s", desc)
	}
}

func TestClockTimerOrderAndStop(t *testing.T) {
	clk := NewClock()
	var fired []int
	clk.AfterFunc(30*time.Millisecond, func() { fired = append(fired, 3) })
	clk.AfterFunc(10*time.Millisecond, func() { fired = append(fired, 1) })
	clk.AfterFunc(10*time.Millisecond, func() { fired = append(fired, 2) }) // same instant: FIFO
	stop := clk.AfterFunc(20*time.Millisecond, func() { fired = append(fired, 99) })
	if !stop.Stop() {
		t.Fatal("Stop before firing should report true")
	}
	if stop.Stop() {
		t.Fatal("second Stop should report false")
	}
	clk.Advance(25 * time.Millisecond)
	if want := []int{1, 2}; len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("after 25ms fired=%v want %v", fired, want)
	}
	clk.Advance(5 * time.Millisecond)
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("after 30ms fired=%v want [1 2 3]", fired)
	}
	if got := clk.Elapsed(); got != 30*time.Millisecond {
		t.Fatalf("Elapsed=%v want 30ms", got)
	}
}

func TestClockTimerChaining(t *testing.T) {
	// A callback scheduling a follow-up inside the advanced window: the
	// same Advance must fire it.
	clk := NewClock()
	var hits int
	clk.AfterFunc(10*time.Millisecond, func() {
		hits++
		clk.AfterFunc(10*time.Millisecond, func() { hits++ })
	})
	clk.Advance(25 * time.Millisecond)
	if hits != 2 {
		t.Fatalf("hits=%d want 2 (chained timer must fire within one Advance)", hits)
	}
}

func TestClockTicker(t *testing.T) {
	clk := NewClock()
	tk := clk.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	done := make(chan int, 1)
	// The consumer reports its ticks through a Parker, so each Advance
	// waits for it to take the tick it was just handed.
	pk := vclock.Start(clk)
	pk.Watch(tk)
	go func() {
		defer pk.Exit()
		for n := 1; ; n++ {
			pk.Park()
			<-tk.C()
			pk.Take()
			if n == 3 {
				done <- n
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		clk.Advance(10 * time.Millisecond)
		select {
		case n := <-done:
			if n != 3 {
				t.Fatalf("ticks=%d want 3", n)
			}
			return
		default:
		}
	}
	t.Fatal("ticker produced fewer than 3 ticks in 100 periods")
}

func TestLatencyDeliversOnAdvance(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	n.SetLink("a", "b", 5*time.Millisecond, 0)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, errc := readAsync(s, 16)
	// Not deliverable before latency elapses.
	clk.Advance(4 * time.Millisecond)
	select {
	case b := <-data:
		t.Fatalf("read %q before latency elapsed", b)
	case err := <-errc:
		t.Fatalf("read error %v before latency elapsed", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(1 * time.Millisecond)
	wantData(t, data, errc, "hello")
}

func TestFIFOUnderJitter(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 42)
	n.SetLink("a", "b", 2*time.Millisecond, 5*time.Millisecond)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	for _, part := range []string{"ab", "cd", "ef", "gh"} {
		if _, err := c.Write([]byte(part)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	var got []byte
	done := make(chan struct{})
	goCounted(clk, func() {
		defer close(done)
		buf := make([]byte, 8)
		for len(got) < 8 {
			nn, err := s.Read(buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, buf[:nn]...)
		}
	})
	for i := 0; i < 50; i++ {
		clk.Advance(time.Millisecond)
		select {
		case <-done:
			if string(got) != "abcdefgh" {
				t.Fatalf("stream reordered: %q", got)
			}
			return
		default:
		}
	}
	t.Fatalf("stream incomplete after 50ms virtual: %q", got)
}

func TestPartialReadAndEOF(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer s.Close()

	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.Close()
	// Zero latency: deliverable immediately, in partial pieces.
	buf := make([]byte, 4)
	nn, err := s.Read(buf)
	if err != nil || string(buf[:nn]) != "abcd" {
		t.Fatalf("first read %q/%v, want abcd", buf[:nn], err)
	}
	nn, err = s.Read(buf)
	if err != nil || string(buf[:nn]) != "ef" {
		t.Fatalf("second read %q/%v, want ef", buf[:nn], err)
	}
	if _, err = s.Read(buf); err != io.EOF {
		t.Fatalf("read after close: %v, want EOF", err)
	}
}

func TestReadDeadline(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	s.SetReadDeadline(clk.Now().Add(10 * time.Millisecond))
	data, errc := readAsync(s, 8)
	clk.Advance(11 * time.Millisecond)
	wantErr(t, data, errc, func(err error) bool {
		var ne net.Error
		return errors.As(err, &ne) && ne.Timeout()
	}, "timeout net.Error")

	// Clearing the deadline lets reads proceed again.
	s.SetReadDeadline(time.Time{})
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, errc = readAsync(s, 8)
	wantData(t, data, errc, "x")
}

func TestPartitionHoldsBytesUntilHeal(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	n.Partition("a", "b")
	if _, err := c.Write([]byte("held")); err != nil {
		t.Fatalf("write during partition should succeed locally: %v", err)
	}
	data, errc := readAsync(s, 8)
	clk.Advance(time.Second)
	select {
	case b := <-data:
		t.Fatalf("read %q across a partition", b)
	case err := <-errc:
		t.Fatalf("read error %v across a partition", err)
	case <-time.After(20 * time.Millisecond):
	}
	n.HealAll()
	clk.Advance(time.Millisecond)
	wantData(t, data, errc, "held")
}

func TestAsymmetricPartition(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	n.PartitionDir("a", "b")
	// b→a still flows.
	if _, err := s.Write([]byte("back")); err != nil {
		t.Fatalf("write b->a: %v", err)
	}
	data, errc := readAsync(c, 8)
	wantData(t, data, errc, "back")
	// a→b is held.
	if _, err := c.Write([]byte("fwd")); err != nil {
		t.Fatalf("write a->b: %v", err)
	}
	sdata, serrc := readAsync(s, 8)
	clk.Advance(100 * time.Millisecond)
	select {
	case b := <-sdata:
		t.Fatalf("read %q across directed partition", b)
	case <-time.After(20 * time.Millisecond):
	}
	n.HealDir("a", "b")
	clk.Advance(time.Millisecond)
	wantData(t, sdata, serrc, "fwd")
}

func TestDialFailures(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	if _, err := n.Host("a").Dial("nowhere"); err == nil {
		t.Fatal("dial with no listener should be refused")
	}
	ln, err := n.Host("b").Listen()
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if _, err := n.Host("b").Listen(); err == nil {
		t.Fatal("double listen should fail (address in use)")
	}
	n.PartitionDir("b", "a") // reverse direction alone must block the dial
	if _, err := n.Host("a").Dial("b"); err == nil {
		t.Fatal("dial across a partitioned link should fail")
	}
	n.HealAll()
	if _, err := n.Host("a").Dial("b"); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
}

func TestResetLink(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	if _, err := c.Write([]byte("doomed")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := n.ResetLink("a", "b"); got == 0 {
		t.Fatal("ResetLink found no streams")
	}
	if _, err := s.Read(make([]byte, 8)); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("read after reset: %v, want connection reset", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after reset should fail")
	}
}

func TestTruncatePunchesHole(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	n.SetLink("a", "b", time.Millisecond, 0) // keep bytes queued
	if _, err := c.Write([]byte("keep")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Write([]byte("lost")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := n.TruncateLink("a", "b", 4); got != 4 {
		t.Fatalf("TruncateLink dropped %d bytes, want 4", got)
	}
	if _, err := c.Write([]byte("tail")); err != nil {
		t.Fatalf("write after truncate (conn must stay up): %v", err)
	}
	var got []byte
	done := make(chan struct{})
	goCounted(clk, func() {
		defer close(done)
		buf := make([]byte, 16)
		for len(got) < 8 {
			nn, err := s.Read(buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, buf[:nn]...)
		}
	})
	for i := 0; i < 20; i++ {
		clk.Advance(time.Millisecond)
		select {
		case <-done:
			if string(got) != "keeptail" {
				t.Fatalf("stream after truncation: %q, want keeptail", got)
			}
			return
		default:
		}
	}
	t.Fatalf("stream incomplete: %q", got)
}

func TestListenerCloseAndRebind(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	ln, err := n.Host("a").Listen()
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	goCounted(clk, func() {
		_, err := ln.Accept()
		errc <- err
	})
	ln.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept after close: %v, want net.ErrClosed", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("Accept did not return after Close")
	}
	// A restarted node rebinds the same address.
	ln2, err := n.Host("a").Listen()
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	ln2.Close()
}

func TestGenPlanDeterministic(t *testing.T) {
	addrs := []string{"n0", "n1", "n2", "n3", "n4"}
	a := GenPlan(7, addrs, 10*time.Second)
	b := GenPlan(7, addrs, 10*time.Second)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\nvs\n%s", a, b)
	}
	c := GenPlan(8, addrs, 10*time.Second)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical plans")
	}
	if a.HealAt() <= 0 || a.HealAt() >= a.Duration {
		t.Fatalf("HealAt=%v outside (0,%v)", a.HealAt(), a.Duration)
	}
	for _, ev := range a.Events {
		if ev.At > a.HealAt() {
			t.Fatalf("event %+v after the final heal — stabilization window not quiet", ev)
		}
	}
}

func TestLinkRateSerializesDelivery(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	n.SetLinkRate("a", "b", 1000) // 1 byte per millisecond
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	msg := make([]byte, 500)
	for i := range msg {
		msg[i] = 'x'
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, errc := readAsync(s, 1000)
	// 500 bytes at 1000 B/s serialize for 500ms; nothing before that.
	clk.Advance(499 * time.Millisecond)
	select {
	case b := <-data:
		t.Fatalf("read %d bytes before serialization finished", len(b))
	case err := <-errc:
		t.Fatalf("read error %v before serialization finished", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(1 * time.Millisecond)
	wantData(t, data, errc, string(msg))
}

func TestStopDrainFreezesReadsUntilResume(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	n.StopDrain("a", "b")
	if _, err := c.Write([]byte("stuck")); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, errc := readAsync(s, 16)
	clk.Advance(time.Second)
	select {
	case b := <-data:
		t.Fatalf("read %q through a frozen reader", b)
	case err := <-errc:
		t.Fatalf("read error %v through a frozen reader", err)
	case <-time.After(20 * time.Millisecond):
	}
	if q := n.QueuedBytes(); q != 5 {
		t.Fatalf("QueuedBytes = %d while frozen, want 5", q)
	}
	n.ResumeDrain("a", "b")
	wantData(t, data, errc, "stuck")
	if q := n.QueuedBytes(); q != 0 {
		t.Fatalf("QueuedBytes = %d after drain, want 0", q)
	}
}

func TestHealAllRestoresRateAndDrain(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	n.SetLinkRate("a", "b", 10) // glacial: 100ms per byte
	n.StopDrain("a", "b")
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write: %v", err)
	}
	n.HealAll()
	data, errc := readAsync(s, 16)
	// Healed link: no rate shaping, no frozen reader. The bytes were
	// stamped before the heal, so allow their original serialization,
	// but a fresh write must fly.
	clk.Advance(300 * time.Millisecond)
	wantData(t, data, errc, "ok")
	if _, err := c.Write([]byte("fast")); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, errc = readAsync(s, 16)
	clk.Advance(time.Millisecond)
	wantData(t, data, errc, "fast")
}

func TestWriteDeadlineOnFullPipe(t *testing.T) {
	clk := NewClock()
	n := NewNet(clk, 1)
	n.BufCap = 8
	n.StopDrain("a", "b")
	c, s := dialPair(t, n, "a", "b")
	defer c.Close()
	defer s.Close()

	// Fills the bounded buffer exactly; an empty pipe always admits a
	// write, however large.
	if _, err := c.Write([]byte("12345678")); err != nil {
		t.Fatalf("fill write: %v", err)
	}
	if err := c.SetWriteDeadline(clk.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatalf("set write deadline: %v", err)
	}
	wrote := make(chan error, 1)
	goCounted(clk, func() {
		_, err := c.Write([]byte("overflow"))
		wrote <- err
	})
	select {
	case err := <-wrote:
		t.Fatalf("write into a full pipe returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(50 * time.Millisecond)
	select {
	case err := <-wrote:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("write error = %v, want timeout net.Error", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("blocked write never observed its deadline")
	}
	// Unrelated: the reader side still sees the first chunk intact
	// after a resume.
	n.ResumeDrain("a", "b")
	data, errc := readAsync(s, 16)
	wantData(t, data, errc, "12345678")
}
