package netproto

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locble/internal/resilience"
	"locble/internal/testutil"
)

// quietLogf silences supervision reports in tests that inject failures
// on purpose.
func quietLogf(string, ...any) {}

// rawFetch drives one fetch exchange over an already-open connection.
func rawFetch(t *testing.T, conn net.Conn, br *bufio.Reader) TraceBundle {
	t.Helper()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := WriteFrame(conn, map[string]string{"op": "fetch"}); err != nil {
		t.Fatalf("write fetch: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b TraceBundle
	if err := ReadFrame(br, &b); err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	return b
}

// TestServerRecoversHandlerPanic: a panic inside a connection handler
// must close only that connection — the server keeps serving and the
// process-wide panic counter records the recovery.
func TestServerRecoversHandlerPanic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBundle(testBundle())

	var calls atomic.Int32
	srv.handlerHook = func(op string) {
		if calls.Add(1) == 1 {
			panic("poisoned frame")
		}
	}

	before := metPanicsRecovered.Value()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The first attempt dies on the panicking handler; the retry gets a
	// healthy one.
	b, err := FetchWithRetry(ctx, srv.Addr(), Retry{
		MaxAttempts: 4, BaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Fetch after handler panic: %v", err)
	}
	if b.Device != "target-phone" {
		t.Errorf("fetched %+v", b)
	}
	if got := metPanicsRecovered.Value() - before; got < 1 {
		t.Errorf("panics.recovered delta = %d, want ≥1", got)
	}
}

// TestStreamServerRecoversHandlerPanic: same isolation for the stream
// server's per-subscriber goroutine.
func TestStreamServerRecoversHandlerPanic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewStreamServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var calls atomic.Int32
	srv.subscribeHook = func(subscribeReq) {
		if calls.Add(1) == 1 {
			panic("poisoned hello")
		}
	}
	srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, true)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The first subscribe dies on the panic; Subscribe's reconnect gets
	// a healthy handler and replays the session.
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var got []StreamBatch
	for b := range ch {
		got = append(got, b)
	}
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("batches after panic recovery = %+v, want the one published", got)
	}
	if calls.Load() < 2 {
		t.Errorf("subscribe attempts = %d, want ≥2 (one panicked)", calls.Load())
	}
}

// TestServerShedsOverConnCap: connections beyond MaxConns are rejected
// with a typed overload error, and the slot frees once the holder leaves.
func TestServerShedsOverConnCap(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{MaxConns: 1, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBundle(testBundle())

	// Occupy the single slot with a live exchange.
	hold, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	rawFetch(t, hold, bufio.NewReader(hold))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	shedBefore := metConnsShed.Value()
	if _, err := FetchWithRetry(ctx, srv.Addr(), Retry{MaxAttempts: 1}); !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("fetch over cap = %v, want ErrOverloaded", err)
	}
	if metConnsShed.Value() <= shedBefore {
		t.Error("conns.shed did not increase")
	}

	// Freeing the slot restores service.
	hold.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := FetchWithRetry(ctx2, srv.Addr(), Retry{
		MaxAttempts: 8, BaseDelay: 20 * time.Millisecond,
	}); err != nil {
		t.Fatalf("fetch after slot freed: %v", err)
	}
}

// TestServerTokenBucketAdmission: an empty token bucket sheds the
// connection even under the connection cap.
func TestServerTokenBucketAdmission(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{
		Admit: resilience.NewTokenBucket(1, 1), Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBundle(testBundle())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := FetchWithRetry(ctx, srv.Addr(), Retry{MaxAttempts: 1}); err != nil {
		t.Fatalf("first fetch (burst token): %v", err)
	}
	if _, err := FetchWithRetry(ctx, srv.Addr(), Retry{MaxAttempts: 1}); !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("second immediate fetch = %v, want ErrOverloaded", err)
	}
}

// TestServerShutdownDrains: a graceful shutdown completes the in-flight
// exchange, wakes parked handlers, refuses new connections, and is
// idempotent.
func TestServerShutdownDrains(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBundle(testBundle())

	// A client with a completed exchange keeps its connection open: its
	// handler is parked in the next frame read.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawFetch(t, conn, bufio.NewReader(conn))

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil (clean drain)", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("clean drain took %v; parked handler was not woken", d)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown = %v, want nil", err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr(), 500*time.Millisecond); err == nil {
		t.Error("dial after Shutdown succeeded, want refused")
	}
}

// TestServerShutdownForcesOnDeadline: when the drain deadline passes,
// Shutdown force-closes the stragglers and reports the context error.
func TestServerShutdownForcesOnDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBundle(testBundle())
	release := make(chan struct{})
	srv.handlerHook = func(string) {
		select {
		case <-release:
		case <-time.After(3 * time.Second):
		}
	}
	defer close(release)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(conn, map[string]string{"op": "fetch"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the handler enter the stall

	// Release the stalled handler shortly after the drain deadline so
	// the forced shutdown can finish waiting for it.
	go func() {
		time.Sleep(300 * time.Millisecond)
		select {
		case release <- struct{}{}:
		default:
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
}

// TestServerWatchdogEvictsStalledConn: a handler stalled outside conn
// I/O is evicted by the per-connection watchdog.
func TestServerWatchdogEvictsStalledConn(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{
		IdleTimeout: 80 * time.Millisecond, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBundle(testBundle())
	stalled := make(chan struct{})
	srv.handlerHook = func(string) {
		close(stalled)
		time.Sleep(400 * time.Millisecond) // stall well past IdleTimeout
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	evictedBefore := metConnsEvicted.Value()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(conn, map[string]string{"op": "fetch"}); err != nil {
		t.Fatal(err)
	}
	<-stalled
	// The eviction closes the conn under the stalled handler; the client
	// sees EOF rather than a bundle.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b TraceBundle
	if err := ReadFrame(bufio.NewReader(conn), &b); err == nil {
		t.Fatal("read succeeded, want eviction-closed connection")
	}
	if metConnsEvicted.Value() <= evictedBefore {
		t.Error("conns.evicted did not increase")
	}
}

// TestStreamShutdownSendsDrainingFrame: a live subscriber receives a
// terminal Final+Draining batch when the server shuts down mid-session,
// then a clean channel close.
func TestStreamShutdownSendsDrainingFrame(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewStreamServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	first := <-ch
	if first.Seq != 1 {
		t.Fatalf("first batch = %+v", first)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	term, ok := <-ch
	if !ok {
		t.Fatal("stream closed without a terminal batch")
	}
	if !term.Final || !term.Draining || term.Seq != 2 {
		t.Fatalf("terminal batch = %+v, want Final+Draining seq 2", term)
	}
	if _, ok := <-ch; ok {
		t.Error("batches after the terminal draining frame")
	}
	if err := srv.Publish(nil, nil, false); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Publish after Shutdown = %v, want ErrStreamClosed", err)
	}
}

// TestStreamServerShedsOverCap: subscriber connections beyond MaxConns
// receive the overloaded frame and are closed.
func TestStreamServerShedsOverCap(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewStreamServerWithConfig("tgt", 0, ServerConfig{MaxConns: 1, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hold, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	// Wait until the holder is registered (admission happens at accept).
	deadline := time.Now().Add(2 * time.Second)
	for srv.activeConns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder connection never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	over, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(over, subscribeReq{Op: "subscribe"}); err != nil {
		t.Fatal(err)
	}
	over.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp map[string]string
	if err := ReadFrame(bufio.NewReader(over), &resp); err != nil {
		t.Fatalf("read shed frame: %v", err)
	}
	if resp["error"] != "overloaded" {
		t.Fatalf("shed frame = %v, want overloaded", resp)
	}
}

// TestRetryBreakerFailsFast: after a shared breaker opens on repeated
// fetch failures, further fetches through it fail fast without dialing.
func TestRetryBreakerFailsFast(t *testing.T) {
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Window: 4, MinSamples: 2, FailureRate: 0.5, OpenTimeout: time.Minute,
	})
	policy := Retry{MaxAttempts: 2, BaseDelay: time.Millisecond, Breaker: br}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Two real attempts against a dead port trip the breaker.
	if _, err := FetchWithRetry(ctx, "127.0.0.1:1", policy); err == nil {
		t.Fatal("fetch from dead port succeeded")
	}
	if br.State() != resilience.Open {
		t.Fatalf("breaker state = %v, want open", br.State())
	}
	start := time.Now()
	_, err := FetchWithRetry(ctx, "127.0.0.1:1", policy)
	if !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("fetch through open breaker = %v, want ErrCircuitOpen", err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("fail-fast took %v", time.Since(start))
	}
}

// TestStreamSlowSubscriberSkipsAndResumes: a subscriber that stops
// reading has live batches skipped (counted, not lost) and a later
// subscription recovers every batch from the history.
func TestStreamSlowSubscriberSkipsAndResumes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewStreamServerWithConfig("tgt", 0, ServerConfig{
		SubBuffer: 1, WriteTimeout: 150 * time.Millisecond, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The slow subscriber: subscribes, then never reads. Batches are
	// bulky so the socket buffers fill and the server's writes stall,
	// backing up into the 1-slot live buffer.
	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(slow, subscribeReq{Op: "subscribe"}); err != nil {
		t.Fatal(err)
	}
	// Registration is asynchronous: publishing before the server has
	// processed the subscribe frame broadcasts to nobody and nothing
	// would ever be skipped.
	waitDeadline := time.Now().Add(5 * time.Second)
	for srv.Subscribers() == 0 {
		if time.Now().After(waitDeadline) {
			t.Fatal("slow subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	bulk := make([]TimedRSS, 8192)
	for i := range bulk {
		bulk[i] = TimedRSS{T: float64(i), RSS: -60}
	}
	published := 0
	for i := 0; i < 64 && srv.SubscriberSkips() == 0; i++ {
		if err := srv.Publish(bulk, nil, false); err != nil {
			t.Fatal(err)
		}
		published++
	}
	if srv.SubscriberSkips() == 0 {
		t.Fatalf("no batches skipped after %d bulky publishes to a stuck subscriber", published)
	}
	if err := srv.Publish(nil, nil, true); err != nil {
		t.Fatal(err)
	}
	published++

	// A fresh subscription replays the history: nothing was lost.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	for b := range ch {
		if b.Seq != next {
			t.Fatalf("replay seq %d, want %d (gap after skips)", b.Seq, next)
		}
		next++
	}
	if next-1 != published {
		t.Fatalf("replayed %d batches, want %d", next-1, published)
	}
}

// TestFetchMetricsSurfacesErrorFrames: an {"error":…} reply to the
// metrics op is an error, not an empty snapshot — a shed connection
// as resilience.ErrOverloaded, anything else as a server error.
func TestFetchMetricsSurfacesErrorFrames(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{MaxConns: 1, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetBundle(testBundle())

	// Occupy the single slot with a live exchange.
	hold, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	rawFetch(t, hold, bufio.NewReader(hold))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if snap, err := FetchMetrics(ctx, srv.Addr()); !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("FetchMetrics over cap = (%v, %v), want ErrOverloaded", snap, err)
	}

	// Any other error frame: a peer that answers every op with one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req map[string]string
		if ReadFrame(bufio.NewReader(conn), &req) == nil {
			WriteFrame(conn, map[string]string{"error": "unknown op"})
		}
	}()
	snap, err := FetchMetrics(ctx, ln.Addr().String())
	<-served
	if err == nil || errors.Is(err, resilience.ErrOverloaded) || !strings.Contains(err.Error(), "server error: unknown op") {
		t.Fatalf("FetchMetrics against an error frame = (%v, %v), want a server error", snap, err)
	}
}

// TestStreamSubscriberOutlivesIdleTimeout: IdleTimeout guards Server
// exchanges only. A stream subscriber with nothing to receive for
// longer than it stays connected and gets the next batch.
func TestStreamSubscriberOutlivesIdleTimeout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewStreamServerWithConfig("tgt", 0, ServerConfig{
		IdleTimeout: 50 * time.Millisecond, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(conn, subscribeReq{Op: "subscribe"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	evictedBefore := metConnsEvicted.Value()

	time.Sleep(250 * time.Millisecond) // five idle timeouts without a batch
	if n := srv.Subscribers(); n != 1 {
		t.Fatalf("subscribers after idling = %d, want 1", n)
	}
	if err := srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, false); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b StreamBatch
	if err := ReadFrame(bufio.NewReader(conn), &b); err != nil {
		t.Fatalf("read batch after idling: %v", err)
	}
	if b.Seq != 1 || len(b.RSS) != 1 {
		t.Fatalf("batch after idling = %+v, want seq 1", b)
	}
	if metConnsEvicted.Value() != evictedBefore {
		t.Error("conns.evicted increased for an idle subscriber")
	}
}

// TestStreamShutdownForcesOnDeadline: when the drain deadline passes
// while a subscriber's write is stalled (it stopped reading), Shutdown
// force-closes it, reports the context error, and leaves no goroutine
// behind.
func TestStreamShutdownForcesOnDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewStreamServerWithConfig("tgt", 0, ServerConfig{SubBuffer: 1, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stuck, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	stuck.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(stuck, subscribeReq{Op: "subscribe"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	// Bulky batches fill the socket buffers until the handler's write
	// blocks (under the default 5 s WriteTimeout). Frames are counted
	// once written, so outbound bytes standing still for 300 ms while
	// publishes are being skipped mean the write is stuck.
	bulk := make([]TimedRSS, 8192)
	for i := range bulk {
		bulk[i] = TimedRSS{T: float64(i), RSS: -60}
	}
	stillFor, lastOut := 0, metBytesOut.Value()
	for i := 0; i < 1000 && stillFor < 30; i++ {
		skips := srv.SubscriberSkips()
		if err := srv.Publish(bulk, nil, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if out := metBytesOut.Value(); out != lastOut || srv.SubscriberSkips() == skips {
			stillFor, lastOut = 0, out
		} else {
			stillFor++
		}
	}
	if stillFor < 30 {
		t.Fatal("subscriber write never stalled")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("forced Shutdown took %v; the stalled write was not cut", d)
	}
}
