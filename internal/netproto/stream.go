package netproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Streaming extends the bundle exchange with a live mode: during a
// continuous tracking session the target pushes (RSS, motion) batches as
// they are produced instead of one bundle at the end — what the
// observer's sliding-window tracker consumes. The wire format reuses the
// length-prefixed JSON frames.
//
// Every batch carries a sequence number and the server retains the
// session's history, so the stream is resumable: a subscriber opens with
// {"op":"subscribe","from":N} and the server replays everything after
// batch N before going live. Subscribe reconnects automatically when the
// TCP connection drops mid-session, resuming from the last batch it
// delivered instead of losing the measurement.

// StreamBatch is one live update from the target.
type StreamBatch struct {
	Seq    int           `json:"seq"`
	RSS    []TimedRSS    `json:"rss,omitempty"`
	Motion []MotionPoint `json:"motion,omitempty"`
	// Final marks the last batch of the session.
	Final bool `json:"final,omitempty"`
	// Draining marks a terminal batch emitted because the server is
	// shutting down rather than because the measurement ended. A
	// consumer that sees it can checkpoint and re-subscribe to the
	// restarted server with its last sequence number.
	Draining bool `json:"draining,omitempty"`
}

// subscribeReq is the hello frame a subscriber sends on connect. From is
// the last sequence number it already holds (0 for a fresh session).
type subscribeReq struct {
	Op   string `json:"op"`
	From int    `json:"from"`
}

// ErrStreamClosed is returned after the stream has been closed.
var ErrStreamClosed = errors.New("netproto: stream closed")

// StreamIdleTimeout is how long a subscriber waits for the next batch
// before treating the connection as dead (and reconnecting).
var StreamIdleTimeout = 30 * time.Second

// StreamServer publishes live batches to any number of subscribers and
// retains the session history for resumption.
type StreamServer struct {
	DeviceName string

	serveCore

	mu      sync.Mutex
	subs    map[net.Conn]chan StreamBatch
	history []StreamBatch
	seq     int
	closed  bool // final published or Close called; history still served

	skips atomic.Int64

	// subscribeHook, if set, observes every accepted subscribe request.
	// Tests inject panics through it; it must be set before the first
	// subscriber arrives.
	subscribeHook func(req subscribeReq)
}

// NewStreamServer starts a live-stream publisher on loopback (port 0 for
// ephemeral) with the default lifecycle config.
func NewStreamServer(device string, port int) (*StreamServer, error) {
	return NewStreamServerWithConfig(device, port, ServerConfig{})
}

// NewStreamServerWithConfig is NewStreamServer with explicit lifecycle
// and overload controls.
func NewStreamServerWithConfig(device string, port int, cfg ServerConfig) (*StreamServer, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("netproto: stream listen: %w", err)
	}
	s := &StreamServer{DeviceName: device, subs: make(map[net.Conn]chan StreamBatch)}
	s.start("netproto.stream", ln, cfg, s.serve, s.publishDraining)
	return s, nil
}

// Addr returns the TCP address subscribers dial.
func (s *StreamServer) Addr() string { return s.ln.Addr().String() }

// SubscriberSkips returns how many live batches were skipped because a
// subscriber's buffer was full. Skipped batches stay in the history, so
// the subscriber recovers them on resume.
func (s *StreamServer) SubscriberSkips() int64 { return s.skips.Load() }

// Subscribers returns how many subscribers are currently registered for
// live batches. A subscriber counts from the moment its subscribe frame
// has been accepted, so a publisher can wait for listeners before
// pushing data it does not want replayed from history.
func (s *StreamServer) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// serve answers one subscriber connection: codec negotiation, the
// subscribe frame, the history replay, then live batches.
func (s *StreamServer) serve(conn net.Conn) {
	// First frame: an optional codec hello, then the subscribe frame
	// saying where to resume from.
	rd := &connReader{br: bufio.NewReader(conn), fb: getFrameBuf()}
	defer putFrameBuf(rd.fb)
	w := &wireWriter{w: conn, fb: getFrameBuf()}
	defer putFrameBuf(w.fb)
	conn.SetReadDeadline(time.Now().Add(FrameTimeout))
	var wreq wireReq
	if err := rd.read(false, &wreq); err != nil {
		return
	}
	if wreq.Op == "hello" {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if !negotiateHello(w, wreq.Codec, s.cfg.DisableBinary) {
			return
		}
		// The subscribe frame follows in the negotiated codec.
		conn.SetReadDeadline(time.Now().Add(FrameTimeout))
		if err := rd.read(w.binary, &wreq); err != nil {
			return
		}
	}
	if wreq.Op != "subscribe" {
		return
	}
	req := subscribeReq{Op: wreq.Op, From: wreq.From}
	if hook := s.subscribeHook; hook != nil {
		hook(req)
	}

	// Snapshot the replay backlog and register for live batches under
	// one lock acquisition, so no batch can fall between replay and live.
	s.mu.Lock()
	var replay []StreamBatch
	for _, b := range s.history {
		if b.Seq > req.From {
			replay = append(replay, b)
		}
	}
	var ch chan StreamBatch
	if !s.closed {
		ch = make(chan StreamBatch, s.cfg.SubBuffer)
		s.subs[conn] = ch
	}
	s.mu.Unlock()
	if req.From > 0 {
		// A resuming subscriber: how much history it had to recover.
		metResumeDepth.Observe(float64(len(replay)))
	}
	if ch != nil {
		metSubsActive.Add(1)
		defer func() {
			s.mu.Lock()
			delete(s.subs, conn)
			s.mu.Unlock()
			metSubsActive.Add(-1)
		}()
	}

	lastSent := req.From
	send := func(b StreamBatch) bool {
		if b.Seq <= lastSent {
			return true // already delivered (replay/live overlap)
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := w.writeStreamBatch(&b); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// A slow reader stalled the write past its deadline:
				// evicted, not merely disconnected.
				metConnsEvicted.Inc()
			}
			return false
		}
		lastSent = b.Seq
		return !b.Final
	}
	for _, b := range replay {
		if !send(b) {
			return
		}
	}
	if ch == nil {
		return // session over: replay-only subscriber
	}
	for b := range ch {
		if !send(b) {
			return
		}
	}
}

// Publish sends one batch to every current subscriber and appends it to
// the session history for resumption. Non-finite RSS/motion values are
// dropped at this boundary (JSON cannot carry them). Slow subscribers
// whose buffers are full are skipped live — they recover the batch on
// reconnect, since it stays in the history.
func (s *StreamServer) Publish(rss []TimedRSS, motion []MotionPoint, final bool) error {
	rss = sanitizeRSS(rss)
	motion = sanitizeMotion(motion)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStreamClosed
	}
	s.publishLocked(StreamBatch{RSS: rss, Motion: motion, Final: final})
	return nil
}

// publishLocked numbers b, appends it to the history and offers it to
// every live subscriber, skipping (and counting) those whose buffers
// are full. A final batch ends the session: every live subscriber
// channel closes and no new live registrations are accepted.
func (s *StreamServer) publishLocked(b StreamBatch) {
	s.seq++
	b.Seq = s.seq
	s.history = append(s.history, b)
	for _, ch := range s.subs {
		select {
		case ch <- b:
		default: // drop for this subscriber; history covers it
			s.skips.Add(1)
			metSubSkips.Inc()
		}
	}
	if !b.Final {
		return
	}
	s.closed = true
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = map[net.Conn]chan StreamBatch{}
}

// publishDraining is the stopping hook: if the session is still live,
// it ends it with a terminal batch marked Final and Draining, so
// subscribers learn the stream ended because of shutdown, not
// measurement end.
func (s *StreamServer) publishDraining() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.publishLocked(StreamBatch{Final: true, Draining: true})
	}
}

// Shutdown gracefully stops the server. If the session is still live, a
// terminal batch with Final and Draining set is published so subscribers
// learn the stream ended because of shutdown, not measurement end; then
// the listener closes and in-flight sends drain. If ctx ends first, the
// remaining connections are force-closed and the context's error
// returned. Safe to call multiple times and concurrently.
func (s *StreamServer) Shutdown(ctx context.Context) error { return s.shutdown(ctx) }

// Close is the hard stop: subscribers are cut immediately (after the
// terminal draining batch, if the session was still live) and all
// goroutines are waited for. Publish(…, final=true) is the graceful end
// of session; Shutdown the graceful end of serving.
func (s *StreamServer) Close() error { return s.close() }

// Subscribe dials a StreamServer and delivers batches in order on the
// returned channel until the stream ends or the context is cancelled.
// The binary codec is negotiated by default (falling back to JSON
// against servers that don't speak it). A dropped connection is
// re-dialled with backoff — re-negotiating the codec, since the server
// may have been replaced — and the stream resumed from the last
// delivered batch; duplicates are filtered by sequence number, so the
// consumer sees each batch exactly once. The channel is closed when
// the subscription ends.
func Subscribe(ctx context.Context, addr string) (<-chan StreamBatch, error) {
	return SubscribeCodec(ctx, addr, "")
}

// SubscribeCodec is Subscribe with explicit codec control; see
// FleetDialConfig.Codec for the accepted values.
func SubscribeCodec(ctx context.Context, addr, codec string) (<-chan StreamBatch, error) {
	sc, err := dialSubscribe(ctx, addr, 0, codec)
	if err != nil {
		return nil, err
	}
	out := make(chan StreamBatch, 16)
	go func() {
		defer close(out)
		last := 0
		policy := DefaultRetry()
		for {
			last, err = pump(ctx, sc, last, out)
			sc.conn.Close()
			if err == nil || ctx.Err() != nil {
				return // clean end of stream, or caller gave up
			}
			// Connection died mid-session: reconnect and resume.
			reErr := policy.Do(ctx, func() error {
				var dErr error
				sc, dErr = dialSubscribe(ctx, addr, last, codec)
				return dErr
			})
			if reErr != nil {
				return
			}
			metReconnects.Inc()
		}
	}()
	return out, nil
}

// dialSubscribe opens a stream connection, negotiates the codec, and
// sends the subscribe frame in whatever codec was agreed.
func dialSubscribe(ctx context.Context, addr string, from int, codec string) (codecConn, error) {
	cc, verdict, err := dialCodec(ctx, addr, codec)
	if err == nil && verdict == negotiatedShed {
		// Redial plain, as on a refusal. A shed will shed the retry too,
		// and the reconnect loop backs off on it exactly as the
		// pre-codec subscriber did.
		cc.conn.Close()
		cc, err = redialJSON(ctx, addr, codec)
	}
	if err != nil {
		return codecConn{}, err
	}
	cc.conn.SetWriteDeadline(time.Now().Add(FrameTimeout))
	w := wireWriter{w: cc.conn, binary: cc.binary, fb: getFrameBuf()}
	err = w.writeJSONy(subscribeReq{Op: "subscribe", From: from})
	putFrameBuf(w.fb)
	if err != nil {
		cc.conn.Close()
		return codecConn{}, err
	}
	return cc, nil
}

// pump reads batches from one connection into out until the stream ends
// (nil error), the context is cancelled (nil), or the connection fails
// (the read error). It returns the last sequence number delivered.
func pump(ctx context.Context, sc codecConn, last int, out chan<- StreamBatch) (int, error) {
	var fb *frameBuf
	if sc.binary {
		fb = getFrameBuf()
		defer putFrameBuf(fb)
	}
	for {
		sc.conn.SetReadDeadline(frameDeadline(ctx, StreamIdleTimeout))
		var b StreamBatch
		var err error
		if sc.binary {
			var body []byte
			body, err = readFrameBody(sc.br, fb)
			if err == nil {
				err = decodeSubFrame(body, &b)
			}
			if err == nil {
				accountFrameIn(len(body))
			}
		} else {
			err = ReadFrame(sc.br, &b)
		}
		if err != nil {
			if ctx.Err() != nil {
				return last, nil
			}
			return last, err
		}
		if b.Seq <= last {
			continue // duplicate from a replay overlap
		}
		select {
		case out <- b:
			last = b.Seq
		case <-ctx.Done():
			return last, nil
		}
		if b.Final {
			return last, nil
		}
	}
}

// decodeSubFrame decodes one binary-mode stream frame.
func decodeSubFrame(body []byte, b *StreamBatch) error {
	if len(body) == 0 {
		return errBinMalformed
	}
	switch body[0] {
	case bfStreamBatch:
		return decodeStreamBatch(body[1:], b)
	case bfError:
		r := binReader{b: body[1:]}
		msg := r.str()
		if err := r.done(); err != nil {
			return err
		}
		return exchangeError("stream", msg)
	case bfJSON:
		return json.Unmarshal(body[1:], b)
	default:
		return errBinMalformed
	}
}
