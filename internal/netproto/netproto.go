// Package netproto implements the device-to-device exchange LocBLE's
// moving-target mode needs (paper Secs. 5 and 7.1): after the measurement
// the target sends its RSS and motion traces to the observer for
// processing. The paper used UPnP; this package provides the same
// semantics with a small, self-contained protocol: UDP discovery
// (request/offer, like SSDP's M-SEARCH) plus a length-prefixed JSON
// exchange over TCP for the trace payload.
//
// The servers are built for long-running serving: accept loops run under
// a restarting supervisor, per-connection handlers are panic-isolated
// (a poisoned frame closes one connection, not the process), admission
// is controlled by a connection cap and an optional token bucket (excess
// connections are shed with an "overloaded" frame), stalled connections
// are evicted by a watchdog, and Shutdown drains in-flight exchanges
// before closing.
package netproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"time"

	"locble/internal/fleet"
	"locble/internal/obs"
	"locble/internal/resilience"
)

// Protocol constants.
const (
	// DiscoverMagic opens every discovery datagram.
	DiscoverMagic = "LOCBLE-DISCOVER/1"
	// OfferMagic opens every discovery response.
	OfferMagic = "LOCBLE-OFFER/1"
	// MaxFrameSize bounds a trace frame (guards against corrupt length
	// prefixes).
	MaxFrameSize = 16 << 20
	// FrameTimeout is the per-frame read/write deadline. Deadlines are
	// refreshed before every frame, not set once per connection, so a
	// long multi-frame exchange never times out in the middle as long as
	// each individual frame keeps moving.
	FrameTimeout = 5 * time.Second
)

// Errors.
var (
	ErrFrameTooLarge = errors.New("netproto: frame exceeds maximum size")
	ErrBadMagic      = errors.New("netproto: bad protocol magic")
)

// TimedRSS is one RSS reading in a trace bundle.
type TimedRSS struct {
	T    float64 `json:"t"`
	RSS  float64 `json:"rss"`
	Chan int     `json:"chan,omitempty"`
}

// MotionPoint is one dead-reckoned displacement sample.
type MotionPoint struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// TraceBundle is the payload the target ships to the observer after a
// measurement: its RSS observations and its own motion track.
type TraceBundle struct {
	Device string        `json:"device"`
	RSS    []TimedRSS    `json:"rss"`
	Motion []MotionPoint `json:"motion"`
}

// sanitizeRSS drops entries with non-finite fields: JSON cannot carry
// NaN/Inf, and a degraded sensor feed must lose its poisoned readings at
// the wire boundary rather than poison the whole frame.
func sanitizeRSS(in []TimedRSS) []TimedRSS {
	clean := true
	for _, r := range in {
		if !isFinite(r.T) || !isFinite(r.RSS) {
			clean = false
			break
		}
	}
	if clean {
		return in
	}
	out := make([]TimedRSS, 0, len(in))
	for _, r := range in {
		if isFinite(r.T) && isFinite(r.RSS) {
			out = append(out, r)
		}
	}
	return out
}

func sanitizeMotion(in []MotionPoint) []MotionPoint {
	clean := true
	for _, m := range in {
		if !isFinite(m.T) || !isFinite(m.X) || !isFinite(m.Y) {
			clean = false
			break
		}
	}
	if clean {
		return in
	}
	out := make([]MotionPoint, 0, len(in))
	for _, m := range in {
		if isFinite(m.T) && isFinite(m.X) && isFinite(m.Y) {
			out = append(out, m)
		}
	}
	return out
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Sanitize returns the bundle with non-finite RSS and motion entries
// removed (see sanitizeRSS). The server applies it on SetBundle and the
// stream publisher per batch.
func (b *TraceBundle) Sanitize() *TraceBundle {
	if b == nil {
		return nil
	}
	out := *b
	out.RSS = sanitizeRSS(b.RSS)
	out.Motion = sanitizeMotion(b.Motion)
	return &out
}

// WriteFrame writes one length-prefixed JSON frame. The frame is built
// in a pooled buffer with the header prepended, so each frame costs a
// single Write call and no per-frame allocation beyond what the JSON
// encoder itself needs.
func WriteFrame(w io.Writer, v any) error {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	fb.beginFrame()
	if err := fb.encodeJSONBody(v); err != nil {
		return err
	}
	return flushFrame(w, fb.b)
}

// ReadFrame reads one length-prefixed JSON frame into v. The body is
// read into a pooled buffer (json.Unmarshal copies everything it
// keeps, so the buffer is safe to reuse immediately).
func ReadFrame(r io.Reader, v any) error {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	body, err := readFrameBody(r, fb)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return err
	}
	accountFrameIn(len(body))
	return nil
}

// ServerConfig tunes the lifecycle and overload behaviour shared by
// Server and StreamServer. The zero value takes the defaults.
type ServerConfig struct {
	// MaxConns caps concurrently served connections (default 64,
	// negative for unlimited). Connections over the cap are shed with an
	// "overloaded" error frame and closed.
	MaxConns int
	// Admit, if non-nil, is a token-bucket admission limiter consulted
	// before the connection cap; denied connections are shed the same
	// way.
	Admit *resilience.TokenBucket
	// IdleTimeout is the per-connection progress watchdog: a connection
	// whose exchange makes no frame progress for this long is evicted
	// (default 6×FrameTimeout, negative disables). It backstops the
	// per-frame deadlines against handlers stalled outside conn I/O.
	IdleTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default
	// FrameTimeout). Lower it to evict slow-reading clients faster.
	WriteTimeout time.Duration
	// SubBuffer is a StreamServer's per-subscriber live buffer in
	// batches (default 64). A subscriber whose buffer is full has
	// batches skipped live; it recovers them from the history on resume.
	SubBuffer int
	// DisableBinary refuses codec negotiation: hello frames are answered
	// with the same "unknown op" error frame a pre-codec server sends,
	// so negotiating clients fall back to JSON exactly as they would
	// against an old deployment. Useful to pin a mixed fleet to one
	// codec (and to test the fallback path against a live server).
	DisableBinary bool
	// Logf receives supervision and panic-recovery reports (default
	// log.Printf).
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	switch {
	case c.IdleTimeout == 0:
		c.IdleTimeout = 6 * FrameTimeout
	case c.IdleTimeout < 0:
		c.IdleTimeout = 0 // inert watchdog
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = FrameTimeout
	}
	if c.SubBuffer <= 0 {
		c.SubBuffer = 64
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server announces a device and serves its trace bundle. It listens for
// discovery datagrams on UDP and serves trace fetches on TCP.
type Server struct {
	DeviceName string

	serveCore

	mu     sync.Mutex
	bundle *TraceBundle
	fleet  *fleet.Fleet // attached via SetFleet; nil refuses "push"

	udp net.PacketConn

	// handlerHook, if set, observes every decoded op before dispatch.
	// Tests inject panics and stalls through it; it must be set before
	// the first connection arrives.
	handlerHook func(op string)
}

// SetBundle publishes the bundle served to clients (replacing any prior
// one). Non-finite entries are dropped at this boundary (JSON cannot
// carry them). Safe for concurrent use.
func (s *Server) SetBundle(b *TraceBundle) {
	b = b.Sanitize()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bundle = b
}

// NewServer starts a server for the named device on loopback with the
// default lifecycle config. Pass port 0 for an ephemeral port; the
// chosen addresses are available via Addr and DiscoveryAddr.
func NewServer(device string, port int) (*Server, error) {
	return NewServerWithConfig(device, port, ServerConfig{})
}

// NewServerWithConfig is NewServer with explicit lifecycle and overload
// controls.
func NewServerWithConfig(device string, port int, cfg ServerConfig) (*Server, error) {
	tcp, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("netproto: listen tcp: %w", err)
	}
	udp, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		// Ephemeral UDP port independent of the TCP one is fine.
		udp, err = net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			tcp.Close()
			return nil, fmt.Errorf("netproto: listen udp: %w", err)
		}
	}
	s := &Server{DeviceName: device, udp: udp}
	s.start("netproto", tcp, cfg, s.handleConn, func() { s.udp.Close() })
	s.wg.Add(1)
	go s.serveUDP()
	return s, nil
}

// Addr returns the TCP trace-exchange address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// DiscoveryAddr returns the UDP discovery address.
func (s *Server) DiscoveryAddr() string { return s.udp.LocalAddr().String() }

// Close force-stops the server: listeners close, live connections are
// closed immediately, and all goroutines are waited for. Use Shutdown
// to drain in-flight exchanges instead.
func (s *Server) Close() error { return s.close() }

// Shutdown gracefully stops the server: it stops accepting, lets each
// in-flight frame exchange complete, and waits for the per-connection
// handlers to drain. If ctx ends first, the remaining connections are
// force-closed and the context's error is returned; a clean drain
// returns nil. Safe to call multiple times and concurrently.
func (s *Server) Shutdown(ctx context.Context) error { return s.shutdown(ctx) }

func (s *Server) serveUDP() {
	defer s.wg.Done()
	sup := &resilience.Supervisor{Name: "netproto.discovery", Logf: s.cfg.Logf}
	sup.Run(context.Background(), func(context.Context) error {
		buf := make([]byte, 512)
		for {
			n, addr, err := s.udp.ReadFrom(buf)
			if err != nil {
				select {
				case <-s.stopped:
					return nil
				default:
					return err
				}
			}
			if string(buf[:n]) != DiscoverMagic {
				continue
			}
			offer := fmt.Sprintf("%s %s %s", OfferMagic, s.DeviceName, s.Addr())
			s.udp.WriteTo([]byte(offer), addr)
		}
	})
}

// handleConn serves one trace-exchange connection. It is watchdog-
// guarded (a stalled exchange is evicted) and drain-aware (between
// frames it observes shutdown and exits).
func (s *Server) handleConn(conn net.Conn) {
	wd := resilience.NewWatchdog(s.cfg.IdleTimeout, func() {
		metConnsEvicted.Inc()
		conn.Close() // unblocks any pending I/O; the handler then exits
	})
	defer wd.Stop()

	// Deadlines are per frame, refreshed before each read and write: a
	// connection-scoped deadline would expire in the middle of a long
	// multi-frame exchange.
	rd := &connReader{br: bufio.NewReader(conn), fb: getFrameBuf()}
	defer putFrameBuf(rd.fb)
	w := &wireWriter{w: conn, fb: getFrameBuf()}
	defer putFrameBuf(w.fb)
	var req wireReq
	first := true
	for {
		select {
		case <-s.stopped:
			return
		default:
		}
		conn.SetReadDeadline(time.Now().Add(FrameTimeout))
		if err := rd.read(w.binary, &req); err != nil {
			return
		}
		wd.Kick()
		if hook := s.handlerHook; hook != nil {
			hook(req.Op)
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if req.Op == "hello" {
			// Codec negotiation is valid only as a connection's first
			// frame; a hello mid-stream means the peer lost frame sync,
			// and the connection is shed with a typed error frame.
			if !first {
				metCodecRejected.Inc()
				w.writeError("unexpected hello mid-stream")
				return
			}
			first = false
			if !negotiateHello(w, req.Codec, s.cfg.DisableBinary) {
				return
			}
			continue
		}
		first = false
		switch req.Op {
		case "fetch":
			s.mu.Lock()
			b := s.bundle
			s.mu.Unlock()
			if b == nil {
				b = &TraceBundle{Device: s.DeviceName}
			}
			if err := w.writeJSONy(b); err != nil {
				return
			}
		case "push":
			if !s.handlePush(conn, w, req.Obs) {
				return
			}
		case "drain":
			// Scale-out handoff: checkpoint-and-evict every resident
			// fleet session so a router can re-admit the beacons on the
			// surviving nodes (see fleetserve.go).
			if !s.handleDrain(conn, w) {
				return
			}
		case "metrics":
			// Expvar-style introspection: the process-wide metric
			// snapshot as one JSON frame, so an operator (or test)
			// can scrape transport and pipeline counters over the
			// same trace-exchange port.
			if err := w.writeJSONy(obs.Default.Snapshot()); err != nil {
				return
			}
		default:
			w.writeError("unknown op")
			return
		}
	}
}

// ServiceInfo describes a discovered device.
type ServiceInfo struct {
	Device string
	Addr   string // TCP trace-exchange address
}

// Discover probes a list of UDP discovery addresses and returns the
// devices that answered within the context deadline. Probes are re-sent
// with growing intervals to unanswered addresses — UDP datagrams are
// fire-and-forget, so a single lost probe must not hide a device for the
// whole discovery window. (On a real phone deployment this would be a
// broadcast; loopback simulations enumerate candidate ports.)
func Discover(ctx context.Context, addrs []string) ([]ServiceInfo, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	if dl, ok := ctx.Deadline(); ok {
		deadline = dl
	}

	targets := make([]*net.UDPAddr, 0, len(addrs))
	for _, a := range addrs {
		if ua, err := net.ResolveUDPAddr("udp", a); err == nil {
			targets = append(targets, ua)
		}
	}
	probe := func() {
		for _, ua := range targets {
			conn.WriteTo([]byte(DiscoverMagic), ua)
		}
	}
	probe()

	policy := DefaultRetry()
	var found []ServiceInfo
	seen := make(map[string]bool)
	buf := make([]byte, 512)
	reprobe := 1
	next := time.Now().Add(policy.Delay(reprobe))
	for len(found) < len(targets) {
		// Read in short slices so probes can be re-sent between reads.
		slice := time.Now().Add(150 * time.Millisecond)
		if slice.After(deadline) {
			slice = deadline
		}
		conn.SetReadDeadline(slice)
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if time.Now().After(deadline) {
				break
			}
			if time.Now().After(next) {
				probe()
				reprobe++
				next = time.Now().Add(policy.Delay(reprobe))
			}
			continue
		}
		var magic, device, addr string
		if _, err := fmt.Sscanf(string(buf[:n]), "%s %s %s", &magic, &device, &addr); err != nil {
			continue
		}
		if magic != OfferMagic || seen[device+"|"+addr] {
			continue
		}
		seen[device+"|"+addr] = true
		found = append(found, ServiceInfo{Device: device, Addr: addr})
	}
	return found, nil
}

// Fetch retrieves the trace bundle from a device's TCP address, retrying
// refused or mid-frame-dropped connections with the default backoff
// policy until the context deadline.
func Fetch(ctx context.Context, addr string) (*TraceBundle, error) {
	return FetchWithRetry(ctx, addr, DefaultRetry())
}

// FetchWithRetry is Fetch under an explicit retry policy. A
// Retry{MaxAttempts: 1} makes it single-shot.
func FetchWithRetry(ctx context.Context, addr string, policy Retry) (*TraceBundle, error) {
	var b TraceBundle
	err := policy.Do(ctx, func() error {
		b = TraceBundle{} // a failed attempt must not leak into the next
		return exchangeOnce(ctx, addr, "fetch", &b)
	})
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// FetchMetrics retrieves a server's process-wide metric snapshot (the
// "metrics" op) from its TCP trace-exchange address.
func FetchMetrics(ctx context.Context, addr string) (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := exchangeOnce(ctx, addr, "metrics", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// exchangeOnce dials addr, sends the one-frame request {"op":op} and
// decodes the single JSON reply into resp, with per-frame deadlines. An
// {"error":…} reply is returned as an exchange error: "overloaded" (a
// shed connection) as resilience.ErrOverloaded, so the retry policy or
// the caller's breaker can back off, anything else as a server error.
func exchangeOnce(ctx context.Context, addr, op string, resp any) error {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteDeadline(frameDeadline(ctx, FrameTimeout))
	if err := WriteFrame(conn, map[string]string{"op": op}); err != nil {
		return err
	}
	conn.SetReadDeadline(frameDeadline(ctx, FrameTimeout))
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	body, err := readFrameBody(conn, fb)
	if err != nil {
		return err
	}
	var reply struct {
		Err string `json:"error"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	accountFrameIn(len(body))
	if reply.Err != "" {
		return exchangeError(op+" "+addr, reply.Err)
	}
	return json.Unmarshal(body, resp)
}

// frameDeadline is the deadline for the next frame: d from now, or the
// context's deadline if that comes first.
func frameDeadline(ctx context.Context, d time.Duration) time.Time {
	dl := time.Now().Add(d)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	return dl
}
