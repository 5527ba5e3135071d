package netproto

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"

	"locble/internal/resilience"
)

// serveCore is the connection lifecycle Server and StreamServer share.
// It owns the TCP listener and the table of live connections, runs the
// supervised accept loop with admission control, wraps every admitted
// connection in panic isolation and bookkeeping, and drains (or
// force-closes) the connections on shutdown. A server embeds it and
// supplies only its protocol: handle serves one admitted connection,
// and stopping, if set, runs once when shutdown begins, after the
// listener has closed.
type serveCore struct {
	name     string // log label prefix: "<name>.accept", "<name>.conn"
	cfg      ServerConfig
	ln       net.Listener
	handle   func(net.Conn)
	stopping func()

	// drainCtx is canceled when a forced shutdown fires, releasing
	// handlers blocked outside conn I/O (a push held in fleet shard
	// backpressure) so the drain can't wedge on work that is no longer
	// wanted.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopped  chan struct{}
}

// start initializes the core on ln and launches its accept loop.
func (c *serveCore) start(name string, ln net.Listener, cfg ServerConfig, handle func(net.Conn), stopping func()) {
	c.name, c.ln, c.cfg, c.handle, c.stopping = name, ln, cfg.withDefaults(), handle, stopping
	c.drainCtx, c.drainCancel = context.WithCancel(context.Background())
	c.conns = make(map[net.Conn]struct{})
	c.stopped = make(chan struct{})
	c.wg.Add(1)
	go c.acceptLoop()
}

func (c *serveCore) acceptLoop() {
	defer c.wg.Done()
	sup := &resilience.Supervisor{Name: c.name + ".accept", Logf: c.cfg.Logf}
	sup.Run(context.Background(), func(context.Context) error {
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				select {
				case <-c.stopped:
					return nil
				default:
					return err // supervisor restarts the loop
				}
			}
			if !c.cfg.Admit.Allow() || !c.tryAdd(conn) {
				shedConn(conn, c.cfg.WriteTimeout, &c.wg)
				continue
			}
			metConnsActive.Add(1)
			c.wg.Add(1)
			go c.serveConn(conn)
		}
	})
}

// serveConn runs the server's handler on one admitted connection,
// panic-isolated: a handler panic closes this connection only.
func (c *serveCore) serveConn(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.drop(conn)
		metConnsActive.Add(-1)
	}()
	defer resilience.CatchPanic(c.name+".conn", c.cfg.Logf, func(any) {
		metPanicsRecovered.Inc()
	})()
	c.handle(conn)
}

// tryAdd registers conn unless the MaxConns cap (when positive) is
// reached.
func (c *serveCore) tryAdd(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.cfg.MaxConns > 0 && len(c.conns) >= c.cfg.MaxConns {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *serveCore) drop(conn net.Conn) {
	c.connMu.Lock()
	delete(c.conns, conn)
	c.connMu.Unlock()
}

// activeConns returns how many admitted connections are being served.
func (c *serveCore) activeConns() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return len(c.conns)
}

// expireReads wakes handlers parked in a blocking read so they can
// observe a drain in progress.
func (c *serveCore) expireReads() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	for conn := range c.conns {
		conn.SetReadDeadline(time.Now())
	}
}

func (c *serveCore) closeAll() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	for conn := range c.conns {
		conn.Close()
	}
}

// shutdown is the drain sequence behind both servers' Shutdown: stop
// accepting (running the stopping hook once), wake handlers parked
// between frames so they observe the drain while handlers mid-exchange
// finish their frame, and wait for every connection goroutine. If ctx
// ends first, the drain context is canceled, the remaining connections
// are force-closed, and the ctx error is returned. The first caller
// records the drain time.
func (c *serveCore) shutdown(ctx context.Context) error {
	first := false
	c.stopOnce.Do(func() {
		first = true
		close(c.stopped)
		c.ln.Close()
		if c.stopping != nil {
			c.stopping()
		}
	})
	start := time.Now()
	c.expireReads()
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		// Release handlers blocked outside conn I/O before force-closing:
		// closing the sockets alone would not unwedge them.
		c.drainCancel()
		c.closeAll()
		<-done
	}
	c.drainCancel()
	if first {
		metDrainSeconds.Observe(time.Since(start).Seconds())
	}
	return forced
}

// close is the hard stop behind both servers' Close: a shutdown whose
// context has already ended.
func (c *serveCore) close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.shutdown(ctx)
	return nil
}

// shedConn rejects a connection under overload in a short-lived
// goroutine tracked in wg (so drain waits for it): it first reads the
// client's request — closing with unread data would turn into a TCP
// reset that destroys the reply — then answers with one "overloaded"
// frame and closes. Both deadlines are bounded by timeout, so a shed
// lives at most ~2×timeout. The client surfaces the frame as
// resilience.ErrOverloaded, which its retry policy backs off on.
func shedConn(conn net.Conn, timeout time.Duration, wg *sync.WaitGroup) {
	metConnsShed.Inc()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(timeout))
		var req struct {
			Op string `json:"op"`
		}
		ReadFrame(bufio.NewReader(conn), &req)
		conn.SetWriteDeadline(time.Now().Add(timeout))
		WriteFrame(conn, map[string]string{"error": "overloaded"})
	}()
}
