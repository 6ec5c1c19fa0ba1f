// Package client implements the application-instance side of the coupling
// model: the extension that hooks a widget.Registry's event dispatch into
// the central server, re-executes remote events, answers state requests, and
// exposes the paper's primitives (Couple/Decouple, CopyTo/CopyFrom,
// RemoteCopy, CoSendCommand, undo/redo).
//
// Making an application cooperative requires no more than creating a Client
// over its widget registry and declaring the couplable objects — "no more
// programming than inserting a statement to register the application with
// the server is needed" (§4).
package client

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"cosoft/internal/compat"
	"cosoft/internal/couple"
	"cosoft/internal/obs"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// Errors reported by client operations.
var (
	ErrClosed       = errors.New("client: closed")
	ErrTimeout      = errors.New("client: request timed out")
	ErrRejected     = errors.New("client: event rejected (group locked)")
	ErrDisconnected = errors.New("client: connection lost")
)

// CommandHandler processes an application-defined command (§3.4): the
// receiving side of CoSendCommand.
type CommandHandler func(from couple.InstanceID, payload []byte)

// Semantics holds the store/load functions of application data attached to
// a UI object (§3.1 "Synchronizing semantic state").
type Semantics struct {
	// Store packs the semantic data of the object for transfer.
	Store func() ([]byte, error)
	// Load unpacks transferred semantic data into the application.
	Load func([]byte) error
}

// Options configures a Client.
type Options struct {
	// AppType names the application; instances of different AppTypes are
	// heterogeneous.
	AppType string
	// Host and User describe the participant for the registration record.
	Host string
	User string
	// Registry is the application's widget tree. Required.
	Registry *widget.Registry
	// Correspondences used for client-side s-compatibility matching. Nil
	// means same-class only. (The server holds its own copy for validation.)
	Correspondences *compat.Correspondences
	// RPCTimeout bounds each request/response round trip (0 = 30s).
	RPCTimeout time.Duration
	// OnStateApplied, if set, is called after a remote state lands on a
	// local object.
	OnStateApplied func(path string, origin couple.InstanceID)
	// OnRemoteEvent, if set, is called after a remote event was re-executed
	// locally.
	OnRemoteEvent func(e *widget.Event)
	// MarkOrigin, when set, records the originating instance on every
	// widget that received a remote event or state copy, in the
	// OriginAttr attribute. Applications use it to render remote
	// modifications differently — the congruence-of-views relaxation
	// (GROVE's "different colors for certain purposes", §1).
	MarkOrigin bool
	// Metrics receives the client's RPC and re-execution latency
	// histograms. Nil disables measurement (zero-allocation no-ops).
	Metrics obs.Sink
	// Reconnect enables automatic reconnection: when the connection drops,
	// the client redials with exponential backoff, resumes its session (same
	// instance ID), re-declares its objects, re-creates its couple links and
	// pulls the current state of every coupled object. Nil disables
	// reconnection: a dropped connection permanently fails the client.
	Reconnect *ReconnectOptions
	// Tracer records causal spans for this instance's hops: event sends and
	// remote re-executions. Setting it also opts the connection into the
	// wire trace extension, so leave it nil when the server may predate the
	// extension. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Batching opts the connection into the wire batch extension: the
	// server may pack runs of envelopes into single Batch frames, and the
	// client answers a packed run of Execs with one coalesced BatchAck.
	// Like Tracer it is announced from the first frame, so leave it false
	// when the server may predate the extension.
	Batching bool
	// Logger receives structured logs keyed by instance and trace IDs. Nil
	// disables structured logging.
	Logger *slog.Logger
	// Logf receives diagnostic output; nil disables logging.
	Logf func(format string, args ...any)
}

// Client connects one application instance to the coupling server.
type Client struct {
	opts    Options
	reg     *widget.Registry
	checker *compat.Checker
	id      couple.InstanceID

	mu       sync.Mutex
	conn     *wire.Conn // current connection; replaced on reconnect
	nextSeq  uint64
	waiters  map[uint64]chan wire.Envelope
	links    *couple.Graph
	cmds     map[string]CommandHandler
	sem      map[string]Semantics
	declared map[string]string // path → class of every declared object (resync source)
	token    string            // resumable session token; "" without Reconnect
	closed   bool

	inq   *inqueue
	done  chan struct{}
	rdone chan struct{} // closed when the read machinery stops for good
	wg    sync.WaitGroup

	// Metric handles (nil-safe no-ops when Options.Metrics is nil).
	mRPC  *obs.Histogram // client.rpc_ns: request/response round trips
	mExec *obs.Histogram // client.exec_ns: remote-event re-execution to ack

	tr   *obs.Tracer  // nil when tracing is disabled
	slog *slog.Logger // never nil (discards when Options.Logger is nil)
}

// New performs the registration handshake over conn and starts the client
// loops.
func New(conn net.Conn, opts Options) (*Client, error) {
	if opts.Registry == nil {
		return nil, errors.New("client: Options.Registry is required")
	}
	if opts.RPCTimeout == 0 {
		opts.RPCTimeout = 30 * time.Second
	}
	metrics := obs.Or(opts.Metrics)
	c := &Client{
		opts:     opts,
		conn:     wire.NewConn(conn),
		reg:      opts.Registry,
		checker:  compat.NewChecker(opts.Registry.Classes(), opts.Correspondences),
		waiters:  make(map[uint64]chan wire.Envelope),
		links:    couple.NewGraph(),
		cmds:     make(map[string]CommandHandler),
		sem:      make(map[string]Semantics),
		declared: make(map[string]string),
		inq:      newInqueue(),
		done:     make(chan struct{}),
		rdone:    make(chan struct{}),
		mRPC:     metrics.Histogram("client.rpc_ns"),
		mExec:    metrics.Histogram("client.exec_ns"),
		tr:       opts.Tracer,
		slog:     obs.LoggerOr(opts.Logger).With("component", "client"),
	}
	if opts.Tracer != nil {
		// We are the connection initiator, so we opt into the wire trace
		// extension before speaking; the server's conn auto-detects it from
		// our first traced frame.
		c.conn.EnableTrace()
	}
	if opts.Batching {
		// Same negotiation shape for the batch extension: flagging every
		// frame tells the server it may pack our fan-out before it sends us
		// anything.
		c.conn.EnableBatch()
	}
	// Handshake: Register must be answered by Registered before the loops
	// start.
	if err := c.conn.Write(wire.Envelope{Seq: 1, Msg: wire.Register{
		AppType: opts.AppType, Host: opts.Host, User: opts.User,
	}}); err != nil {
		return nil, fmt.Errorf("client: register: %w", err)
	}
	env, err := c.conn.Read()
	if err != nil {
		return nil, fmt.Errorf("client: register reply: %w", err)
	}
	switch m := env.Msg.(type) {
	case wire.Registered:
		c.id = m.ID
	case wire.Err:
		return nil, fmt.Errorf("client: registration refused: %s", m.Text)
	default:
		return nil, fmt.Errorf("client: unexpected registration reply %s", env.Msg.MsgType())
	}
	c.mu.Lock()
	c.nextSeq = 1
	c.mu.Unlock()
	c.slog = c.slog.With("inst", string(c.id))
	c.slog.Debug("registered", "user", opts.User, "host", opts.Host)

	// Hook the toolkit: local events on coupled objects go through the
	// server; everything else is processed locally.
	c.reg.OnEvent(c.handleLocalEvent)
	c.reg.OnDestroy(func(w *widget.Widget) {
		// Automatic decoupling of destroyed objects (§3.2).
		if err := c.callOK(wire.Retract{Path: w.Path()}); err != nil && !errors.Is(err, ErrClosed) {
			c.logf("client %s: retract %s: %v", c.id, w.Path(), err)
		}
		c.mu.Lock()
		delete(c.declared, w.Path())
		c.mu.Unlock()
	})

	c.wg.Add(2)
	go c.supervise()
	go c.dispatchLoop()

	if opts.Reconnect != nil {
		// Mint the resumable session token up front so it is in hand before
		// any disconnect. Only reconnect-enabled clients pay the extra RPC.
		tok, err := c.sessionToken()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: session token: %w", err)
		}
		c.mu.Lock()
		c.token = tok
		c.mu.Unlock()
	}
	return c, nil
}

// sessionToken asks the server for a resumable session token.
func (c *Client) sessionToken() (string, error) {
	env, err := c.call(wire.SessionToken{})
	if err != nil {
		return "", err
	}
	switch m := env.Msg.(type) {
	case wire.SessionToken:
		return m.Token, nil
	case wire.Err:
		return "", errors.New(m.Text)
	default:
		return "", fmt.Errorf("client: unexpected reply %s", env.Msg.MsgType())
	}
}

// ID returns the server-assigned application instance identifier.
func (c *Client) ID() couple.InstanceID { return c.id }

// Registry returns the widget registry this client extends.
func (c *Client) Registry() *widget.Registry { return c.reg }

// Ref returns the global reference of a local object.
func (c *Client) Ref(path string) couple.ObjectRef {
	return couple.ObjectRef{Instance: c.id, Path: path}
}

func (c *Client) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Close deregisters and tears down the connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	// The Deregister carries a real sequence number with a registered
	// waiter, so the server's OK reply is routed here instead of surfacing
	// in dispatchLoop as an "unexpected server message". (A Seq of 0 would
	// make the reply's RefSeq 0, the marker for server-initiated traffic.)
	c.nextSeq++
	seq := c.nextSeq
	ack := make(chan wire.Envelope, 1)
	c.waiters[seq] = ack
	c.mu.Unlock()
	// Best effort orderly exit; the server also handles abrupt closes. The
	// wait is bounded: a dead or unresponsive server ends it via readLoop
	// exit or the RPC timeout.
	if err := conn.Write(wire.Envelope{Seq: seq, Msg: wire.Deregister{}}); err == nil {
		timer := time.NewTimer(c.opts.RPCTimeout)
		select {
		case <-ack:
		case <-c.rdone:
		case <-timer.C:
		}
		timer.Stop()
	}
	c.dropWaiter(seq)
	close(c.done)
	conn.Close()
	c.reg.OnEvent(nil)
	c.reg.OnDestroy(nil)
	c.wg.Wait()
	// Fail anybody still waiting for replies.
	c.mu.Lock()
	for seq, ch := range c.waiters {
		close(ch)
		delete(c.waiters, seq)
	}
	c.mu.Unlock()
}

// call sends a request and waits for its correlated reply.
func (c *Client) call(msg wire.Message) (wire.Envelope, error) {
	return c.callCtx(msg, obs.TraceContext{})
}

// callCtx is call with causal-trace context stamped on the request
// envelope; the server parents its hop spans under tc.
func (c *Client) callCtx(msg wire.Message, tc obs.TraceContext) (wire.Envelope, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wire.Envelope{}, ErrClosed
	}
	c.nextSeq++
	seq := c.nextSeq
	ch := make(chan wire.Envelope, 1)
	c.waiters[seq] = ch
	c.mu.Unlock()

	t0 := c.mRPC.Start()
	if err := c.send(wire.Envelope{Seq: seq, Trace: tc, Msg: msg}); err != nil {
		c.dropWaiter(seq)
		return wire.Envelope{}, fmt.Errorf("client: send %s: %w", msg.MsgType(), err)
	}
	timer := time.NewTimer(c.opts.RPCTimeout)
	defer timer.Stop()
	select {
	case env, ok := <-ch:
		if !ok {
			// The waiter was failed: either the client closed or the
			// connection dropped mid-request (the reply is gone for good —
			// requests do not survive a reconnect).
			if c.isClosed() {
				return wire.Envelope{}, ErrClosed
			}
			return wire.Envelope{}, fmt.Errorf("%w: %s", ErrDisconnected, msg.MsgType())
		}
		c.mRPC.ObserveSince(t0)
		return env, nil
	case <-timer.C:
		c.dropWaiter(seq)
		return wire.Envelope{}, fmt.Errorf("%w: %s", ErrTimeout, msg.MsgType())
	case <-c.done:
		c.dropWaiter(seq)
		return wire.Envelope{}, ErrClosed
	}
}

// callOK sends a request expecting a plain OK.
func (c *Client) callOK(msg wire.Message) error {
	env, err := c.call(msg)
	if err != nil {
		return err
	}
	switch m := env.Msg.(type) {
	case wire.OK:
		return nil
	case wire.Err:
		return errors.New(m.Text)
	default:
		return fmt.Errorf("client: unexpected reply %s to %s", env.Msg.MsgType(), msg.MsgType())
	}
}

func (c *Client) dropWaiter(seq uint64) {
	c.mu.Lock()
	delete(c.waiters, seq)
	c.mu.Unlock()
}

// isClosed reports whether Close has started.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// send writes one envelope on the current connection.
func (c *Client) send(env wire.Envelope) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	return conn.Write(env)
}

// failWaiters fails every outstanding request: their replies died with the
// connection and will never arrive, even if a reconnect succeeds.
func (c *Client) failWaiters() {
	c.mu.Lock()
	for seq, ch := range c.waiters {
		close(ch)
		delete(c.waiters, seq)
	}
	c.mu.Unlock()
}

// supervise owns the connection lifecycle: it runs the read loop for the
// current connection and, when reconnection is configured, replaces a dead
// connection and resynchronizes; otherwise the first connection loss is
// final.
func (c *Client) supervise() {
	defer c.wg.Done()
	defer c.inq.close()
	defer close(c.rdone)
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	for {
		c.readConn(conn)
		c.failWaiters()
		if c.isClosed() || c.opts.Reconnect == nil {
			return
		}
		c.slog.Warn("connection lost, reconnecting")
		next, pre, err := c.redial()
		if err != nil {
			c.logf("client %s: reconnect: %v", c.id, err)
			c.slog.Error("reconnect failed", "error", err.Error())
			return
		}
		c.mu.Lock()
		if c.closed {
			// Close ran during the redial and closed the connection it
			// saw, not this one.
			c.mu.Unlock()
			next.Close()
			return
		}
		c.conn = next
		c.mu.Unlock()
		conn = next
		// The mirror may hold removals this client never heard while it was
		// away. Keep the list of its own links for resync to re-create and
		// swap the mirror, in one step, for the closure the server sent
		// ahead of the handshake reply: the links the session still holds
		// (after a server restart), or none (after the server dropped it,
		// when each re-couple delivers its group's links as a merge).
		own := c.links.InstanceLinks(c.id)
		var closure []couple.Link
		for _, env := range pre {
			if m, ok := env.Msg.(wire.LinkAdded); ok {
				closure = append(closure, m.Link)
			}
		}
		c.links.Replace(closure)
		// Traffic the server flushed around the handshake reply (stashed by
		// resume) is routed before the read loop takes over, preserving the
		// server's send order. A routing failure means the fresh connection
		// already died; the read loop below notices immediately and redials.
		for _, env := range pre {
			if !c.handleIncoming(conn, env) {
				break
			}
		}
		// Resync runs concurrently with the resumed read loop: its RPCs need
		// the loop to route replies. Safe to Add here: supervise itself holds
		// the WaitGroup above zero.
		c.wg.Add(1)
		go c.resync(own)
	}
}

// readConn routes replies to waiters and server-initiated traffic to the
// dispatch queue, until conn fails. Batch frames are unpacked here: records
// the read loop handles inline (replies, liveness, link mirroring) are
// routed one by one, and the remaining run is queued as a single Batch so
// the dispatch side can coalesce the acknowledgements of adjacent Execs.
func (c *Client) readConn(conn *wire.Conn) {
	for {
		env, err := conn.Read()
		if err != nil {
			return
		}
		if !c.handleIncoming(conn, env) {
			return
		}
	}
}

// handleIncoming routes one received envelope exactly as the read loop
// does: batches are unpacked with inline-handled records routed one by one,
// everything else goes to the dispatch queue. It reports false when the
// connection or the dispatch queue has failed.
func (c *Client) handleIncoming(conn *wire.Conn, env wire.Envelope) bool {
	if batch, ok := env.Msg.(wire.Batch); ok {
		var rest []wire.Envelope
		for _, inner := range batch.Envelopes {
			handled, err := c.routeLocal(conn, inner)
			if err != nil {
				return false
			}
			if !handled {
				rest = append(rest, inner)
			}
		}
		return len(rest) == 0 || c.inq.push(wire.Envelope{Msg: wire.Batch{Envelopes: rest}})
	}
	handled, err := c.routeLocal(conn, env)
	if err != nil {
		return false
	}
	return handled || c.inq.push(env)
}

// routeLocal handles the message kinds the read loop consumes inline,
// reporting whether env was consumed. A non-nil error means the connection
// failed.
func (c *Client) routeLocal(conn *wire.Conn, env wire.Envelope) (bool, error) {
	if env.RefSeq != 0 {
		c.mu.Lock()
		ch, ok := c.waiters[env.RefSeq]
		if ok {
			delete(c.waiters, env.RefSeq)
		}
		c.mu.Unlock()
		if ok {
			ch <- env
		}
		return true, nil
	}
	switch m := env.Msg.(type) {
	case wire.Ping:
		// Answer liveness probes from the read loop: a slow application
		// callback in the dispatch queue must not make a healthy client
		// look dead.
		return true, conn.Write(wire.Envelope{Msg: wire.Pong{Nonce: m.Nonce}})
	// Coupling information is mirrored synchronously so that a Couple
	// call observes its own link as soon as the server confirmed it
	// (the LinkAdded precedes the OK on the same connection).
	case wire.LinkAdded:
		if err := c.links.AddLink(m.Link); err != nil {
			c.logf("client %s: mirror link: %v", c.id, err)
		}
		return true, nil
	case wire.LinkRemoved:
		if c.links.RemoveLink(m.Link.From, m.Link.To) {
			c.pruneMirror(m.Link)
		}
		return true, nil
	}
	return false, nil
}

// pruneMirror drops the mirrored links the removal of l cut off from this
// instance's objects. The server notifies a link change only to the members
// of the groups it touches, so a part of a group this instance was split
// away from evolves unseen; keeping its links would resurrect departed
// members in CO(o) once the instance rejoins that part.
//
// Every mirrored component held one of the instance's objects before the
// removal, so a side needs no search when it is one of those objects, has
// no links left, or lost only a foreign leaf — the common decouple, which
// keeps the check O(1) at every member of a large group.
func (c *Client) pruneMirror(l couple.Link) {
	ends := [2]couple.ObjectRef{l.From, l.To}
	for i, end := range ends {
		other := ends[1-i]
		if end.Instance == c.id || !c.links.Coupled(end) ||
			(other.Instance != c.id && !c.links.Coupled(other)) {
			continue
		}
		group := c.links.Group(end)
		own := false
		for _, m := range group {
			own = own || m.Instance == c.id
		}
		if !own {
			for _, m := range group {
				c.links.RemoveObject(m)
			}
		}
	}
}

// dispatchLoop is the instance's UI thread for server-initiated work: remote
// event re-execution, state application, lock toggling, state requests and
// command delivery.
func (c *Client) dispatchLoop() {
	defer c.wg.Done()
	for {
		env, ok := c.inq.pop()
		if !ok {
			return
		}
		if batch, ok := env.Msg.(wire.Batch); ok {
			c.dispatchBatch(batch)
			continue
		}
		c.dispatchOne(env)
	}
}

// dispatchOne processes a single server-initiated envelope.
func (c *Client) dispatchOne(env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.Exec:
		c.handleExec(env.Trace, m)
	case wire.SetLocks:
		for _, path := range m.Paths {
			if w, err := c.reg.Lookup(path); err == nil {
				w.SetDisabled(m.Locked)
			}
		}
	case wire.ApplyState:
		c.handleApplyState(m)
	case wire.StateRequest:
		c.handleStateRequest(m)
	case wire.CommandDeliver:
		c.mu.Lock()
		h := c.cmds[m.Name]
		c.mu.Unlock()
		if h != nil {
			c.guard("command handler "+m.Name, env.Trace.Trace, func() {
				h(m.From, m.Payload)
			})
		} else {
			c.logf("client %s: no handler for command %q", c.id, m.Name)
		}
	default:
		c.logf("client %s: unexpected server message %s", c.id, env.Msg.MsgType())
	}
}

// dispatchBatch processes a packed run in record order, coalescing the
// acknowledgements of adjacent Execs into one BatchAck. Each entry keeps
// its own apply-span context, so the server's per-event causal chains and
// its unlock bookkeeping see exactly what N single ExecAcks would have
// delivered, in the same order — just in fewer frames.
func (c *Client) dispatchBatch(batch wire.Batch) {
	var run []wire.BatchAckEntry
	flush := func() {
		switch {
		case len(run) == 0:
		case len(run) == 1:
			// A lone Exec acks exactly as the unbatched path would.
			c.sendExecAck(run[0])
		default:
			if err := c.send(wire.Envelope{Msg: wire.BatchAck{Acks: run}}); err != nil {
				c.logf("client %s: batch ack: %v", c.id, err)
			}
		}
		run = nil
	}
	for _, env := range batch.Envelopes {
		if m, ok := env.Msg.(wire.Exec); ok {
			run = append(run, c.applyExec(env.Trace, m))
			continue
		}
		// A non-Exec record interleaved in the run (a SetLocks between two
		// events' Execs, a state application): flush the pending acks first
		// so the server observes them in record order.
		flush()
		c.dispatchOne(env)
	}
	flush()
}

// guard runs an application callback, converting a panic into a logged
// error so one faulty handler cannot kill the dispatch loop (or lose the
// protocol acknowledgement its caller still owes the server). It reports
// whether fn completed without panicking.
func (c *Client) guard(what string, trace obs.TraceID, fn func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			c.logf("client %s: panic in %s: %v", c.id, what, r)
			c.slog.Error("panic in application callback",
				"callback", what, "panic", fmt.Sprint(r), "trace", trace,
				"stack", string(debug.Stack()))
		}
	}()
	fn()
	return true
}

// inqueue is the unbounded FIFO between the read loop and the dispatch
// loop. It must not apply back-pressure: a blocked push for envelope N
// would also block reading envelope N+1, which may be the RPC reply a
// dispatch-side handler is waiting on — a deadlock, not a slowdown. Memory
// is the accepted cost; the server's outbox limit bounds it from the other
// side by evicting clients that stop draining.
type inqueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []wire.Envelope
	closed bool
}

func newInqueue() *inqueue {
	q := &inqueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends one envelope; it reports false once the queue is closed.
func (q *inqueue) push(env wire.Envelope) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.q = append(q.q, env)
	q.cond.Signal()
	return true
}

// pop blocks for the next envelope; ok is false once the queue is closed
// and drained.
func (q *inqueue) pop() (env wire.Envelope, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.q) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.q) == 0 {
		return wire.Envelope{}, false
	}
	env = q.q[0]
	q.q = q.q[1:]
	return env, true
}

func (q *inqueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Coupled reports whether the local object currently participates in a
// coupling group, according to the locally replicated coupling information.
func (c *Client) Coupled(path string) bool {
	return c.links.Coupled(c.Ref(path))
}

// CO returns the locally mirrored coupling group of a local object,
// excluding the object itself.
func (c *Client) CO(path string) []couple.ObjectRef {
	return c.links.CO(c.Ref(path))
}

// OnCommand registers the handler for an application-defined command name.
func (c *Client) OnCommand(name string, h CommandHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cmds[name] = h
}

// SendCommand sends an application-defined command through the server
// (CoSendCommand, §3.4). Empty targets broadcast to all other instances.
func (c *Client) SendCommand(name string, payload []byte, targets ...couple.InstanceID) error {
	return c.callOK(wire.Command{Name: name, Targets: targets, Payload: payload})
}

// RegisterSemantics attaches store/load functions for the semantic data of
// a local object. They run automatically when the object's state is copied.
func (c *Client) RegisterSemantics(path string, s Semantics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sem[path] = s
}

// Instances returns the server's registration records.
func (c *Client) Instances() ([]wire.InstanceInfo, error) {
	env, err := c.call(wire.ListInstances{})
	if err != nil {
		return nil, err
	}
	switch m := env.Msg.(type) {
	case wire.InstanceList:
		return m.Instances, nil
	case wire.Err:
		return nil, errors.New(m.Text)
	default:
		return nil, fmt.Errorf("client: unexpected reply %s", env.Msg.MsgType())
	}
}

// GrantPerm installs an access-permission rule on the server.
func (c *Client) GrantPerm(user, state string, right uint8) error {
	return c.callOK(wire.GrantPerm{User: user, State: state, Right: right})
}

// RevokePerm removes an access-permission rule on the server.
func (c *Client) RevokePerm(user, state string, right uint8) error {
	return c.callOK(wire.RevokePerm{User: user, State: state, Right: right})
}
