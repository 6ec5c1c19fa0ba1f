package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// serverOptions are the Options cosoftd's flag defaults produce: one shard
// per GOMAXPROCS, batching off, a metrics registry, no tracer, flight
// recorder, heartbeat or event deadline. With a log, cosoftd also turns on
// the replay tail and leaves snapshots off.
func serverOptions(reg *obs.Registry, elog *eventlog.Log) server.Options {
	opts := server.Options{Shards: runtime.GOMAXPROCS(0), Metrics: reg}
	if elog != nil {
		opts.EventLog = elog
		opts.ReplayTail = true
	}
	return opts
}

// logOptions are cosoftd's -log-dir options with -log-sync always.
func logOptions(dir string, reg *obs.Registry) eventlog.Options {
	return eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways, Metrics: reg}
}

// env is one in-process server on a loopback TCP listener, plus the
// clients the benchmark dialed into it.
type env struct {
	reg     *obs.Registry
	elog    *eventlog.Log
	logDir  string
	srv     *server.Server
	lis     net.Listener
	wg      sync.WaitGroup
	clients []*client.Client

	// Traced runs only: every accepted conn is wrapped in a wireConn,
	// found again by the client's local address.
	rec       *recorder
	clientReg *obs.Registry
	mu        sync.Mutex
	wires     map[string]*wireConn
}

func startEnv(logDir string, rec *recorder) (*env, error) {
	e := &env{reg: obs.NewRegistry(), logDir: logDir, rec: rec}
	if rec != nil {
		e.clientReg = obs.NewRegistry()
		e.wires = make(map[string]*wireConn)
	}
	if logDir != "" {
		if err := os.RemoveAll(logDir); err != nil {
			return nil, err
		}
		l, err := eventlog.Open(logOptions(logDir, e.reg))
		if err != nil {
			return nil, err
		}
		e.elog = l
	}
	e.srv = server.New(serverOptions(e.reg, e.elog))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		if e.elog != nil {
			e.elog.Close()
		}
		return nil, err
	}
	e.lis = lis
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			if e.wires != nil {
				w := &wireConn{Conn: conn, rec: e.rec}
				e.mu.Lock()
				e.wires[conn.RemoteAddr().String()] = w
				e.mu.Unlock()
				conn = w
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.srv.HandleConn(wire.NewConn(conn))
			}()
		}
	}()
	return e, nil
}

// dial connects one client with zero-value Options apart from the required
// fields (and the client metrics sink in traced runs), declares its /hub
// textfield and returns it with the server-side wire wrapper (nil when
// untraced).
func (e *env) dial(user string, onRemote func(*widget.Event)) (*client.Client, *wireConn, error) {
	conn, err := net.Dial("tcp", e.lis.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	wreg := widget.NewRegistry()
	widget.MustBuild(wreg, "/", `textfield hub value=""`)
	opts := client.Options{AppType: "bench", User: user, Registry: wreg, OnRemoteEvent: onRemote}
	if e.clientReg != nil {
		opts.Metrics = e.clientReg
	}
	cl, err := client.New(conn, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("handshake %s: %w", user, err)
	}
	e.clients = append(e.clients, cl)
	if err := cl.Declare(hubPath); err != nil {
		return nil, nil, fmt.Errorf("declare %s: %w", user, err)
	}
	var w *wireConn
	if e.wires != nil {
		// The Register round trip has completed, so the server has
		// accepted this conn and the wrapper is in the map.
		e.mu.Lock()
		w = e.wires[conn.LocalAddr().String()]
		e.mu.Unlock()
	}
	return cl, w, nil
}

// closeServer stops the server and its accept loop but leaves the log open.
func (e *env) closeServer() {
	e.srv.Close()
	e.lis.Close()
	e.wg.Wait()
}

// close stops the server first (so a durable server logs no departures),
// then the clients and the log. A server whose loop is wedged never returns
// from Close; after closeTimeout that is reported as an error and the
// stuck goroutines are left to the process exit.
func (e *env) close() error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.closeServer()
		for _, c := range e.clients {
			c.Close()
		}
		if e.elog != nil {
			e.elog.Close()
		}
	}()
	t := time.NewTimer(closeTimeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return fmt.Errorf("server.Close did not return within %v: a server loop is wedged", closeTimeout)
	}
}

const closeTimeout = 5 * time.Second

func (e *env) counter(name string) uint64 { return e.reg.Snapshot().Counters[name] }

const hubPath = "/hub"

// wireConn counts and times Read and Write calls on one server-side
// connection. Wrapping hides the *net.TCPConn, so the wire layer flushes
// each frame run with one coalesced Write instead of writev: still one
// system call per flush.
type wireConn struct {
	net.Conn
	rec        *recorder
	owner      atomic.Int64 // group or churner index + 1; 0 = none
	seq        *atomic.Uint64
	writes     atomic.Uint64
	writeBytes atomic.Uint64
	writeNS    atomic.Uint64
	reads      atomic.Uint64
}

func (w *wireConn) spanID() uint64 {
	o := w.owner.Load()
	if o == 0 || w.seq == nil {
		return 0
	}
	return spanID(int(o-1), w.seq.Load())
}

func (w *wireConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.Conn.Write(p)
	t1 := time.Now()
	w.writes.Add(1)
	w.writeBytes.Add(uint64(n))
	w.writeNS.Add(uint64(t1.Sub(t0)))
	w.rec.record(spanWireWrite, w.spanID(), t0, t1)
	return n, err
}

func (w *wireConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.Conn.Read(p)
	w.reads.Add(1)
	w.rec.record(spanWireRead, w.spanID(), t0, time.Now())
	return n, err
}

// wireTotals sums the counters of every wrapped conn.
type wireTotals struct{ writes, writeBytes, writeNS, reads uint64 }

func (e *env) wireTotals() wireTotals {
	var t wireTotals
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.wires {
		t.writes += w.writes.Load()
		t.writeBytes += w.writeBytes.Load()
		t.writeNS += w.writeNS.Load()
		t.reads += w.reads.Load()
	}
	return t
}

func (a wireTotals) sub(b wireTotals) wireTotals {
	return wireTotals{a.writes - b.writes, a.writeBytes - b.writeBytes, a.writeNS - b.writeNS, a.reads - b.reads}
}

// payloadArg builds an event argument whose text carries the event's
// group and sequence number ahead of the filler.
func payloadArg(group int, seq uint64, filler string) []attr.Value {
	return []attr.Value{attr.String(fmt.Sprintf("%d.%d|%s", group, seq, filler))}
}

// parsePayload recovers the group and sequence number from an event.
func parsePayload(e *widget.Event) (group int, seq uint64, err error) {
	if len(e.Args) != 1 {
		return 0, 0, fmt.Errorf("event %s has %d args", e.Name, len(e.Args))
	}
	s := e.Args[0].AsString()
	if _, err := fmt.Sscanf(s, "%d.%d|", &group, &seq); err != nil {
		return 0, 0, fmt.Errorf("event payload %.20q: %w", s, err)
	}
	return group, seq, nil
}

// coupleTree couples members into one group along a seeded random tree:
// member i (i ≥ 1) couples its /hub to that of a random earlier member, so
// every join merges a singleton into the growing group through a different
// member. It returns the script as links for the standalone graph replay.
func coupleTree(members []*client.Client, parents []int, onCouple func(joiner int, d time.Duration)) ([]couple.Link, error) {
	var script []couple.Link
	for i := 1; i < len(members); i++ {
		to := members[parents[i]].Ref(hubPath)
		t0 := time.Now()
		if err := members[i].Couple(hubPath, to); err != nil {
			return nil, fmt.Errorf("couple member %d: %w", i, err)
		}
		if onCouple != nil {
			onCouple(i, time.Since(t0))
		}
		script = append(script, couple.Link{From: members[i].Ref(hubPath), To: to})
	}
	return script, nil
}

// mirrorsShow waits until every member's mirrored closure contains (or,
// with present false, lacks) ref, or the timeout passes, and returns the
// time it saw the last member converge. Members converge at about the same
// time, so it polls one member at a time, backing off to an eighth of the
// time waited so far: the time it reports overshoots by at most an eighth.
// The polls' CPU counts in cpu_us_per_op (README.md, Harness cost).
func mirrorsShow(members []*client.Client, ref couple.ObjectRef, present bool, timeout time.Duration) (time.Time, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	now := start
	for _, m := range members {
		for containsRef(m.CO(hubPath), ref) != present {
			if now.After(deadline) {
				return now, fmt.Errorf("mirror of %s never showed %s present=%v", m.ID(), ref, present)
			}
			time.Sleep(min(max(now.Sub(start)/8, 50*time.Microsecond), time.Millisecond))
			now = time.Now()
		}
	}
	return time.Now(), nil
}

// mirrorsFormed waits until every member's mirror holds the whole group.
func mirrorsFormed(members []*client.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, m := range members {
		for len(m.CO(hubPath)) != len(members)-1 {
			if time.Now().After(deadline) {
				return fmt.Errorf("mirror of %s holds %d of %d members", m.ID(), len(m.CO(hubPath)), len(members)-1)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}

func containsRef(refs []couple.ObjectRef, r couple.ObjectRef) bool {
	for _, x := range refs {
		if x == r {
			return true
		}
	}
	return false
}
