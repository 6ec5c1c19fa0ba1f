package server

// Crash-point recovery harness: a scripted session runs against a durable
// server whose event log is armed to "crash" — abandon an I/O operation
// mid-flight and fail every later append — at one exact write or fsync
// boundary. The log directory is then reopened and replayed into a fresh
// server, whose databases must equal those of a shadow server driven live
// with exactly the operations the log managed to make durable. Sweeping the
// crash point across every boundary of the script proves no append site
// acknowledges state the replay cannot rebuild.
//
// The record⇄operation correspondence the harness relies on: every scripted
// operation appends exactly one log record before its acknowledgement (the
// clients do not enable Reconnect, so no token records interleave), and under
// the `always` sync policy each record costs one write plus one fsync
// boundary. A crash at a write boundary loses that record (torn or absent
// tail); a crash at an fsync boundary leaves the record fully written — the
// harness does not model page-cache loss — so the durable prefix is always
// ops[0:R] with R read back by Fsck, never an interior gap.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	coclient "cosoft/internal/client"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/perm"
	"cosoft/internal/widget"
	"cosoft/internal/wire"

	"cosoft/internal/netsim"
)

// crashRig is an in-package client harness (the white-box twin of the
// server_test harness; a separate type because this file needs Server
// internals for the state digest).
type crashRig struct {
	t   *testing.T
	srv *Server
	wg  sync.WaitGroup
	cl  map[string]*coclient.Client
}

func newCrashRig(t *testing.T, opts Options) *crashRig {
	t.Helper()
	return &crashRig{t: t, srv: New(opts), cl: make(map[string]*coclient.Client)}
}

func (r *crashRig) dial(name, user string) {
	r.t.Helper()
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x value=""`)
	link := netsim.NewLink(0)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.srv.HandleConn(wire.NewConn(link.B))
	}()
	c, err := coclient.New(link.A, coclient.Options{
		AppType: "app", User: user, Host: "crash", Registry: reg,
		RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		r.t.Fatalf("dial %s: %v", name, err)
	}
	r.cl[name] = c
}

// shutdown closes the server first — its shutdown-provoked drops are not
// logged — and only then the clients, so no Deregister can reach the log and
// the record stream stays exactly the scripted operations.
func (r *crashRig) shutdown() {
	r.srv.Close()
	for _, c := range r.cl {
		c.Close()
	}
	r.wg.Wait()
}

func (r *crashRig) mustOK(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *crashRig) wait(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	r.t.Fatalf("timed out waiting for %s", what)
}

func (r *crashRig) value(name string) string {
	r.t.Helper()
	w, err := r.cl[name].Registry().Lookup("/x")
	if err != nil {
		r.t.Fatalf("lookup /x at %s: %v", name, err)
	}
	return w.Attr(widget.AttrValue).AsString()
}

// dispatchTo fires a changed event at origin and waits until every member in
// peers mirrors the value — the quiesce point that makes the next operation's
// server-side inputs (fetched states, group membership) deterministic.
func (r *crashRig) dispatchTo(origin, val string, peers ...string) {
	r.t.Helper()
	// The previous event's SetLocks re-enable notification is asynchronous;
	// dispatching from a still-disabled widget would fail locally.
	r.wait(origin+" re-enabled", func() bool {
		w, err := r.cl[origin].Registry().Lookup("/x")
		return err == nil && !w.Disabled()
	})
	r.mustOK(r.cl[origin].DispatchChecked(&widget.Event{
		Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String(val)},
	}))
	for _, p := range peers {
		p := p
		r.wait(p+" mirrors "+val, func() bool { return r.value(p) == val })
	}
}

// crashOps is the scripted session. Each op appends exactly one log record
// (kind in the comment) and leaves the system quiescent, so the durable
// record count R maps back to the op prefix ops[0:R].
func crashOps() []func(r *crashRig) {
	return []func(r *crashRig){
		func(r *crashRig) { r.dial("A", "u1") },                 // Register
		func(r *crashRig) { r.dial("B", "u2") },                 // Register
		func(r *crashRig) { r.mustOK(r.cl["A"].Declare("/x")) }, // Declare
		func(r *crashRig) { r.mustOK(r.cl["B"].Declare("/x")) }, // Declare
		func(r *crashRig) { // Couple
			r.mustOK(r.cl["A"].Couple("/x", r.cl["B"].Ref("/x")))
			r.wait("A coupled", func() bool { return r.cl["A"].Coupled("/x") })
			r.wait("B coupled", func() bool { return r.cl["B"].Coupled("/x") })
		},
		func(r *crashRig) { r.dispatchTo("A", "one", "B") }, // Event
		func(r *crashRig) { r.dispatchTo("B", "two", "A") }, // Event
		func(r *crashRig) { // Hist (CopyTo backs up B's state)
			r.mustOK(r.cl["A"].CopyTo("/x", r.cl["B"].Ref("/x"), false))
		},
		func(r *crashRig) { r.mustOK(r.cl["B"].Undo("/x")) },    // Undo
		func(r *crashRig) { r.mustOK(r.cl["B"].Redo("/x")) },    // Redo
		func(r *crashRig) { r.dial("C", "u3") },                 // Register
		func(r *crashRig) { r.mustOK(r.cl["C"].Declare("/x")) }, // Declare
		func(r *crashRig) { // Couple (second group merge)
			r.mustOK(r.cl["C"].Couple("/x", r.cl["A"].Ref("/x")))
			r.wait("C sees group of 3", func() bool { return len(r.cl["C"].CO("/x")) == 2 })
		},
		func(r *crashRig) { r.dispatchTo("C", "three", "A", "B") }, // Event
		func(r *crashRig) { // Decouple
			r.mustOK(r.cl["A"].Decouple("/x", r.cl["B"].Ref("/x")))
		},
		func(r *crashRig) { // Perm
			r.mustOK(r.cl["A"].GrantPerm("u3", "*", uint8(perm.RightControl)))
		},
		func(r *crashRig) { // Retract (Destroy auto-retracts)
			r.mustOK(r.cl["C"].Registry().Destroy("/x"))
		},
	}
}

// renderGlobalState writes the digest lines for the registration records
// with declared objects, couple links and permission rules. It reads the databases directly — crashDigest posts it onto the
// live state loop; foldDigest (snapshot_recovery_test.go) calls it on
// loop-less fold replicas.
func renderGlobalState(b *strings.Builder, s *Server) {
	ids := s.reg.Instances()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec, err := s.reg.Lookup(id)
		if err != nil {
			continue
		}
		paths := make([]string, 0, len(rec.Objects))
		for p := range rec.Objects {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		fmt.Fprintf(b, "inst %s type=%s host=%s user=%s objs=[", rec.ID, rec.AppType, rec.Host, rec.User)
		for _, p := range paths {
			fmt.Fprintf(b, " %s:%s", p, rec.Objects[p])
		}
		fmt.Fprint(b, " ]\n")
	}
	for _, l := range s.graph.Links() {
		fmt.Fprintf(b, "link %s by %s\n", l, l.Creator)
	}
	for _, rule := range s.perms.Rules() {
		fmt.Fprintf(b, "perm %s\n", rule)
	}
}

// renderEventState writes the digest lines of the event path: the event-ID
// sequence and the history stacks.
func renderEventState(b *strings.Builder, s *Server) {
	fmt.Fprintf(b, "event seq=%d\n", s.eventSeq)
	for _, ref := range s.history.Refs() {
		undo, redo := s.history.Stacks(ref)
		fmt.Fprintf(b, "hist %s undo=%s redo=%s\n", ref, renderHistStack(undo), renderHistStack(redo))
	}
}

func renderHistStack(list []hist.Snapshot) string {
	var sb strings.Builder
	for _, sn := range list {
		fmt.Fprintf(&sb, "{%s|%v|%s}", sn.Ref, sn.State, sn.Origin) // At excluded: wall clock
	}
	return sb.String()
}

// crashDigest renders the replayable server databases — registration records
// with declared objects, couple links, permission rules, the event sequence
// and history stacks — into a canonical string. Everything
// excluded is deliberately not replayed: lock tables and pending events
// (transient floor control), session tokens (random per run), connection
// state, timestamps.
func crashDigest(s *Server) string {
	var b strings.Builder
	done := make(chan struct{})
	s.post(func() {
		defer close(done)
		renderGlobalState(&b, s)
		renderEventState(&b, s)
	})
	<-done
	return b.String()
}

// TestCrashPointRecovery sweeps the crash point across every write and fsync
// boundary the scripted session generates. For each boundary: run the script
// (the server keeps serving after the log dies — durability degrades, live
// consistency does not), reopen the log directory (truncating any torn
// tail), replay it into a fresh server, and require its digest to equal a
// shadow server driven live with exactly the durable op prefix.
func TestCrashPointRecovery(t *testing.T) {
	ops := crashOps()
	for op := 1; ; op++ {
		// Alternate a clean abandon (nothing reaches the file) with a torn
		// partial write, so both tail signatures are recovered from.
		partial := 0
		if op%2 == 0 {
			partial = 5
		}
		dir := t.TempDir()
		elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		elog.CrashPoint(op, partial)

		rig := newCrashRig(t, Options{EventLog: elog})
		for _, run := range ops {
			run(rig)
		}
		rig.shutdown()
		fired := elog.CrashFired()
		if err := elog.Close(); err != nil && !fired {
			t.Fatalf("boundary %d: close: %v", op, err)
		}

		rep, err := eventlog.Fsck(dir)
		if err != nil {
			t.Fatalf("boundary %d: fsck: %v", op, err)
		}
		if rep.Records > len(ops) {
			t.Fatalf("boundary %d: %d durable records for %d ops", op, rep.Records, len(ops))
		}
		if !fired && rep.Records != len(ops) {
			t.Fatalf("no crash, yet %d records for %d ops — an op logged more or less than one record", rep.Records, len(ops))
		}

		// Replay into a fresh server.
		elog2, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
		if err != nil {
			t.Fatalf("boundary %d: reopen: %v", op, err)
		}
		recovered := newCrashRig(t, Options{EventLog: elog2})
		got := crashDigest(recovered.srv)
		recovered.shutdown()
		if err := elog2.Close(); err != nil {
			t.Fatalf("boundary %d: close reopened: %v", op, err)
		}

		// Shadow: a plain in-memory server driven with the durable prefix.
		shadow := newCrashRig(t, Options{})
		for _, run := range ops[:rep.Records] {
			run(shadow)
		}
		want := crashDigest(shadow.srv)
		shadow.shutdown()

		if got != want {
			t.Fatalf("boundary %d (partial=%d, fired=%v, durable=%d/%d):\nreplayed state:\n%s\nshadow state:\n%s",
				op, partial, fired, rep.Records, len(ops), got, want)
		}
		if !fired {
			t.Logf("swept %d crash boundaries (%d ops, %d records)", op-1, len(ops), rep.Records)
			return
		}
	}
}
