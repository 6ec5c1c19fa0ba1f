package server_test

// Group formation sends deltas: a Couple that merges two groups sends each
// side the other side's links plus the new one, and a Couple inside one
// group sends only the new link and replays no event tail.

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// rawGroup is a set of raw clients, each declaring the textfield /x.
type rawGroup []*rawClient

func newRawGroup(t *testing.T, h *harness, n int) rawGroup {
	t.Helper()
	g := make(rawGroup, n)
	for i := range g {
		g[i] = newRawClient(t, h, "app", "u")
		g[i].mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	}
	return g
}

func (g rawGroup) ref(i int) couple.ObjectRef {
	return couple.ObjectRef{Instance: g[i].id, Path: "/x"}
}

// received waits until everything the server sent each client before this
// call has been read (a Ping round trip queues behind it on the same
// outbox), then drains and counts the LinkAdded and Exec messages.
func (g rawGroup) received() (links, execs []int) {
	links, execs = make([]int, len(g)), make([]int, len(g))
	for i, rc := range g {
		rc.call(wire.Ping{Nonce: 1})
		for drained := false; !drained; {
			select {
			case env := <-rc.events:
				switch env.Msg.(type) {
				case wire.LinkAdded:
					links[i]++
				case wire.Exec:
					execs[i]++
				}
			default:
				drained = true
			}
		}
	}
	return links, execs
}

// TestDeltaJoinExactCounts forms a seeded 16-member couple tree with raw
// clients. A singleton joining a group of k learns the group's k-1 links
// plus the new one; every existing member learns only the new link. The
// whole formation sends N(N-1) LinkAdded — quadratic, not cubic.
func TestDeltaJoinExactCounts(t *testing.T) {
	const n = 16
	h := newHarness(t, server.Options{})
	g := newRawGroup(t, h, n)
	rng := rand.New(rand.NewSource(16))
	total := 0
	for k := 1; k < n; k++ {
		g[k].mustOK(wire.Couple{From: g.ref(k), To: g.ref(rng.Intn(k))})
		links, _ := g.received()
		for i, got := range links {
			want := 0
			switch {
			case i == k:
				want = k
			case i < k:
				want = 1
			}
			if got != want {
				t.Fatalf("join %d: member %d received %d LinkAdded, want %d", k, i, got, want)
			}
			total += got
		}
	}
	if total != n*(n-1) {
		t.Fatalf("formation sent %d LinkAdded, want %d", total, n*(n-1))
	}
}

// execAll sends one event from member 0 and acks its Exec at every other
// member, so the event is committed and sits in the group's replay tail.
func (g rawGroup) execAll(t *testing.T) {
	t.Helper()
	res, ok := g[0].call(wire.Event{Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String("v")}}).Msg.(wire.EventResult)
	if !ok || !res.OK {
		t.Fatalf("event not accepted: %+v", res)
	}
	for _, rc := range g[1:] {
		rc.send(wire.ExecAck{EventID: nextEvent[wire.Exec](rc).EventID})
	}
}

// TestCycleClosingCoupleSendsOnlyTheLink closes a cycle inside a seeded
// 8-member tree whose tail holds a committed event: every member instance
// receives exactly the one new link and no Exec.
func TestCycleClosingCoupleSendsOnlyTheLink(t *testing.T) {
	const n = 8
	h := newHarness(t, server.Options{ReplayTail: true})
	g := newRawGroup(t, h, n)
	rng := rand.New(rand.NewSource(8))
	parent := make([]int, n)
	for k := 1; k < n; k++ {
		parent[k] = rng.Intn(k)
		g[k].mustOK(wire.Couple{From: g.ref(k), To: g.ref(parent[k])})
	}
	g.execAll(t)
	g.received()

	// Member n-1 couples to a member it is not linked to: a cycle.
	to := 0
	if parent[n-1] == 0 {
		to = 1
	}
	g[n-1].mustOK(wire.Couple{From: g.ref(n - 1), To: g.ref(to)})
	links, execs := g.received()
	for i := range g {
		if links[i] != 1 || execs[i] != 0 {
			t.Errorf("member %d received %d LinkAdded and %d Exec, want 1 and 0", i, links[i], execs[i])
		}
	}
}

// TestSameGroupCoupleReplaysNoTail: with A–B and B–C coupled and one
// committed event from A, coupling A–C (already one group) must not replay
// the group's tail to its own members. It used to send B the event twice
// more, once per direction.
func TestSameGroupCoupleReplaysNoTail(t *testing.T) {
	h := newHarness(t, server.Options{ReplayTail: true})
	g := newRawGroup(t, h, 3)
	g[0].mustOK(wire.Couple{From: g.ref(0), To: g.ref(1)})
	g[1].mustOK(wire.Couple{From: g.ref(1), To: g.ref(2)})
	g.execAll(t)
	g.received()

	g[0].mustOK(wire.Couple{From: g.ref(0), To: g.ref(2)})
	if _, execs := g.received(); execs[1] != 0 {
		t.Fatalf("B re-received %d Execs after a same-group couple", execs[1])
	}
}

// resumer is a reconnect-enabled client of a durable server that counts
// its remote executions and finished resyncs. While held, its redials wait,
// so it stays away across a restart until released.
type resumer struct {
	*client.Client
	remote, resyncs atomic.Int32

	mu   sync.Mutex
	gate chan struct{} // non-nil while held
}

func (d *durableServer) resumer(user string) *resumer {
	d.t.Helper()
	r := &resumer{}
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", `textfield x value=""`)
	conn, _ := d.dialConn()
	c, err := client.New(conn, client.Options{
		AppType: "app", User: user, Host: "durable", Registry: reg,
		RPCTimeout:    5 * time.Second,
		Batching:      envBatchLimit > 0,
		OnRemoteEvent: func(*widget.Event) { r.remote.Add(1) },
		Reconnect: &client.ReconnectOptions{
			Dial: func() (net.Conn, error) {
				r.mu.Lock()
				gate := r.gate
				r.mu.Unlock()
				if gate != nil {
					<-gate
				}
				return d.dialConn()
			},
			MaxAttempts:   50,
			BaseDelay:     2 * time.Millisecond,
			MaxDelay:      50 * time.Millisecond,
			SkipStatePull: true,
			OnResync:      func(error) { r.resyncs.Add(1) },
		},
	})
	if err != nil {
		d.t.Fatalf("dial %s: %v", user, err)
	}
	r.Client = c
	d.t.Cleanup(c.Close)
	d.t.Cleanup(r.release) // runs first: a held redial would block Close
	mustOK(d.t, c.Declare("/x"))
	return r
}

func (r *resumer) hold() {
	r.mu.Lock()
	r.gate = make(chan struct{})
	r.mu.Unlock()
}

func (r *resumer) release() {
	r.mu.Lock()
	if r.gate != nil {
		close(r.gate)
		r.gate = nil
	}
	r.mu.Unlock()
}

func (r *resumer) value(t *testing.T) string {
	return attrOf(t, r.Client, "/x", widget.AttrValue).AsString()
}

// dispatch sends v from r's /x, retrying while the group is locked.
func (r *resumer) dispatch(t *testing.T, v string) {
	t.Helper()
	waitFor(t, "dispatch "+v, func() bool {
		return r.DispatchChecked(&widget.Event{
			Path: "/x", Name: widget.EventChanged, Args: []attr.Value{attr.String(v)},
		}) == nil
	})
}

// coupledPair returns two resumers with their /x objects coupled and three
// events v1..v3 from a applied at b.
func coupledPair(t *testing.T, d *durableServer) (a, b *resumer) {
	a, b = d.resumer("u1"), d.resumer("u2")
	mustOK(t, a.Couple("/x", b.Ref("/x")))
	waitFor(t, "coupled", func() bool { return a.Coupled("/x") && b.Coupled("/x") })
	for _, v := range []string{"v1", "v2", "v3"} {
		a.dispatch(t, v)
		waitFor(t, "B applied "+v, func() bool { return b.value(t) == v })
	}
	return a, b
}

// TestRestartResumeReplaysNoTail: after a server restart each resumed
// client re-couples links the replayed server already holds. Those are
// same-group couples, so the peer must re-execute each event exactly once.
func TestRestartResumeReplaysNoTail(t *testing.T) {
	d := newDurableServer(t, server.Options{})
	a, b := coupledPair(t, d)
	d.restart()
	waitFor(t, "both clients resynced", func() bool { return a.resyncs.Load() == 1 && b.resyncs.Load() == 1 })
	a.dispatch(t, "v4")
	waitFor(t, "B applied v4", func() bool { return b.value(t) == "v4" })
	// Let any replayed tail land before counting.
	time.Sleep(100 * time.Millisecond)
	if got := b.remote.Load(); got != 4 {
		t.Fatalf("B re-executed %d remote events, want 4", got)
	}
}

// TestRestartResumeCatchesUpMissedEvents: A resumes after a restart and
// dispatches v4 while B, whose pre-restart record the server kept, is
// still away. B's resume adopts that record and its re-couple is a
// same-group Couple, so the server must send B the events committed since
// the restart on its own: B reaches v4, executing each event once.
func TestRestartResumeCatchesUpMissedEvents(t *testing.T) {
	d := newDurableServer(t, server.Options{})
	a, b := coupledPair(t, d)
	b.hold()
	d.restart()
	waitFor(t, "A resynced", func() bool { return a.resyncs.Load() == 1 })
	a.dispatch(t, "v4")
	a.dispatch(t, "v5")
	b.release()
	waitFor(t, "B resynced", func() bool { return b.resyncs.Load() == 1 })
	waitFor(t, "B applied v5", func() bool { return b.value(t) == "v5" })
	time.Sleep(100 * time.Millisecond)
	if got := b.remote.Load(); got != 5 {
		t.Fatalf("B executed %d remote events, want 5", got)
	}
}

// TestRestartResumeDropsRemovedLinks: B–A and A–C form one group; across a
// restart B stays away while A decouples C. B's mirror still holds A–C, a
// link B's resync does not re-create; after the resume B's mirrored CO must
// equal the server's closure, which no longer contains C.
func TestRestartResumeDropsRemovedLinks(t *testing.T) {
	d := newDurableServer(t, server.Options{})
	a, b, c := d.resumer("u1"), d.resumer("u2"), d.resumer("u3")
	mustOK(t, b.Couple("/x", a.Ref("/x")))
	mustOK(t, a.Couple("/x", c.Ref("/x")))
	waitFor(t, "B mirrors the group", func() bool { return len(b.CO("/x")) == 2 })
	b.hold()
	d.restart()
	waitFor(t, "A and C resynced", func() bool { return a.resyncs.Load() == 1 && c.resyncs.Load() == 1 })
	mustOK(t, a.Decouple("/x", c.Ref("/x")))
	b.release()
	waitFor(t, "B resynced", func() bool { return b.resyncs.Load() == 1 })

	serverCO := func() []string {
		d.mu.Lock()
		srv := d.srv
		d.mu.Unlock()
		self := b.Ref("/x").String()
		for _, g := range srv.Health().Groups {
			if slices.Contains(g.Refs, self) {
				return slices.DeleteFunc(slices.Clone(g.Refs), func(r string) bool { return r == self })
			}
		}
		return nil
	}
	mirrorCO := func() []string {
		var out []string
		for _, o := range b.CO("/x") {
			out = append(out, o.String())
		}
		return out
	}
	want := []string{a.Ref("/x").String()}
	if got := serverCO(); !slices.Equal(got, want) {
		t.Fatalf("server CO(B:/x) = %v, want %v", got, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !slices.Equal(mirrorCO(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("B's mirrored CO(/x) = %v, server's %v", mirrorCO(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
