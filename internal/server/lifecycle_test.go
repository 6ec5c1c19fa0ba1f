package server_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/netsim"
	"cosoft/internal/server"
	"cosoft/internal/wire"
)

// TestDropClientNotifiesChainSurvivors is the regression test for the
// disconnect stale-link split: in the chain A–B–C, when B disconnects, both
// A and C must hear that BOTH links died. The buggy dropClient computed the
// survivor groups after RemoveInstance, by which time A and C sat in
// separate components, so each missed the removal of the other's link and
// kept a stale mirrored entry forever.
func TestDropClientNotifiesChainSurvivors(t *testing.T) {
	h := newHarness(t, server.Options{})
	a := newRawClient(t, h, "app", "alice")
	b := newRawClient(t, h, "app", "bob")
	c := newRawClient(t, h, "app", "carol")
	for _, rc := range []*rawClient{a, b, c} {
		rc.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	}
	refA := couple.ObjectRef{Instance: a.id, Path: "/x"}
	refB := couple.ObjectRef{Instance: b.id, Path: "/x"}
	refC := couple.ObjectRef{Instance: c.id, Path: "/x"}
	a.mustOK(wire.Couple{From: refA, To: refB})
	b.mustOK(wire.Couple{From: refB, To: refC})
	// Both ends of the chain must know both links before B leaves.
	for _, rc := range []*rawClient{a, c} {
		seen := map[couple.Link]bool{}
		for len(seen) < 2 {
			seen[nextEvent[wire.LinkAdded](rc).Link] = true
		}
	}

	b.conn.Close()

	// A and C each must see LinkRemoved for BOTH links of the chain, even
	// though after B's removal they are no longer connected to each other.
	want := map[couple.Link]bool{
		{From: refA, To: refB, Creator: a.id}: true,
		{From: refB, To: refC, Creator: b.id}: true,
	}
	for _, rc := range []*rawClient{a, c} {
		got := map[couple.Link]bool{}
		for len(got) < 2 {
			got[nextEvent[wire.LinkRemoved](rc).Link] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s saw removals %v, want %v", rc.id, got, want)
		}
	}
}

// resumeAttempt opens a fresh connection and presents token in a Resume
// handshake, returning the server's first reply.
func resumeAttempt(t *testing.T, h *harness, token string) (wire.Envelope, *wire.Conn) {
	t.Helper()
	link := netsim.NewLink(0)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.HandleConn(wire.NewConn(link.B))
	}()
	conn := wire.NewConn(link.A)
	if err := conn.Write(wire.Envelope{Seq: 1, Msg: wire.Resume{Token: token}}); err != nil {
		t.Fatal(err)
	}
	env, err := conn.Read()
	if err != nil {
		t.Fatal(err)
	}
	return env, conn
}

// call performs one correlated request/reply on a bare resumed connection.
func connCall(t *testing.T, conn *wire.Conn, seq uint64, msg wire.Message) wire.Envelope {
	t.Helper()
	if err := conn.Write(wire.Envelope{Seq: seq, Msg: msg}); err != nil {
		t.Fatal(err)
	}
	for {
		env, err := conn.Read()
		if err != nil {
			t.Fatal(err)
		}
		if env.RefSeq == seq {
			return env
		}
	}
}

// TestSessionTokenLifecycle covers the token lifecycle fixes: re-minting
// invalidates the previous token, a resume consumes the token it presented,
// and Deregister drops the outstanding token — so the sessions map is
// bounded and no stale token can hijack a session.
func TestSessionTokenLifecycle(t *testing.T) {
	h := newHarness(t, server.Options{})
	rc := newRawClient(t, h, "app", "alice")

	tok1 := rc.call(wire.SessionToken{}).Msg.(wire.SessionToken).Token
	tok2 := rc.call(wire.SessionToken{}).Msg.(wire.SessionToken).Token

	// Re-minting replaced tok1: it must not resume anything.
	if env, conn := resumeAttempt(t, h, tok1); true {
		conn.Close()
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("superseded token resumed: got %s", env.Msg.MsgType())
		}
	}

	// The current token resumes the session (superseding rc's connection).
	env, conn := resumeAttempt(t, h, tok2)
	defer conn.Close()
	reg, ok := env.Msg.(wire.Registered)
	if !ok || reg.ID != rc.id {
		t.Fatalf("resume with live token: got %v, want Registered{%s}", env.Msg, rc.id)
	}

	// Tokens are single-use: the consumed token must not resume again (that
	// would hijack the live resumed session).
	if env, conn := resumeAttempt(t, h, tok2); true {
		conn.Close()
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("consumed token resumed again: got %s", env.Msg.MsgType())
		}
	}

	// Deregister drops the outstanding token with the registration.
	tok3 := connCall(t, conn, 2, wire.SessionToken{}).Msg.(wire.SessionToken).Token
	if e, isErr := connCall(t, conn, 3, wire.Deregister{}).Msg.(wire.Err); isErr {
		t.Fatalf("deregister: %s", e.Text)
	}
	if env, conn := resumeAttempt(t, h, tok3); true {
		conn.Close()
		if _, isErr := env.Msg.(wire.Err); !isErr {
			t.Fatalf("token survived Deregister: got %s", env.Msg.MsgType())
		}
	}
}

// TestEventTimeoutHistogram checks that deadline-resolved events land in the
// event_timeout_wait histogram and never pollute the round-trip histogram
// with deadline-sized outliers.
func TestEventTimeoutHistogram(t *testing.T) {
	h := newHarness(t, server.Options{EventDeadline: 40 * time.Millisecond})
	origin := newRawClient(t, h, "app", "alice")
	member := newRawClient(t, h, "app", "bob") // never acks its Execs
	origin.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	member.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	origin.mustOK(wire.Couple{
		From: couple.ObjectRef{Instance: origin.id, Path: "/x"},
		To:   couple.ObjectRef{Instance: member.id, Path: "/x"},
	})

	res := origin.call(wire.Event{Path: "/x", Name: "changed", Args: []attr.Value{attr.String("v")}})
	if r, ok := res.Msg.(wire.EventResult); !ok || !r.OK {
		t.Fatalf("event not accepted: %v", res.Msg)
	}
	waitFor(t, "event deadline to fire", func() bool {
		return h.srv.Stats().EventTimeouts >= 1
	})
	st := h.srv.Stats()
	if st.EventTimeoutWait.Count != 1 {
		t.Errorf("EventTimeoutWait.Count = %d, want 1", st.EventTimeoutWait.Count)
	}
	if st.EventRTT.Count != 0 {
		t.Errorf("EventRTT.Count = %d, want 0 (timeout must not feed the RTT histogram)", st.EventRTT.Count)
	}
}

// participant is one raw client in the multi-group trace, with an
// ack pump that records the Exec names it re-executed, in arrival order.
type participant struct {
	rc  *rawClient
	mu  sync.Mutex
	got []string
}

func newParticipant(t *testing.T, h *harness, user string) *participant {
	p := &participant{rc: newRawClient(t, h, "app", user)}
	p.rc.mustOK(wire.Declare{Path: "/x", Class: "textfield"})
	go func() {
		for env := range p.rc.events {
			if ex, ok := env.Msg.(wire.Exec); ok {
				p.mu.Lock()
				p.got = append(p.got, ex.Name)
				p.mu.Unlock()
				p.rc.send(wire.ExecAck{EventID: ex.EventID})
			}
		}
	}()
	return p
}

func (p *participant) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.got)
}

func (p *participant) sequence() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.got...)
}

func (p *participant) ref() couple.ObjectRef {
	return couple.ObjectRef{Instance: p.rc.id, Path: "/x"}
}

// sendEvent dispatches one named event, retrying while the group lock is
// held by a still-unacknowledged predecessor.
func (p *participant) sendEvent(t *testing.T, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		env := p.rc.call(wire.Event{Path: "/x", Name: name})
		res, ok := env.Msg.(wire.EventResult)
		if !ok {
			t.Fatalf("event %s: unexpected reply %s", name, env.Msg.MsgType())
		}
		if res.OK {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("event %s never accepted", name)
}

// TestMultiGroupExecOrder drives a multi-group trace through the one state
// loop and checks every participant's per-member Exec order: 8
// two-instance groups run 4 events each concurrently, pairs of groups are
// then merged, and each merged group runs 4 more events across the new
// four-member group. Disjoint groups interleave freely at the loop, but
// each member must see its own groups' events exactly in dispatch order.
func TestMultiGroupExecOrder(t *testing.T) {
	const groups = 8
	const eventsPerPhase = 4
	h := newHarness(t, server.Options{})
	origins := make([]*participant, groups)
	members := make([]*participant, groups)
	for g := 0; g < groups; g++ {
		origins[g] = newParticipant(t, h, fmt.Sprintf("origin%d", g))
		members[g] = newParticipant(t, h, fmt.Sprintf("member%d", g))
	}
	for g := 0; g < groups; g++ {
		origins[g].rc.mustOK(wire.Couple{From: origins[g].ref(), To: members[g].ref()})
	}

	// stream runs one phase: each listed origin dispatches its events from
	// its own goroutine, all concurrently.
	stream := func(prefix string, step int) {
		var wg sync.WaitGroup
		for g := 0; g < groups; g += step {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := 0; e < eventsPerPhase; e++ {
					origins[g].sendEvent(t, fmt.Sprintf("%s%d.e%d", prefix, g, e))
				}
			}()
		}
		wg.Wait()
	}
	phase := func(prefix string, g int) []string {
		var names []string
		for e := 0; e < eventsPerPhase; e++ {
			names = append(names, fmt.Sprintf("%s%d.e%d", prefix, g, e))
		}
		return names
	}

	// Phase 1: every group streams events concurrently with the others.
	stream("g", 1)
	for g := 0; g < groups; g++ {
		g := g
		waitFor(t, fmt.Sprintf("phase-1 execs at member%d", g), func() bool {
			return members[g].count() >= eventsPerPhase
		})
	}
	// Merge phase: pair up the groups, then the left origin of each merged
	// group streams events that fan out to all three other participants.
	for g := 0; g < groups; g += 2 {
		origins[g].rc.mustOK(wire.Couple{From: origins[g].ref(), To: origins[g+1].ref()})
	}
	stream("m", 2)

	check := func(name string, p *participant, want []string) {
		waitFor(t, fmt.Sprintf("%d execs at %s", len(want), name), func() bool {
			return p.count() >= len(want)
		})
		if got := p.sequence(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s re-executed %v, want %v", name, got, want)
		}
	}
	for g := 0; g < groups; g++ {
		left := g &^ 1
		check(fmt.Sprintf("member%d", g), members[g], append(phase("g", g), phase("m", left)...))
		var originWant []string
		if g != left {
			originWant = phase("m", left) // hears the left origin's phase 2
		}
		check(fmt.Sprintf("origin%d", g), origins[g], originWant)
	}
	waitFor(t, "all events resolved", func() bool {
		return h.srv.Stats().PendingEvents == 0
	})
}
