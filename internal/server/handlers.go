package server

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/perm"
	"cosoft/internal/wire"
)

// handle dispatches one message from a registered client. It runs on the
// state loop.
func (s *Server) handle(cl *client, env wire.Envelope) {
	switch m := env.Msg.(type) {
	case wire.Declare:
		err := s.reg.DeclareObject(cl.id, m.Path, m.Class)
		if err == nil {
			s.logAppend(eventlog.KindDeclare, cl.id, "", m)
		}
		s.reply(cl, env.Seq, err)
	case wire.Retract:
		s.handleRetract(cl, env.Seq, m)
	case wire.Deregister:
		// Deregistration invalidates any outstanding session token: an
		// instance that left on purpose must not be resumable.
		if tok, ok := s.sessionTok[cl.id]; ok {
			delete(s.sessions, tok)
			delete(s.sessionTok, cl.id)
			s.logAppend(eventlog.KindTokenDrop, cl.id, "", m)
		}
		s.dropClient(cl, "deregistered")
		s.reply(cl, env.Seq, nil)
	case wire.Couple:
		s.handleCouple(cl, env.Seq, m)
	case wire.Decouple:
		s.handleDecouple(cl, env.Seq, m)
	case wire.Event:
		s.handleEvent(cl, env.Seq, m, env.Trace)
	case wire.ExecAck:
		s.ackExec(cl, m.EventID, env.Trace, time.Time{})
	case wire.BatchAck:
		s.handleBatchAck(cl, m)
	case wire.CopyTo:
		s.handleCopyTo(cl, env.Seq, m)
	case wire.CopyFrom:
		s.handleCopyFrom(cl, env.Seq, m)
	case wire.RemoteCopy:
		s.handleRemoteCopy(cl, env.Seq, m)
	case wire.StateReply:
		s.handleStateReply(cl, m)
	case wire.Command:
		s.handleCommand(cl, env.Seq, m)
	case wire.FetchState:
		s.handleFetchState(cl, env.Seq, m)
	case wire.Undo:
		s.handleUndoRedo(cl, env.Seq, m.Path, true)
	case wire.Redo:
		s.handleUndoRedo(cl, env.Seq, m.Path, false)
	case wire.ListInstances:
		s.handleListInstances(cl, env.Seq)
	case wire.GrantPerm:
		s.perms.Grant(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		s.logAppend(eventlog.KindPerm, cl.id, "", m)
		s.reply(cl, env.Seq, nil)
	case wire.RevokePerm:
		s.perms.Revoke(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		s.logAppend(eventlog.KindPerm, cl.id, "", m)
		s.reply(cl, env.Seq, nil)
	case wire.Ping:
		// Client-initiated probe: answer so it can measure liveness too.
		cl.out.send(wire.Envelope{RefSeq: env.Seq, Msg: wire.Pong{Nonce: m.Nonce}})
	case wire.Pong:
		// Liveness reply; lastSeen was already refreshed on arrival.
	case wire.SessionToken:
		s.handleSessionToken(cl, env.Seq)
	default:
		s.reply(cl, env.Seq, fmt.Errorf("server: unexpected message %s", env.Msg.MsgType()))
	}
}

// reply sends OK or Err correlated to the request.
func (s *Server) reply(cl *client, seq uint64, err error) {
	if err != nil {
		cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.Err{Text: err.Error()}})
		return
	}
	cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.OK{}})
}

// stateID renders the permission identifier of an object.
func stateID(ref couple.ObjectRef) string {
	return string(ref.Instance) + ":" + ref.Path
}

// checkPerm verifies cl's right on ref; rights on the client's own objects
// are implicit.
func (s *Server) checkPerm(cl *client, ref couple.ObjectRef, right perm.Right) error {
	if ref.Instance == cl.id {
		return nil
	}
	if !s.perms.Allowed(cl.user, stateID(ref), right) {
		return fmt.Errorf("server: %w: user %q lacks %s on %s", errPerm, cl.user, right, stateID(ref))
	}
	return nil
}

// checkDeclared verifies the object is registered as couplable and returns
// its class.
func (s *Server) checkDeclared(ref couple.ObjectRef) (string, error) {
	class, ok := s.reg.ObjectClass(ref)
	if !ok {
		return "", fmt.Errorf("server: object %s not declared", stateID(ref))
	}
	return class, nil
}

func (s *Server) handleRetract(cl *client, seq uint64, m wire.Retract) {
	ref := couple.ObjectRef{Instance: cl.id, Path: m.Path}
	// Collect the group *before* removal, as handleDecouple does: computing
	// it afterwards loses the members connected only through the retracted
	// object, so the split halves would keep stale mirrored links.
	members := s.graph.Group(ref)
	s.notifyLinks(members, s.graph.RemoveObject(ref), false)
	s.reg.RetractObject(cl.id, m.Path)
	s.history.Forget(ref)
	delete(s.tails, ref)
	s.logAppend(eventlog.KindRetract, cl.id, "", m)
	s.reply(cl, seq, nil)
}

func (s *Server) handleCouple(cl *client, seq uint64, m wire.Couple) {
	if err := s.coupleRefs(cl, m.From, m.To); err != nil {
		s.reply(cl, seq, err)
		return
	}
	s.reply(cl, seq, nil)
}

// coupleRefs validates and installs a link created by cl. It implements
// both the local Couple primitive and RemoteCouple: the creator need not own
// either endpoint (§3.3 "allow a third application instance to couple
// objects in remote instances").
func (s *Server) coupleRefs(cl *client, from, to couple.ObjectRef) error {
	classFrom, err := s.checkDeclared(from)
	if err != nil {
		return err
	}
	classTo, err := s.checkDeclared(to)
	if err != nil {
		return err
	}
	if err := s.checkPerm(cl, from, perm.RightCouple); err != nil {
		return err
	}
	if err := s.checkPerm(cl, to, perm.RightCouple); err != nil {
		return err
	}
	if _, ok := s.checker.Direct(classFrom, classTo); !ok {
		return fmt.Errorf("server: classes %q and %q are not compatible", classFrom, classTo)
	}
	l := couple.Link{From: from, To: to, Creator: cl.id}
	// Snapshot the two pre-merge groups and their links once, before
	// AddLink makes them one group: the link delta and the late-join tail
	// replay both need to know which side each member came from.
	gFrom, lFrom := s.graph.GroupLinks(from)
	same := slices.Contains(gFrom, to)
	var gTo []couple.ObjectRef
	var lTo []couple.Link
	if !same {
		gTo, lTo = s.graph.GroupLinks(to)
	}
	if err := s.graph.AddLink(l); err != nil {
		return err
	}
	s.logAppend(eventlog.KindCouple, cl.id, stateID(from), wire.Couple{From: from, To: to})
	if same {
		// Every member already mirrors the whole group; only the new link
		// is news, and there is no foreign event stream to catch up on.
		s.notifyLinks(gFrom, []couple.Link{l}, true)
		return nil
	}
	s.replayTails(gFrom, gTo)
	// Send the merge as a delta: "objects already connected to o2 are added
	// to the list of targets, and objects already connected to o1 are added
	// to the source" (§3.2). Each side receives the other side's links plus
	// the new one, which is all its mirror lacks.
	s.notifyLinks(gFrom, append(lTo, l), true)
	s.notifyLinks(gTo, append(lFrom, l), true)
	return nil
}

func (s *Server) handleDecouple(cl *client, seq uint64, m wire.Decouple) {
	if err := s.checkPerm(cl, m.From, perm.RightCouple); err != nil {
		s.reply(cl, seq, err)
		return
	}
	if err := s.checkPerm(cl, m.To, perm.RightCouple); err != nil {
		s.reply(cl, seq, err)
		return
	}
	// Collect the group *before* removal so both halves hear about it.
	members := s.graph.Group(m.From)
	// The notification must carry the direction the stored link actually
	// has, or the members' replicated coupling info keeps a stale entry.
	var l couple.Link
	switch {
	case s.graph.RemoveLink(m.From, m.To):
		l = couple.Link{From: m.From, To: m.To, Creator: cl.id}
	case s.graph.RemoveLink(m.To, m.From):
		l = couple.Link{From: m.To, To: m.From, Creator: cl.id}
	default:
		s.reply(cl, seq, fmt.Errorf("server: no link between %s and %s", stateID(m.From), stateID(m.To)))
		return
	}
	s.notifyLinks(members, []couple.Link{l}, false)
	s.logAppend(eventlog.KindDecouple, cl.id, stateID(l.From), wire.Decouple{From: l.From, To: l.To})
	s.reply(cl, seq, nil)
}

// instanceGroups returns the coupling groups the instance's objects belong
// to and every link of those groups.
func (s *Server) instanceGroups(id couple.InstanceID) (groups [][]couple.ObjectRef, links []couple.Link) {
	seen := make(map[couple.ObjectRef]bool)
	for _, l := range s.graph.InstanceLinks(id) {
		if seen[l.From] {
			continue
		}
		members, gl := s.graph.GroupLinks(l.From)
		for _, m := range members {
			seen[m] = true
		}
		groups = append(groups, members)
		links = append(links, gl...)
	}
	return groups, links
}

// notifyLinks sends every link of a run, in order, to each connected
// instance owning one of members, as LinkAdded (added) or LinkRemoved.
func (s *Server) notifyLinks(members []couple.ObjectRef, links []couple.Link, added bool) {
	var targets []*client
	seen := make(map[couple.InstanceID]bool)
	for _, m := range members {
		if seen[m.Instance] {
			continue
		}
		seen[m.Instance] = true
		if c, ok := s.clientOf(m.Instance); ok {
			targets = append(targets, c)
		}
	}
	for _, c := range targets {
		for _, l := range links {
			if added {
				c.out.send(wire.Envelope{Msg: wire.LinkAdded{Link: l}})
			} else {
				c.out.send(wire.Envelope{Msg: wire.LinkRemoved{Link: l}})
			}
		}
	}
}

func (s *Server) handleCommand(cl *client, seq uint64, m wire.Command) {
	targets := m.Targets
	if len(targets) == 0 {
		s.cmu.RLock()
		for id := range s.clients {
			if id != cl.id {
				targets = append(targets, id)
			}
		}
		s.cmu.RUnlock()
	}
	// Validate every target before delivering to any: a failure after
	// partial delivery would tell the sender "error" while some targets
	// already received the command.
	for _, id := range targets {
		if _, ok := s.clientOf(id); !ok {
			s.reply(cl, seq, fmt.Errorf("server: unknown target instance %q", id))
			return
		}
	}
	deliver := wire.CommandDeliver{Name: m.Name, From: cl.id, Payload: m.Payload}
	for _, id := range targets {
		if c, ok := s.clientOf(id); ok {
			c.out.send(wire.Envelope{Msg: deliver})
		}
	}
	s.reply(cl, seq, nil)
}

func (s *Server) handleListInstances(cl *client, seq uint64) {
	var list wire.InstanceList
	for _, id := range s.reg.Instances() {
		rec, err := s.reg.Lookup(id)
		if err != nil {
			continue
		}
		info := wire.InstanceInfo{ID: rec.ID, AppType: rec.AppType, Host: rec.Host, User: rec.User}
		for path, class := range rec.Objects {
			info.Objects = append(info.Objects, wire.DeclaredObject{Path: path, Class: class})
		}
		sort.Slice(info.Objects, func(i, j int) bool {
			return info.Objects[i].Path < info.Objects[j].Path
		})
		list.Instances = append(list.Instances, info)
	}
	cl.out.send(wire.Envelope{RefSeq: seq, Msg: list})
}

// handleSessionToken mints a resumable session token bound to cl's
// registration record and sends it back. A reconnecting client presents the
// token in a Resume handshake to reclaim the same instance ID.
func (s *Server) handleSessionToken(cl *client, seq uint64) {
	rec, err := s.reg.Lookup(cl.id)
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	tok, err := mintToken()
	if err != nil {
		s.reply(cl, seq, err)
		return
	}
	// One outstanding token per instance: re-minting replaces the previous
	// token, so sessions is bounded by the number of registered instances
	// and a superseded token can never resume the session.
	if old, ok := s.sessionTok[cl.id]; ok {
		delete(s.sessions, old)
	}
	s.sessionTok[cl.id] = tok
	s.sessions[tok] = sessionRec{id: rec.ID, appType: rec.AppType, host: rec.Host, user: rec.User}
	// The token is durable before the client holds it: a token the client
	// could present after a server restart is always one replay can honor.
	s.logAppend(eventlog.KindToken, cl.id, "", wire.SessionToken{Token: tok})
	cl.out.send(wire.Envelope{RefSeq: seq, Msg: wire.SessionToken{Token: tok}})
}

// dropClient removes a disconnected or deregistering instance: its couple
// links are removed (the automatic decoupling of §3.2), its locks are
// released, pending work is resolved, and its records are dropped.
func (s *Server) dropClient(cl *client, reason string) {
	// Identity check, not just key presence: after a Resume takeover the
	// instance ID maps to the NEW client, and the superseded connection's
	// deferred drop must not tear that one down.
	if cur, ok := s.clientOf(cl.id); !ok || cur != cl {
		return // already dropped or superseded
	}
	// Durable before any database mutation below: replay prunes the
	// instance the same way. Session tokens deliberately survive (resume
	// works across a disconnect); only Deregister revokes them. Drops
	// provoked by Close itself are not departures — nothing is logged, so
	// a restart finds every instance still registered and resumable.
	if !s.closing {
		s.logAppend(eventlog.KindDisconnect, cl.id, "", wire.Err{Text: reason})
	}
	s.logf("server: %s leaving (%s)", cl.id, reason)
	s.slog.Info("instance leaving", "inst", string(cl.id), "reason", reason)
	s.cmu.Lock()
	delete(s.clients, cl.id)
	s.cmu.Unlock()
	s.mClients.Add(-1)

	// Decouple everything the instance participated in, notifying survivors.
	// The affected groups are snapshotted *before* the links are removed:
	// computing them afterwards loses the members connected to a peer only
	// through the departed instance (the chain A–B–C where B leaves: after
	// removal A and C are in separate components, and each would miss the
	// removal of the other's link), leaving stale mirrored links — the same
	// ordering bug handleRetract fixed.
	removed := s.graph.InstanceLinks(cl.id)
	pre := make(map[couple.ObjectRef][]couple.ObjectRef)
	for _, l := range removed {
		if _, ok := pre[l.From]; !ok {
			pre[l.From] = s.graph.Group(l.From)
		}
	}
	s.graph.RemoveInstance(cl.id)
	for _, l := range removed {
		s.notifyLinks(pre[l.From], []couple.Link{l}, false)
	}

	// Resolve group-scoped state: events the instance originated are
	// finished, events awaiting its ack are acked by absence, and its locks
	// and histories are dropped.
	for id, pe := range s.pending {
		if pe.origin == cl.id {
			s.finishEvent(id, pe, false)
			continue
		}
		if pe.waiting[cl.id] > 0 {
			delete(pe.waiting, cl.id)
			if len(pe.waiting) == 0 {
				s.finishEvent(id, pe, false)
			}
		}
	}
	s.locks.ReleaseInstance(cl.id)
	s.history.ForgetInstance(cl.id)
	s.forgetTails(cl.id)
	// Resolve pending state fetches involving the instance.
	for id, f := range s.pendingFetch {
		if f.target == cl.id {
			s.failFetch(id, f, fmt.Sprintf("instance %s disconnected", cl.id))
		} else if f.requester == cl.id {
			delete(s.pendingFetch, id)
		}
	}
	s.reg.Deregister(cl.id)
}

// notifyLockChange tells each instance owning locked members to disable or
// re-enable those widgets. SetLocks envelopes carry the event's trace
// context so member instances can attribute the disable/enable to the event.
func (s *Server) notifyLockChange(tc obs.TraceContext, members []couple.ObjectRef, locked bool, skip couple.ObjectRef) {
	perInstance := make(map[couple.InstanceID][]string)
	for _, m := range members {
		if m == skip {
			continue
		}
		perInstance[m.Instance] = append(perInstance[m.Instance], m.Path)
	}
	for id, paths := range perInstance {
		if c, ok := s.clientOf(id); ok {
			c.out.send(wire.Envelope{Trace: tc, Msg: wire.SetLocks{Paths: paths, Locked: locked}})
		}
	}
}

// lockGroup applies the configured group-locking variant, recording a
// "lock.acquire" span under tc when tracing.
func (s *Server) lockGroup(tc obs.TraceContext, refs []couple.ObjectRef, owner lock.Owner) (bool, int) {
	if s.opts.OrderedLocking {
		return s.locks.TryLockGroupOrderedCtx(tc, refs, owner)
	}
	return s.locks.TryLockGroupCtx(tc, refs, owner)
}
