// Durable-log integration: append hooks, startup replay, and late-join tail
// replay. Every state-mutating hop appends one record before its
// acknowledgement is enqueued; replaying those records through the same
// mutations (without clients, notifications, or broadcasts) rebuilds the
// server's databases after a crash or restart.
//
// Ordering: appends block the state loop until the record is written (and
// fsynced under the `always` policy), so the log's record order is exactly
// the order the loop applied the transitions.
//
// Replay deliberately does NOT restore the lock table or pending-event wait
// sets: a logged event was committed (its group lock granted and broadcast
// begun), and its waiters died with the crashed process — holding its lock
// after recovery would wedge the group waiting for acknowledgements no one
// will send. Locks are transient floor control; the log persists the
// decisions, not the floor.
package server

import (
	"sort"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/perm"
	"cosoft/internal/registry"
	"cosoft/internal/wire"
)

// logAppend appends one record to the durable event log, blocking until it
// reaches the configured durability — callers place it before the
// transition's acknowledgement is enqueued. A failed append is logged and
// dropped: the server keeps serving (durability degrades, live consistency
// does not). No-op when durability is off.
func (s *Server) logAppend(kind eventlog.Kind, origin couple.InstanceID, group string, msg wire.Message) {
	if s.elog == nil {
		return
	}
	err := s.elog.Append(eventlog.Record{
		Kind:   kind,
		Origin: string(origin),
		Group:  group,
		Env:    wire.Envelope{Msg: msg},
	})
	if err != nil {
		s.slog.Warn("event log append failed",
			"kind", int(kind), "inst", string(origin), "err", err)
	}
}

// replayLog rebuilds the server databases from the durable log. It runs in
// New before the loop goroutine starts, so every mutation below touches the
// freshly built databases single-threaded. Replay starts from the newest
// decodable snapshot when one exists (reading only post-snapshot bytes),
// falling back to older snapshots and finally to offset zero. Individually
// damaged or stale records are skipped with a warning; replay never aborts
// recovery.
func (s *Server) replayLog() {
	from := int64(0)
	usedSnap := false
	if snaps, err := s.elog.Snapshots(); err != nil {
		s.slog.Warn("snapshot scan failed; replaying from offset zero", "err", err)
	} else {
		for _, ref := range snaps {
			st, derr := decodeState(ref.Payload)
			if derr != nil {
				s.slog.Warn("snapshot undecodable; falling back",
					"offset", ref.Offset, "err", derr)
				continue
			}
			s.installState(st)
			from = ref.Offset
			usedSnap = true
			break
		}
	}
	n := 0
	apply := func(rec eventlog.Record) error {
		s.replayRecord(rec)
		n++
		return nil
	}
	var err error
	if usedSnap {
		_, err = s.elog.ReplayFrom(from, apply)
	} else {
		err = s.elog.Replay(apply)
	}
	if err != nil {
		s.slog.Warn("event log replay stopped early", "records", n, "err", err)
	}
	if n > 0 || usedSnap {
		s.slog.Info("event log replayed", "records", n, "snapshot_offset", from,
			"instances", s.reg.Len(), "links", s.graph.Len())
	}
}

// replayRecord applies one logged transition. Mutations mirror the live
// handlers minus everything connection-shaped: no clients exist yet, so
// there are no notifications, broadcasts, or replies to reproduce.
func (s *Server) replayRecord(rec eventlog.Record) {
	origin := couple.InstanceID(rec.Origin)
	warn := func(why string) {
		s.slog.Warn("event log record skipped",
			"kind", int(rec.Kind), "inst", rec.Origin, "why", why)
	}
	switch rec.Kind {
	case eventlog.KindRegister:
		m, ok := rec.Env.Msg.(wire.Register)
		if !ok {
			warn("payload is not Register")
			return
		}
		// Advance the ID allocator past every recovered ID so post-restart
		// registrations can never collide with pre-crash instances.
		s.reg.RestoreSeq(origin)
		r := registry.Record{ID: origin, AppType: m.AppType, Host: m.Host, User: m.User}
		if err := s.reg.Register(r); err != nil {
			warn(err.Error())
		}
	case eventlog.KindDisconnect:
		s.replayDisconnect(origin)
	case eventlog.KindToken:
		m, ok := rec.Env.Msg.(wire.SessionToken)
		if !ok {
			warn("payload is not SessionToken")
			return
		}
		r, err := s.reg.Lookup(origin)
		if err != nil {
			warn(err.Error())
			return
		}
		if old, ok := s.sessionTok[origin]; ok {
			delete(s.sessions, old)
		}
		s.sessionTok[origin] = m.Token
		s.sessions[m.Token] = sessionRec{id: r.ID, appType: r.AppType, host: r.Host, user: r.User}
	case eventlog.KindTokenDrop:
		if tok, ok := s.sessionTok[origin]; ok {
			delete(s.sessions, tok)
			delete(s.sessionTok, origin)
		}
	case eventlog.KindResume:
		m, ok := rec.Env.Msg.(wire.Resume)
		if !ok {
			warn("payload is not Resume")
			return
		}
		sess, ok := s.sessions[m.Token]
		if !ok {
			warn("resume of unknown token")
			return
		}
		delete(s.sessions, m.Token)
		if s.sessionTok[sess.id] == m.Token {
			delete(s.sessionTok, sess.id)
		}
		if _, err := s.reg.Lookup(sess.id); err != nil {
			r := registry.Record{ID: sess.id, AppType: sess.appType, Host: sess.host, User: sess.user}
			if err := s.reg.Register(r); err != nil {
				warn(err.Error())
			}
		}
	case eventlog.KindDeclare:
		m, ok := rec.Env.Msg.(wire.Declare)
		if !ok {
			warn("payload is not Declare")
			return
		}
		if err := s.reg.DeclareObject(origin, m.Path, m.Class); err != nil {
			warn(err.Error())
		}
	case eventlog.KindRetract:
		m, ok := rec.Env.Msg.(wire.Retract)
		if !ok {
			warn("payload is not Retract")
			return
		}
		ref := couple.ObjectRef{Instance: origin, Path: m.Path}
		s.graph.RemoveObject(ref)
		s.reg.RetractObject(origin, m.Path)
		s.history.Forget(ref)
		delete(s.tails, ref)
	case eventlog.KindCouple:
		m, ok := rec.Env.Msg.(wire.Couple)
		if !ok {
			warn("payload is not Couple")
			return
		}
		if err := s.graph.AddLink(couple.Link{From: m.From, To: m.To, Creator: origin}); err != nil {
			warn(err.Error())
		}
	case eventlog.KindDecouple:
		m, ok := rec.Env.Msg.(wire.Decouple)
		if !ok {
			warn("payload is not Decouple")
			return
		}
		if !s.graph.RemoveLink(m.From, m.To) {
			s.graph.RemoveLink(m.To, m.From)
		}
	case eventlog.KindEvent:
		m, ok := rec.Env.Msg.(wire.Exec)
		if !ok {
			warn("payload is not Exec")
			return
		}
		// Advance the event sequence so post-restart events get IDs strictly
		// greater than every logged one. Logs written by a multi-shard server
		// carry interleaved IDs; the maximum covers them too. The event
		// itself was fully resolved or died with its waiters — only the ID
		// allocation and the late-join tail survive it.
		if m.EventID > s.eventSeq {
			s.eventSeq = m.EventID
		}
		if s.opts.ReplayTail {
			s.pushTail(m.Origin, m)
		}
	case eventlog.KindHist:
		m, ok := rec.Env.Msg.(wire.CopyTo)
		if !ok {
			warn("payload is not CopyTo")
			return
		}
		s.history.Record(hist.Snapshot{Ref: m.To, State: m.State, Origin: origin})
	case eventlog.KindUndo, eventlog.KindRedo:
		m, ok := rec.Env.Msg.(wire.CopyTo)
		if !ok {
			warn("payload is not CopyTo")
			return
		}
		var err error
		if rec.Kind == eventlog.KindUndo {
			_, err = s.history.Undo(m.To, m.State)
		} else {
			_, err = s.history.Redo(m.To, m.State)
		}
		if err != nil {
			warn(err.Error())
		}
	case eventlog.KindPerm:
		switch m := rec.Env.Msg.(type) {
		case wire.GrantPerm:
			s.perms.Grant(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		case wire.RevokePerm:
			s.perms.Revoke(perm.Rule{User: m.User, State: m.State, Right: perm.Right(m.Right)})
		default:
			warn("payload is not GrantPerm or RevokePerm")
		}
	default:
		warn("unknown record kind")
	}
}

// replayDisconnect prunes an instance exactly as dropClient does, minus the
// connection-shaped parts (outboxes, notifications, locks, pending events —
// none exist during replay). Session tokens deliberately survive, matching
// live behavior: a disconnected instance may still resume.
func (s *Server) replayDisconnect(id couple.InstanceID) {
	s.graph.RemoveInstance(id)
	s.history.ForgetInstance(id)
	s.forgetTails(id)
	s.reg.Deregister(id)
}

// replayTails catches a fresh couple link's two sides up on each other's
// retained event tails: each side's members receive the other side's recent
// committed events as ordinary Exec messages through their outboxes, so a
// late joiner converges from the log tail instead of pulling CopyFrom state
// from a live peer. gFrom and gTo are the pre-merge groups (nil when
// ReplayTail is off); it runs on the state loop after AddLink.
func (s *Server) replayTails(gFrom, gTo []couple.ObjectRef) {
	if !s.opts.ReplayTail || len(gFrom) == 0 || len(gTo) == 0 {
		return
	}
	s.sendTail(gFrom, gTo, 0)
	s.sendTail(gTo, gFrom, 0)
}

// catchUpAdopted sends an instance whose pre-restart record a Resume just
// adopted the events its groups committed since the restart. It had no
// connection, so handleEvent skipped it, and its re-couples are
// same-group Couples that replay no tail. Events up to the restored
// sequence were broadcast to its connection before the restart and are
// not sent again.
func (s *Server) catchUpAdopted(id couple.InstanceID, groups [][]couple.ObjectRef) {
	for _, members := range groups {
		var own []couple.ObjectRef
		for _, m := range members {
			if m.Instance == id {
				own = append(own, m)
			}
		}
		s.sendTail(members, own, s.restoredSeq)
	}
}

// sendTail streams the sources' retained events with IDs above after, in
// event-ID order, to every receiver. Acks for the replayed Execs hit the
// stale-ack tolerance in ackExec (the events resolved long ago), so the
// catch-up path needs no bookkeeping of its own.
func (s *Server) sendTail(sources, receivers []couple.ObjectRef, after uint64) {
	var evs []wire.Exec
	for _, ref := range sources {
		for _, te := range s.tails[ref] {
			if te.exec.EventID > after {
				evs = append(evs, te.exec)
			}
		}
	}
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].EventID < evs[j].EventID })
	for _, member := range receivers {
		target, ok := s.clientOf(member.Instance)
		if !ok {
			continue
		}
		for _, e := range evs {
			if member == e.Origin {
				continue
			}
			e.TargetPath = member.Path
			target.out.send(wire.Envelope{Msg: e})
		}
	}
}

// tailEvent is one committed event retained for late-join replay: the full
// Exec as broadcast, keyed in Server.tails by its source object.
type tailEvent struct {
	exec wire.Exec
}

// maxTailEvents bounds the per-source late-join tail.
const maxTailEvents = 32

// pushTail retains one committed event in the source object's tail.
func (s *Server) pushTail(source couple.ObjectRef, exec wire.Exec) {
	t := append(s.tails[source], tailEvent{exec: exec})
	if len(t) > maxTailEvents {
		copy(t, t[1:])
		t = t[:maxTailEvents]
	}
	s.tails[source] = t
}

// forgetTails drops every tail sourced at one of the instance's objects.
func (s *Server) forgetTails(id couple.InstanceID) {
	for ref := range s.tails {
		if ref.Instance == id {
			delete(s.tails, ref)
		}
	}
}
