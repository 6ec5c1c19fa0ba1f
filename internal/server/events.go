package server

import (
	"sort"
	"strings"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/lock"
	"cosoft/internal/obs"
	"cosoft/internal/wire"
)

// pendingEvent tracks one broadcast event until every member instance has
// acknowledged re-execution, at which point the group is unlocked ("They are
// unlocked when the processing of this event is completed", §3.2).
type pendingEvent struct {
	origin  couple.InstanceID
	source  couple.ObjectRef
	members []couple.ObjectRef // CO(o): everyone except the source
	owner   lock.Owner
	// waiting counts outstanding Exec acknowledgements per instance (an
	// instance may hold several coupled members).
	waiting map[couple.InstanceID]int
	// start is the Event's arrival time for the round-trip histogram; zero
	// when latency measurement is disabled.
	start time.Time
	// tc is the arrival span's trace context: the parent of the ack and
	// unlock spans recorded when the round trip completes (zero when the
	// event was not traced).
	tc obs.TraceContext
	// timer fires the event deadline (nil when deadlines are disabled). It
	// is stopped when the event resolves normally.
	timer *time.Timer
}

// handleEvent implements the multiple-execution algorithm of §3.2. The
// originating client has already applied the event's built-in feedback
// locally; the server locks CO(o), broadcasts Exec to every coupled member,
// and tells the origin whether to keep or undo its feedback. It runs on the
// state loop.
//
// tc is the trace context the Event envelope carried (the origin's
// "client.event_send" span); every hop recorded here descends from it.
func (s *Server) handleEvent(cl *client, seq uint64, m wire.Event, tc obs.TraceContext) {
	source := couple.ObjectRef{Instance: cl.id, Path: m.Path}
	s.mEvents.Inc()
	start := s.mEventRTT.Start()
	arrival := s.tr.StartSpan(tc, "server.event_arrival", "server")
	if arrival.Active() {
		arrival.SetNote(m.Path + " " + m.Name)
	}
	actx := arrival.Context()
	members := s.graph.CO(source)
	if len(members) == 0 {
		// Uncoupled object: nothing to synchronize; the local feedback
		// stands.
		cl.out.send(wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "ok uncoupled"),
			Msg:    wire.EventResult{OK: true},
		})
		arrival.EndNote("uncoupled")
		return
	}

	s.eventSeq++
	eventID := s.eventSeq
	owner := lock.Owner{Instance: cl.id, Seq: eventID}
	ok, _ := s.lockGroup(actx, members, owner)
	if !ok {
		// Lock failed: the origin must undo the event's syntactic feedback.
		s.mLockFails.Inc()
		s.slog.Debug("event denied: group locked",
			"inst", string(cl.id), "path", m.Path, "event", m.Name, "trace", tc.Trace)
		cl.out.send(wire.Envelope{
			RefSeq: seq,
			Trace:  s.tr.Point(actx, "server.event_result", "server", "denied: group locked"),
			Msg:    wire.EventResult{OK: false, Reason: "group locked"},
		})
		arrival.EndNote("lock denied")
		return
	}

	// The event is committed: the group lock is held and the broadcast is
	// about to fan out. Make it durable before any member — including the
	// origin's EventResult — hears about it, so an acked event is always in
	// the replayable stream. The append runs on the state loop but the file
	// I/O happens on the log's writer goroutine.
	exec := wire.Exec{
		EventID:    eventID,
		TargetPath: m.Path,
		Name:       m.Name,
		Args:       m.Args,
		Origin:     source,
	}
	s.logAppend(eventlog.KindEvent, cl.id, stateID(source), exec)
	if s.opts.ReplayTail {
		s.pushTail(source, exec)
	}

	pe := &pendingEvent{
		origin:  cl.id,
		source:  source,
		members: members,
		owner:   owner,
		waiting: make(map[couple.InstanceID]int),
		start:   start,
		tc:      actx,
	}
	// Disable the locked objects at their instances, then broadcast the
	// event for re-execution. The member-independent suffix of the Exec body
	// (Name, Args, Origin) is encoded once into a shared refcounted buffer;
	// each member's outbox queues a reference and splices it in at flush, so
	// the broadcast costs O(1) body encodes regardless of fan-out.
	s.notifyLockChange(actx, members, true, source)
	var se *wire.SharedExec
	if !s.opts.DisableEncodeOnce {
		se = wire.NewSharedExec(eventID, m.Name, m.Args, source)
		s.mBytesEncoded.Add(uint64(se.TailLen()))
	}
	fanout := 0
	for _, member := range members {
		target, connected := s.clientOf(member.Instance)
		if !connected {
			continue
		}
		var execTC obs.TraceContext
		if actx.Valid() {
			execTC = s.tr.Point(actx, "server.exec_send", "server",
				string(member.Instance)+" "+member.Path)
		}
		if se != nil {
			target.out.sendShared(wire.Envelope{Trace: execTC}, member.Path, se)
		} else {
			target.out.send(wire.Envelope{
				Trace: execTC,
				Msg: wire.Exec{
					EventID:    eventID,
					TargetPath: member.Path,
					Name:       m.Name,
					Args:       m.Args,
					Origin:     source,
				},
			})
		}
		fanout++
		pe.waiting[member.Instance]++
	}
	if se != nil {
		se.Release()
	}
	s.mExecsSent.Add(uint64(fanout))
	s.mFanout.Observe(int64(fanout))
	cl.out.send(wire.Envelope{
		RefSeq: seq,
		Trace:  s.tr.Point(actx, "server.event_result", "server", "ok"),
		Msg:    wire.EventResult{OK: true},
	})
	arrival.End()
	if len(pe.waiting) == 0 {
		// All members belonged to disconnected instances.
		s.unlockEvent(pe, false)
		return
	}
	s.pending[eventID] = pe
	if d := s.opts.EventDeadline; d > 0 {
		// AfterFunc posts back to the state loop; post refuses after Close,
		// so a late firing is harmless.
		pe.timer = time.AfterFunc(d, func() {
			s.post(func() { s.timeoutEvent(eventID) })
		})
	}
}

// timeoutEvent resolves an event whose deadline expired before every member
// acknowledged: the stragglers are dropped from the wait set and the group
// unlocks, so one hung member cannot wedge the whole coupling group.
func (s *Server) timeoutEvent(id uint64) {
	pe, ok := s.pending[id]
	if !ok {
		return
	}
	stragglers := make([]string, 0, len(pe.waiting))
	for inst := range pe.waiting {
		stragglers = append(stragglers, string(inst))
		// Deadline drops are attributed per member: every instance still in
		// the wait set when the deadline fires gets a timeout mark. This is
		// a cold path, so the family lookup's lock is fine.
		s.mMember.Get(string(inst)).Counter(memberTimeouts).Inc()
	}
	sort.Strings(stragglers)
	s.mEventTOs.Inc()
	s.tr.Point(pe.tc, "server.event_timeout", "server", strings.Join(stragglers, " "))
	s.slog.Warn("event deadline expired",
		"event_id", id, "origin", string(pe.origin), "path", pe.source.Path,
		"stragglers", strings.Join(stragglers, " "), "trace", pe.tc.Trace)
	s.finishEvent(id, pe, true)
}

// handleBatchAck resolves a coalesced run of Exec acknowledgements. Each
// entry carries its own event ID and apply-span context, so resolving the
// run entry by entry is identical to receiving the same ExecAcks singly —
// including the stale-ack tolerance: an entry for an event already resolved
// by a deadline or disconnect is skipped without disturbing its batch-mates.
func (s *Server) handleBatchAck(cl *client, m wire.BatchAck) {
	s.mAcksCoalesced.Add(uint64(len(m.Acks)))
	now := s.ackClock()
	for _, a := range m.Acks {
		s.ackExec(cl, a.EventID, a.Trace, now)
	}
}

// ackClock reads the clock once for a coalesced run of acks, so per-member
// latency attribution costs one clock read per BatchAck frame rather than one
// per entry. Zero when attribution is off — ackExec then reads the clock
// itself if metrics need it (and skips it entirely when they are disabled).
func (s *Server) ackClock() time.Time {
	if s.mMember == nil {
		return time.Time{}
	}
	return time.Now()
}

// ackExec is the shared ack-resolution core: decrement cl's outstanding
// count for the event and unlock the group when the wait set empties. now is
// the batch-hoisted ack clock (see ackClock); zero means read it here if
// attribution needs it.
func (s *Server) ackExec(cl *client, eventID uint64, tc obs.TraceContext, now time.Time) {
	pe, ok := s.pending[eventID]
	if !ok {
		return // stale ack: event already resolved by a deadline or disconnect
	}
	if pe.waiting[cl.id] == 0 {
		return // ack from an instance we were not waiting for
	}
	s.tr.Point(tc, "server.exec_ack", "server", string(cl.id))
	pe.waiting[cl.id]--
	if pe.waiting[cl.id] == 0 {
		delete(pe.waiting, cl.id)
	}
	// Straggler attribution: charge this ack's latency (Event arrival →
	// now) to the acking member, and when the wait set just emptied, credit
	// it as the event's last acker — the member the whole group blocked on.
	// cl.health is the entry cached at admission, so this is lock-free; it
	// is nil when attribution or metrics are disabled, and pe.start is zero
	// then too, so the clock is never read on the disabled path.
	if e := cl.health; e != nil && !pe.start.IsZero() {
		if now.IsZero() {
			now = time.Now()
		}
		lat := int64(now.Sub(pe.start))
		e.Hist().Observe(lat)
		e.EWMA().Observe(float64(lat))
		e.Counter(memberAcks).Inc()
		if len(pe.waiting) == 0 {
			e.Counter(memberLastAcks).Inc()
		}
	}
	if len(pe.waiting) == 0 {
		s.finishEvent(eventID, pe, false)
	}
}

func (s *Server) finishEvent(id uint64, pe *pendingEvent, timedOut bool) {
	delete(s.pending, id)
	if pe.timer != nil {
		pe.timer.Stop()
	}
	s.unlockEvent(pe, timedOut)
}

func (s *Server) unlockEvent(pe *pendingEvent, timedOut bool) {
	s.locks.UnlockGroup(pe.members, pe.owner)
	s.tr.Point(pe.tc, "server.unlock", "server", "")
	s.notifyLockChange(pe.tc, pe.members, false, pe.source)
	// Deadline-resolved events waited the full deadline by construction;
	// folding them into the round-trip histogram would inject an outlier
	// equal to the deadline per expiry, so they get their own histogram.
	if timedOut {
		s.mEventTOWait.ObserveSince(pe.start)
	} else {
		s.mEventRTT.ObserveSince(pe.start)
	}
}
