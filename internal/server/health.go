// The group health plane: a structured, JSON-ready report of per-group
// topology and per-member event health, built from the couple graph, the
// lock table and pending map, and the server.member metric family.
// cosoftd serves it at /debug/groups and cosoft-repl renders it as the
// `groups` command — the evidence surface for "which member is the chronic
// critical path?", the question the §3.2 floor lock makes matter: every
// event blocks its whole coupling group on the slowest acker.
package server

import (
	"sort"
	"time"

	"cosoft/internal/couple"
)

// MemberHealth is one instance's event-path health. Stats are per instance,
// not per group: an instance coupled into several groups shows the same
// numbers in each.
type MemberHealth struct {
	// Instance is the member's instance ID.
	Instance string `json:"instance"`
	// Connected reports whether the instance currently has a connection.
	Connected bool `json:"connected"`
	// Acks counts ExecAcks received from the member; LastAcks counts the
	// events where this member acked last — the member the group's unlock
	// waited on. Timeouts counts events that hit their deadline while still
	// waiting on this member.
	Acks     uint64 `json:"acks"`
	LastAcks uint64 `json:"last_acks"`
	Timeouts uint64 `json:"timeouts"`
	// AckEWMANS is the exponentially weighted moving average of the
	// member's ack latency (Event arrival → this member's ExecAck) in
	// nanoseconds; AckP50NS/AckP99NS are quantiles over the same latency.
	AckEWMANS float64 `json:"ack_ewma_ns"`
	AckP50NS  float64 `json:"ack_p50_ns"`
	AckP99NS  float64 `json:"ack_p99_ns"`
}

// GroupHealth is one coupling group's topology plus its members' health.
type GroupHealth struct {
	// Refs lists the group's member objects as "instance:path", in the
	// graph's deterministic order.
	Refs []string `json:"refs"`
	// LockHolder is the instance currently holding the group's floor lock
	// ("" when unlocked).
	LockHolder string `json:"lock_holder,omitempty"`
	// PendingEvents counts broadcast events of this group still awaiting
	// acknowledgements.
	PendingEvents int `json:"pending_events"`
	// Straggler names the member with the highest ack-latency EWMA — the
	// chronic critical path ("" until someone has acked, or when member
	// attribution is disabled).
	Straggler string `json:"straggler,omitempty"`
	// Members holds one entry per distinct instance in the group, sorted by
	// ack-latency EWMA descending (slowest first).
	Members []MemberHealth `json:"members"`
}

// LoopHealth is the state loop's utilization numbers.
type LoopHealth struct {
	// BusyNS is the cumulative time the loop spent executing posted
	// closures; Utilization is BusyNS over the server's uptime.
	BusyNS      uint64  `json:"busy_ns"`
	Utilization float64 `json:"utilization"`
	// QueueDepth is the inbox depth at the last dequeue; QueueHighWater the
	// deepest backlog ever sampled.
	QueueDepth     int64 `json:"queue_depth"`
	QueueHighWater int64 `json:"queue_high_water"`
	// Events counts Event messages processed (server.events).
	Events uint64 `json:"events"`
	// PendingEvents counts broadcast events still awaiting acks.
	PendingEvents int `json:"pending_events"`
}

// HealthReport is the /debug/groups payload.
type HealthReport struct {
	// UptimeNS is time since the server started.
	UptimeNS int64 `json:"uptime_ns"`
	// MemberAttribution reports whether the per-member family is active;
	// when false every member's stats read zero by construction.
	MemberAttribution bool `json:"member_attribution"`
	// Loop is the state loop's utilization.
	Loop LoopHealth `json:"loop"`
	// Groups lists every coupling group (two or more members).
	Groups []GroupHealth `json:"groups"`
}

// Health assembles the group health report. Callable from any goroutine: the
// graph, lock table, client map and metric handles are all individually
// synchronized, and the pending map is read on the state loop.
func (s *Server) Health() HealthReport {
	rep := HealthReport{
		UptimeNS:          int64(time.Since(s.started)),
		MemberAttribution: s.mMember != nil,
	}

	// Pending event counts keyed by source ref, taken on the loop so the map
	// is never read concurrently.
	snap := make(chan map[couple.ObjectRef]int, 1)
	var pendingBySrc map[couple.ObjectRef]int
	if s.post(func() {
		bySrc := make(map[couple.ObjectRef]int, len(s.pending))
		for _, pe := range s.pending {
			bySrc[pe.source]++
		}
		snap <- bySrc
	}) {
		select {
		case pendingBySrc = <-snap:
		case <-s.quit: // shutting down: report no pending events
		}
	}

	busy := s.mGlobalBusy.Value()
	rep.Loop = LoopHealth{
		BusyNS:         busy,
		Utilization:    utilization(busy, float64(rep.UptimeNS)),
		QueueDepth:     s.mGlobalDepth.Value(),
		QueueHighWater: s.mGlobalDepth.HighWater(),
		Events:         s.mEvents.Value(),
	}
	for _, n := range pendingBySrc {
		rep.Loop.PendingEvents += n
	}

	for _, refs := range s.graph.Groups() {
		var g GroupHealth
		seen := make(map[couple.InstanceID]bool)
		for _, ref := range refs {
			g.Refs = append(g.Refs, ref.String())
			g.PendingEvents += pendingBySrc[ref]
			if g.LockHolder == "" {
				// The lock table carries its own mutex, so holders can be
				// read from here without entering the state loop.
				if owner, held := s.locks.HeldBy(ref); held {
					g.LockHolder = string(owner.Instance)
				}
			}
			if seen[ref.Instance] {
				continue
			}
			seen[ref.Instance] = true
			g.Members = append(g.Members, s.memberHealth(ref.Instance))
		}
		sort.SliceStable(g.Members, func(i, j int) bool {
			return g.Members[i].AckEWMANS > g.Members[j].AckEWMANS
		})
		if len(g.Members) > 0 && g.Members[0].AckEWMANS > 0 {
			g.Straggler = g.Members[0].Instance
		}
		rep.Groups = append(rep.Groups, g)
	}
	// Deterministic group order: by first ref.
	sort.Slice(rep.Groups, func(i, j int) bool { return rep.Groups[i].Refs[0] < rep.Groups[j].Refs[0] })
	return rep
}

// memberHealth reads one instance's entry from the member family. Peek
// neither creates entries nor disturbs the LRU, so reporting cannot inflate
// the family past members that actually acked.
func (s *Server) memberHealth(id couple.InstanceID) MemberHealth {
	_, connected := s.clientOf(id)
	mh := MemberHealth{Instance: string(id), Connected: connected}
	e := s.mMember.Peek(string(id))
	if e == nil {
		return mh
	}
	mh.Acks = e.Counter(memberAcks).Value()
	mh.LastAcks = e.Counter(memberLastAcks).Value()
	mh.Timeouts = e.Counter(memberTimeouts).Value()
	mh.AckEWMANS = e.EWMA().Value()
	sum := e.Hist().Summary()
	mh.AckP50NS = sum.P50
	mh.AckP99NS = sum.P99
	return mh
}

func utilization(busy uint64, uptimeNS float64) float64 {
	if uptimeNS <= 0 {
		return 0
	}
	return float64(busy) / uptimeNS
}
