package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/widget"
)

// group is one coupling group of the event workloads: an origin whose
// driver dispatches events, and the receiving members that re-execute them.
type group struct {
	id      int
	origin  *client.Client
	members []*client.Client // receivers, origin excluded
	recv    []*atomic.Uint64 // per receiver: next sequence number it must apply
	curSeq  atomic.Uint64    // sequence number of the newest dispatched event (span tagging)

	mu       sync.Mutex
	inflight map[uint64]*evState
	err      error

	// Driver-owned.
	nextSeq  uint64
	accepted uint64
	last     *evState
}

// evState tracks one dispatched event until every receiver applied it.
type evState struct {
	seq         uint64
	t0          time.Time
	n           int
	first, last time.Time
	done        chan struct{}
	measured    bool
}

func (g *group) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// onApply is receiver r's OnRemoteEvent: it checks that events arrive
// exactly once and in dispatch order, and closes the event's sync interval
// when the last receiver has applied it.
func (g *group) onApply(r int, m *meter) func(*widget.Event) {
	return func(e *widget.Event) {
		now := time.Now()
		gid, seq, err := parsePayload(e)
		if err == nil && gid != g.id {
			err = fmt.Errorf("group %d member %d applied an event of group %d", g.id, r, gid)
		}
		if err != nil {
			g.fail(err)
			return
		}
		if want := g.recv[r].Swap(seq + 1); seq != want {
			g.fail(fmt.Errorf("group %d member %d applied event %d, want %d", g.id, r, seq, want))
		}
		m.rec.record(spanApply, spanID(g.id, seq), now, now)
		g.mu.Lock()
		st := g.inflight[seq]
		if st == nil {
			g.mu.Unlock()
			g.fail(fmt.Errorf("group %d member %d applied event %d that is not in flight", g.id, r, seq))
			return
		}
		if st.n == 0 {
			st.first = now
		}
		st.n++
		st.last = now
		complete := st.n == len(g.members)
		if complete {
			delete(g.inflight, seq)
		}
		g.mu.Unlock()
		if complete {
			close(st.done)
			m.rec.record(spanOp, spanID(g.id, seq), st.t0, st.last)
			if st.measured {
				m.sync.add(st.t0, st.last.Sub(st.t0))
				m.spread.add(st.t0, st.last.Sub(st.first))
			}
		}
	}
}

// dispatch is one user action: dispatch the group's next event, retrying
// floor rejections (the group is locked, or the origin's widget is disabled
// by SetLocks) until it is accepted. Only an error or an event never
// accepted within the timeout is a failure.
func (g *group) dispatch(m *meter, filler string, timeout time.Duration) error {
	seq := g.nextSeq + 1
	st := &evState{seq: seq, t0: time.Now(), done: make(chan struct{}), measured: m.measuring.Load()}
	g.mu.Lock()
	g.inflight[seq] = st
	g.mu.Unlock()
	g.curSeq.Store(seq)
	if st.measured {
		m.attempted.Add(1)
	}
	ev := &widget.Event{Path: hubPath, Name: widget.EventChanged, Args: payloadArg(g.id, seq, filler)}
	id := spanID(g.id, seq)
	for {
		ta := time.Now()
		err := g.origin.DispatchChecked(ev)
		tb := time.Now()
		m.rec.record(spanDispatch, id, ta, tb)
		if st.measured {
			m.attempts.Add(1)
			m.attempt.add(ta, tb.Sub(ta))
		}
		if err == nil {
			g.nextSeq, g.last = seq, st
			g.accepted++
			if st.measured {
				m.ops.Add(1)
				m.accept.add(st.t0, tb.Sub(st.t0))
			}
			return nil
		}
		rejected := errors.Is(err, client.ErrRejected) || errors.Is(err, widget.ErrDisabled)
		if !rejected || tb.Sub(st.t0) > timeout {
			g.mu.Lock()
			delete(g.inflight, seq)
			g.mu.Unlock()
			if st.measured {
				m.failed.Add(1)
			}
			return fmt.Errorf("group %d event %d: %w", g.id, seq, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// waitApplied blocks until the group's previous event was applied at every
// receiver.
func (g *group) waitApplied(timeout time.Duration) error {
	if g.last == nil {
		return nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-g.last.done:
		return nil
	case <-t.C:
		return fmt.Errorf("group %d event %d not applied at every member after %v", g.id, g.last.seq, timeout)
	}
}

// check verifies, at quiescence, that every receiver applied every accepted
// event exactly once and in order.
func (g *group) check() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	if len(g.inflight) != 0 {
		return fmt.Errorf("group %d: %d events never applied at every member", g.id, len(g.inflight))
	}
	for r, next := range g.recv {
		if got := next.Load() - 1; got != g.accepted {
			return fmt.Errorf("group %d member %d applied %d events, %d were accepted", g.id, r, got, g.accepted)
		}
	}
	return nil
}

// drive runs the event workload's drivers until stop is set. fanout has a
// single driver that dispatches again as soon as its last event was
// accepted (floor control holds it back while the group is locked). In
// groups and durable each driver cycles over its share of the groups and
// dispatches into a group only once that group's previous event has been
// applied at every member.
func drive(groups []*group, drivers int, waitApplied bool, fillers []string, m *meter, stop *atomic.Bool, timeout time.Duration) error {
	if drivers > len(groups) {
		drivers = len(groups)
	}
	errs := make([]error, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		var mine []*group
		for i := d; i < len(groups); i += drivers {
			mine = append(mine, groups[i])
		}
		wg.Add(1)
		go func(d int, mine []*group) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				g := mine[i%len(mine)]
				if waitApplied {
					if err := g.waitApplied(timeout); err != nil {
						errs[d] = err
						return
					}
				}
				if err := g.dispatch(m, fillers[g.nextSeq%uint64(len(fillers))], timeout); err != nil {
					errs[d] = err
					return
				}
			}
		}(d, mine)
	}
	wg.Wait()
	return errors.Join(errs...)
}
