package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
)

// layerWindow holds the registry and wire readings at the start of the
// measured window, so every per-layer number covers the window alone.
type layerWindow struct {
	e           *env
	c0, c1      map[string]uint64
	wire0       wireTotals
	wireEnd     wireTotals
	handoffs    uint64
	rtt, exec   *histWindow
	queueMax    atomic.Int64
	outboxMax   atomic.Int64
	queueGauges []*obs.Gauge
	outbox      *obs.Gauge
	busy        []string // global loop first, then each shard
}

func openLayerWindow(e *env) *layerWindow {
	lw := &layerWindow{e: e, wire0: e.wireTotals(), c0: e.reg.Snapshot().Counters}
	lw.rtt = newHistWindow(e.reg, "server.event_rtt_ns")
	if e.clientReg != nil {
		lw.exec = newHistWindow(e.clientReg, "client.exec_ns")
	}
	gauge := func(name string) *obs.Gauge { return e.reg.Gauge(name) }
	lw.outbox = gauge("server.outbox_depth")
	lw.busy = []string{"server.global.busy_ns"}
	lw.queueGauges = []*obs.Gauge{gauge("server.global.queue_depth")}
	for i := 0; ; i++ {
		busy := fmt.Sprintf("server.shard.%d.busy_ns", i)
		if _, ok := lw.c0[busy]; !ok {
			break
		}
		lw.busy = append(lw.busy, busy)
		lw.queueGauges = append(lw.queueGauges, gauge(fmt.Sprintf("server.shard.%d.queue_depth", i)))
	}
	return lw
}

// sample polls the queue and outbox depth gauges every millisecond until
// stop is set; the returned channel closes when it has stopped.
func (lw *layerWindow) sample(stop *atomic.Bool) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			for _, g := range lw.queueGauges {
				raiseMax(&lw.queueMax, g.Value())
			}
			raiseMax(&lw.outboxMax, lw.outbox.Value())
			time.Sleep(time.Millisecond)
		}
	}()
	return done
}

func raiseMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// end takes the closing readings of the window.
func (lw *layerWindow) end() {
	lw.c1 = lw.e.reg.Snapshot().Counters
	lw.wireEnd = lw.e.wireTotals()
	lw.handoffs = lw.delta("server.cross_shard_handoffs")
}

func (lw *layerWindow) delta(name string) uint64 { return lw.c1[name] - lw.c0[name] }

// layers turns the window's readings into the per-layer metrics.
func (lw *layerWindow) layers(m *meter, window time.Duration, ops float64) map[string]float64 {
	l := map[string]float64{}
	events := 0.0
	attempts := float64(m.attempts.Load())
	if attempts > 0 {
		events = ops
	}
	ns := float64(window.Nanoseconds())

	attempt, spread, mirror, decouple := m.attempt.sorted(time.Time{}, time.Time{}), m.spread.sorted(time.Time{}, time.Time{}), m.mirror.sorted(time.Time{}, time.Time{}), m.decouple.sorted(time.Time{}, time.Time{})
	l["client.dispatch_p50_ns"] = float64(quantile(attempt, 0.50))
	l["client.dispatch_p99_ns"] = float64(quantile(attempt, 0.99))
	l["client.attempts_per_event"] = ratio(attempts, events)
	l["client.exec_p50_ns"] = lw.exec.quantile(0.50)
	l["client.exec_p99_ns"] = lw.exec.quantile(0.99)
	l["client.apply_spread_p99_ns"] = float64(quantile(spread, 0.99))
	l["client.mirror_converge_p50_ns"] = float64(quantile(mirror, 0.50))
	l["client.decouple_p50_ns"] = float64(quantile(decouple, 0.50))
	l["client.decouple_p99_ns"] = float64(quantile(decouple, 0.99))

	w := lw.wireEnd.sub(lw.wire0)
	l["wire.writes_per_event"] = ratio(float64(w.writes), events)
	l["wire.write_bytes_per_event"] = ratio(float64(w.writeBytes), events)
	l["wire.write_busy_ns_per_event"] = ratio(float64(w.writeNS), events)
	l["wire.reads_per_event"] = ratio(float64(w.reads), events)

	l["server.event_rtt_p50_ns"] = lw.rtt.quantile(0.50)
	l["server.event_rtt_p99_ns"] = lw.rtt.quantile(0.99)
	l["server.global.busy_ratio"] = ratio(float64(lw.delta(lw.busy[0])), ns)
	shardMax := 0.0
	for _, name := range lw.busy[1:] {
		if r := ratio(float64(lw.delta(name)), ns); r > shardMax {
			shardMax = r
		}
	}
	l["server.shard.busy_ratio_max"] = shardMax
	l["server.queue_depth_max"] = float64(lw.queueMax.Load())
	l["server.outbox_depth_max"] = float64(lw.outboxMax.Load())
	l["server.bytes_encoded_per_event"] = ratio(float64(lw.delta("server.bytes_encoded")), events)

	l["lock.denied_ratio"] = ratio(float64(lw.delta("lock.group_failures")), float64(lw.delta("lock.group_attempts")))
	l["lock.attempts_per_event"] = ratio(float64(lw.delta("lock.group_attempts")), events)

	appends := float64(lw.delta("server.log.appends"))
	l["eventlog.appends_per_event"] = ratio(appends, events)
	l["eventlog.fsyncs_per_append"] = ratio(float64(lw.delta("server.log.fsyncs")), appends)
	l["eventlog.bytes_per_event"] = ratio(float64(lw.delta("server.log.bytes")), events)
	return l
}

// replayGraph times the couple layer alone: it replays the run's couple
// script (setup links, then the churn ops) into a standalone couple.Graph,
// timing each AddLink, and then times CO() for every member of the
// setup's groups. It returns the median AddLink and CO times in ns.
func replayGraph(setupScript []couple.Link, churnOps []scriptOp, coReps int) (joinP50, coP50 float64) {
	g := couple.NewGraph()
	var joins, cos []time.Duration
	for _, l := range setupScript {
		t0 := time.Now()
		err := g.AddLink(l)
		joins = append(joins, time.Since(t0))
		if err != nil {
			return 0, 0
		}
	}
	var members []couple.ObjectRef
	seen := map[couple.ObjectRef]bool{}
	for _, l := range setupScript {
		for _, o := range []couple.ObjectRef{l.From, l.To} {
			if !seen[o] {
				seen[o] = true
				members = append(members, o)
			}
		}
	}
	for r := 0; r < coReps; r++ {
		for _, o := range members {
			t0 := time.Now()
			g.CO(o)
			cos = append(cos, time.Since(t0))
		}
	}
	for _, op := range churnOps {
		t0 := time.Now()
		if op.remove {
			g.RemoveLink(op.link.From, op.link.To)
			continue
		}
		err := g.AddLink(op.link)
		joins = append(joins, time.Since(t0))
		if err != nil {
			return 0, 0
		}
	}
	sort.Slice(joins, func(i, j int) bool { return joins[i] < joins[j] })
	sort.Slice(cos, func(i, j int) bool { return cos[i] < cos[j] })
	return float64(quantile(joins, 0.5)), float64(quantile(cos, 0.5))
}
