package main

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/client"
	"cosoft/internal/widget"
)

// TestWorkloadsTiny runs every workload at self-check size, untraced and
// traced, and requires every output check to pass and every reported
// metric to be present.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"fanout", "groups", "churn", "durable"} {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 7, seconds: 0.3, dir: t.TempDir(), sh: tinyShape()}
			for _, traced := range []bool{false, true} {
				out, err := measure(cfg, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(out.checks) != 0 {
					t.Fatalf("traced=%v: output checks failed: %v", traced, out.checks)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d", traced, out.attempted, out.failed)
				}
				for name := range e2eUnits {
					if v, ok := out.e2e[name]; !ok || v <= 0 {
						t.Errorf("traced=%v: end-to-end %s = %v, want > 0", traced, name, v)
					}
				}
				if traced && len(out.layer) == 0 {
					t.Errorf("traced run reported no layer metrics")
				}
			}
		})
	}
}

// TestApplyOrderCheck feeds a group's apply oracle a duplicate and a gap
// and requires both to be reported.
func TestApplyOrderCheck(t *testing.T) {
	for name, seqs := range map[string][]uint64{"duplicate": {1, 1}, "gap": {1, 3}} {
		t.Run(name, func(t *testing.T) {
			g := newTestGroup()
			m := &meter{}
			apply := g.onApply(0, m)
			for _, seq := range seqs {
				g.inflight[seq] = &evState{seq: seq, t0: time.Now(), done: make(chan struct{})}
				apply(&widget.Event{Args: payloadArg(g.id, seq, "x")})
			}
			if g.err == nil || !strings.Contains(g.err.Error(), "applied event") {
				t.Fatalf("order check did not fire: %v", g.err)
			}
		})
	}
}

// tinyShape sizes the self-check's runs.
func tinyShape() shape {
	s := fullShape()
	s.fanoutMembers, s.groups, s.groupSize, s.procs = 6, 3, 3, 2
	s.setups, s.slices, s.warmup = 2, 3, 50*time.Millisecond
	s.restartReps, s.restartRecords = 2, 40
	s.traceSpans, s.traceDumpSpans, s.minTailSamples = 1<<16, 100, 0
	return s
}

func newTestGroup() *group {
	g := &group{inflight: make(map[uint64]*evState)}
	g.recv = append(g.recv, new(atomic.Uint64))
	g.recv[0].Store(1)
	// Two receivers, so the first apply does not complete the event.
	g.members = make([]*client.Client, 2)
	return g
}

// TestAnalyzeSelfTime checks the span nesting: a root with two overlapping
// children has self time equal to the part neither child covers.
func TestAnalyzeSelfTime(t *testing.T) {
	r := newRecorder(16)
	r.start()
	at := func(ns int64) time.Time { return r.base.Add(time.Duration(ns)) }
	id := spanID(0, 1)
	r.record(spanOp, id, at(0), at(100))
	r.record(spanDispatch, id, at(10), at(40))
	r.record(spanDispatch, id, at(30), at(60))
	r.record(spanWireWrite, id, at(20), at(25))
	tot := r.analyze(at(0), at(1000))
	if got := tot[spanOp].selfN; got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := tot[spanDispatch].selfN; got != 30+30-5 {
		t.Errorf("dispatch self = %d, want 55", got)
	}
	if got := tot[spanWireWrite].busyNS; got != 5 {
		t.Errorf("write busy = %d, want 5", got)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	e := &widget.Event{Args: payloadArg(3, 42, "filler|with|bars")}
	g, seq, err := parsePayload(e)
	if err != nil || g != 3 || seq != 42 {
		t.Fatalf("parse = %d, %d, %v", g, seq, err)
	}
	if _, _, err := parsePayload(&widget.Event{Args: []attr.Value{attr.String("junk")}}); err == nil {
		t.Fatal("junk payload parsed")
	}
}

// TestQuietSlices requires the half of the slices with the least stolen
// CPU time, in time order, and every slice when the clock is unreadable.
func TestQuietSlices(t *testing.T) {
	clocks := []hostClock{{0, 100}, {5, 200}, {5, 300}, {30, 400}, {31, 500}, {31, 600}}
	quiet, stolen := quietSlices(clocks)
	if fmt.Sprint(quiet) != "[2 4 5]" || len(stolen) != 5 {
		t.Fatalf("quiet slices %v, stolen %v; want [2 4 5]", quiet, stolen)
	}
	if quiet, stolen := quietSlices(make([]hostClock, 4)); fmt.Sprint(quiet) != "[1 2 3]" || fmt.Sprint(stolen) != "[0 0 0]" {
		t.Fatalf("without readings: quiet slices %v, stolen %v; want all, at 0", quiet, stolen)
	}
}

// TestAtLeastSteal requires the line through the slices read at the least
// stolen share, unmoved by one slice off the line, and the median where
// nothing was stolen.
func TestAtLeastSteal(t *testing.T) {
	stolen := []float64{0.20, 0.05, 0.10, 0.15, 0.30}
	y := []float64{300, 150, 200, 250, 900} // 100 + 1000*stolen, but the last
	if got := atLeastSteal(stolen, y); math.Abs(got-150) > 1e-9 {
		t.Errorf("estimate %v, want 150", got)
	}
	if got := atLeastSteal(make([]float64, 3), []float64{5, 1, 3}); got != 3 {
		t.Errorf("without stolen time: %v, want the median 3", got)
	}
}
