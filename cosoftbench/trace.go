package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// The benchmark's own span recorder. Spans are taken in the benchmark's
// code around calls into the program's public functions (and around the
// server-side conn's Read/Write), kept in a preallocated in-memory array,
// and written out when the run ends. Nothing inside the program is traced.

// spanKind names the layer boundary a span sits on.
type spanKind uint8

const (
	spanOp        spanKind = iota // root: one event (first attempt → last apply) or one churn couple/decouple cycle
	spanDispatch                  // client: one DispatchChecked attempt
	spanApply                     // client: a member's OnRemoteEvent (a point)
	spanCouple                    // client: one Couple call
	spanDecouple                  // client: one Decouple call
	spanMirror                    // client: wait until every member's mirror shows a couple change
	spanWireWrite                 // wire: one Write on a server-side conn
	spanWireRead                  // wire: one Read on a server-side conn
	spanLogOpen                   // eventlog: eventlog.Open at restart
	spanServerNew                 // server: server.New (log replay) at restart
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "client.dispatch", "client.apply", "client.couple", "client.decouple",
	"client.mirror", "wire.write", "wire.read", "eventlog.open", "server.new",
}

// spanID ties the spans of one event together: the group (or churner) in
// the high bits, the event's sequence number (carried in its payload) in
// the low bits. ID 0 marks work that no single event owns.
func spanID(owner int, seq uint64) uint64 { return uint64(owner+1)<<40 | seq }

type span struct {
	id         uint64
	start, end int64 // ns since the recorder's base
	kind       spanKind
}

// recorder is a fixed-capacity, lock-free span store. It records from the
// start of the measured window until it is full; fullAt marks where that
// happened, so the analysis covers only the part of the window whose spans
// are all present. A nil recorder is disabled and records nothing.
type recorder struct {
	base    time.Time
	spans   []span
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	fullAt  atomic.Int64 // ns since base of the first dropped span's end; 0 = never
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

// start turns recording on (the start of the measured window).
func (r *recorder) start() {
	if r != nil {
		r.on.Store(true)
	}
}

func (r *recorder) record(kind spanKind, id uint64, start, end time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		if r.dropped.Add(1) == 1 {
			r.fullAt.Store(int64(end.Sub(r.base)))
		}
		return
	}
	r.spans[i] = span{id: id, kind: kind, start: int64(start.Sub(r.base)), end: int64(end.Sub(r.base))}
}

func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// layerTotals is one span kind's count, summed duration and summed self
// time (duration minus the part its nested spans cover).
type layerTotals struct {
	count         int
	busyNS, selfN int64
}

// analyze nests the spans that start in [lo, hi) — cut short where the
// recorder filled up — by containment (a span's parent is the tightest
// span of the same ID enclosing it) and totals each kind.
func (r *recorder) analyze(lo, hi time.Time) [numSpanKinds]layerTotals {
	var out [numSpanKinds]layerTotals
	var ss []span
	l, h := int64(lo.Sub(r.base)), int64(hi.Sub(r.base))
	if full := r.fullAt.Load(); full != 0 && full < h {
		h = full
	}
	for _, s := range r.recorded() {
		if s.start >= l && s.start < h {
			ss = append(ss, s)
		}
	}
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.kind < b.kind
	})
	type frame struct {
		s        span
		children [][2]int64
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := &out[f.s.kind]
		dur := f.s.end - f.s.start
		t.count++
		t.busyNS += dur
		t.selfN += dur - unionLen(f.children)
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			p.children = append(p.children, [2]int64{f.s.start, f.s.end})
		}
	}
	for i, s := range ss {
		if i > 0 && s.id != ss[i-1].id {
			for len(stack) > 0 {
				pop()
			}
		}
		// Unnested IDs (0) never nest: each span is its own root.
		for len(stack) > 0 && (s.id == 0 || stack[len(stack)-1].s.end < s.end) {
			pop()
		}
		stack = append(stack, frame{s: s})
	}
	for len(stack) > 0 {
		pop()
	}
	return out
}

// unionLen is the total length covered by intervals sorted by start.
func unionLen(iv [][2]int64) int64 {
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// dump writes up to limit spans as JSON lines, in recording order.
func (r *recorder) dump(path string, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range r.recorded() {
		if i == limit {
			break
		}
		fmt.Fprintf(w, `{"id":"%d:%d","name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			int64(s.id>>40)-1, s.id&(1<<40-1), spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
