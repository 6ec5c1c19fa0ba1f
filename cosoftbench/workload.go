package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// shape sizes a run: fullShape is what the benchmark measures, the
// self-check uses a tiny one.
type shape struct {
	fanoutMembers  int           // members of the fanout and churn group
	groups         int           // groups of the groups and durable workloads
	groupSize      int           // members per such group, origin included
	procs          int           // drivers (groups, durable) and churners (churn)
	setups         int           // setups per run; setup_s is their median
	slices         int           // sub-windows of the measured window
	warmup         time.Duration // traffic before the measured window
	restartReps    int           // restarts per run; server.restart_s is their median
	restartRecords int           // records in the durable restart log
	traceSpans     int           // span recorder capacity
	traceDumpSpans int           // spans written to the dump
	minTailSamples int           // samples a p95 needs (ten beyond it)
}

func fullShape() shape {
	return shape{
		fanoutMembers: 64, groups: 8, groupSize: 4, procs: runtime.NumCPU(),
		setups: 3, slices: 50, warmup: time.Second,
		restartReps: 5, restartRecords: 10000,
		traceSpans: 1 << 21, traceDumpSpans: 200000, minTailSamples: 200,
	}
}

// Fixed parameters of every run.
const (
	waitTimeout  = 20 * time.Second // bound on every wait for the system
	setupTimeout = 5 * time.Second  // a setup still running after this has hung

	smallMax       = 64 // fanout keystroke payloads: 8..smallMax bytes
	bigMin, bigMax = 2048, 8192
	bigEvery       = 32   // one fanout payload in bigEvery is multi-KB
	fillerPool     = 1024 // distinct seeded payloads per run

	scriptMax = 4000 // churn ops kept for the graph replay
	coReps    = 20   // CO() calls timed per member in the graph replay
)

// meter collects one run's measurements. Counters and samples only count
// operations begun while measuring is set.
type meter struct {
	rec       *recorder
	measuring atomic.Bool

	attempted, failed, ops, attempts atomic.Int64

	accept, sync, spread, attempt, decouple, mirror samples
}

// topology is what setup built.
type topology struct {
	groups       []*group
	tree         []*client.Client // churn: the 64-member group
	churners     []*churner
	script       []couple.Link // setup couple script, in order
	setupCouples int
}

// outcome is one measured run: the end-to-end numbers, plus the layer
// numbers when traced.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int
	checks            []error // failed output checks
}

// checkError marks an error as a failed output check rather than a
// failure to run.
type checkError struct{ err error }

func (c *checkError) Error() string { return c.err.Error() }

type config struct {
	workload string
	seed     int64
	seconds  float64
	dir      string // scratch directory for logs and span dumps
	sh       shape
}

func (c config) eventWorkload() bool { return c.workload != "churn" }

// setup dials every client and couples every group, using the seed for
// the couple trees; it returns once every member's mirror holds its whole
// group.
func setup(e *env, cfg config, m *meter) (*topology, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	sh := cfg.sh
	top := &topology{}
	// In traced runs every setup couple also waits for the members' mirrors,
	// which times client.mirror_converge.
	onCouple := func(members []*client.Client) func(int, time.Duration) {
		if m.rec == nil {
			return nil
		}
		return func(i int, d time.Duration) {
			t1 := time.Now()
			t2, err := mirrorsShow(members[:i], members[i].Ref(hubPath), true, waitTimeout)
			if err == nil {
				m.mirror.add(t1, t2.Sub(t1))
			}
			m.rec.record(spanCouple, 0, t1.Add(-d), t1)
		}
	}
	buildTree := func(name string, size int, onRemote func(r int) func(*widget.Event)) ([]*client.Client, []*wireConn, error) {
		members := make([]*client.Client, size)
		wires := make([]*wireConn, size)
		for i := range members {
			var cb func(*widget.Event)
			if onRemote != nil && i > 0 {
				cb = onRemote(i - 1)
			}
			cl, w, err := e.dial(fmt.Sprintf("%s-m%d", name, i), cb)
			if err != nil {
				return nil, nil, err
			}
			members[i], wires[i] = cl, w
		}
		parents := make([]int, size)
		for i := 1; i < size; i++ {
			parents[i] = rng.Intn(i)
		}
		script, err := coupleTree(members, parents, onCouple(members))
		if err != nil {
			return nil, nil, err
		}
		top.script = append(top.script, script...)
		top.setupCouples += len(script)
		return members, wires, nil
	}

	switch cfg.workload {
	case "fanout", "groups", "durable":
		n, size := 1, sh.fanoutMembers
		if cfg.workload != "fanout" {
			n, size = sh.groups, sh.groupSize
		}
		for gi := 0; gi < n; gi++ {
			g := &group{id: gi, inflight: make(map[uint64]*evState)}
			for r := 0; r < size-1; r++ {
				v := &atomic.Uint64{}
				v.Store(1)
				g.recv = append(g.recv, v)
			}
			members, wires, err := buildTree(fmt.Sprintf("g%d", gi), size, func(r int) func(*widget.Event) { return g.onApply(r, m) })
			if err != nil {
				return nil, err
			}
			g.origin, g.members = members[0], members[1:]
			for _, w := range wires {
				if w != nil {
					w.owner.Store(int64(gi) + 1)
					w.seq = &g.curSeq
				}
			}
			top.groups = append(top.groups, g)
		}
	case "churn":
		members, _, err := buildTree("tree", sh.fanoutMembers, nil)
		if err != nil {
			return nil, err
		}
		top.tree = members
		for i := 0; i < sh.procs; i++ {
			cl, w, err := e.dial(fmt.Sprintf("churner%d", i), nil)
			if err != nil {
				return nil, err
			}
			c := &churner{idx: i, cl: cl, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))}
			if w != nil {
				w.owner.Store(int64(i) + 1)
				w.seq = &c.seq
			}
			top.churners = append(top.churners, c)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	for _, g := range top.groups {
		if err := mirrorsFormed(append([]*client.Client{g.origin}, g.members...), waitTimeout); err != nil {
			return nil, err
		}
	}
	if top.tree != nil {
		if err := mirrorsFormed(top.tree, waitTimeout); err != nil {
			return nil, err
		}
	}
	return top, nil
}

// setupWithin runs setup but gives up after setupTimeout: a wedged server
// leaves a Couple waiting for its full RPC timeout. The abandoned setup
// goroutine ends when that call times out.
func setupWithin(e *env, cfg config, m *meter) (*topology, error) {
	type result struct {
		top *topology
		err error
	}
	ch := make(chan result, 1)
	go func() {
		top, err := setup(e, cfg, m)
		ch <- result{top, err}
	}()
	t := time.NewTimer(setupTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.top, r.err
	case <-t.C:
		return nil, fmt.Errorf("setup did not finish within %v", setupTimeout)
	}
}

// fillers are the seeded payload texts. fanout mixes keystroke-sized
// values with an occasional multi-KB one; groups and durable send the
// smallest payload, the group and sequence number alone.
func fillers(cfg config) []string {
	if cfg.workload != "fanout" {
		return []string{""}
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	out := make([]string, fillerPool)
	const letters = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := range out {
		n := 8 + rng.Intn(smallMax-7)
		if rng.Intn(bigEvery) == 0 {
			n = bigMin + rng.Intn(bigMax-bigMin+1)
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		out[i] = string(b)
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one workload: several setups (all but the last torn down
// again), a warm-up, the measured window, a drain to quiescence, the output
// checks, and the restart measurement. With traced set, the one setup
// records spans and wraps every server-side conn. A setup that hangs on a
// server that then cannot be closed is a failed output check: the outcome
// carries it and no metrics.
func measure(cfg config, traced bool) (*outcome, error) {
	sh := cfg.sh
	reps := sh.setups
	if traced {
		reps = 1
	}
	m := &meter{}
	var (
		e              *env
		top            *topology
		setupS, setupB []float64
		setupWire      wireTotals
		setupHandoffs  uint64
	)
	logDir := ""
	if cfg.workload == "durable" {
		logDir = filepath.Join(cfg.dir, "log")
	}
	for rep := 0; ; rep++ {
		if traced {
			m.rec = newRecorder(sh.traceSpans)
		}
		var err error
		if e, err = startEnv(logDir, m.rec); err != nil {
			return nil, err
		}
		b0, h0 := e.counter("server.bytes_encoded"), e.counter("server.cross_shard_handoffs")
		t0 := time.Now()
		top, err = setupWithin(e, cfg, m)
		if err != nil {
			cerr := e.close()
			if cerr == nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			// The server stopped answering and cannot be closed: a loop is
			// wedged (README.md, Known defect). That fails the run; the
			// stuck goroutines end with the process.
			return &outcome{attempted: int64(rep + 1), failed: 1,
				checks: []error{fmt.Errorf("setup %d hung on a wedged server: %v; %v", rep+1, err, cerr)}}, nil
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupB = append(setupB, float64(e.counter("server.bytes_encoded")-b0))
		setupHandoffs = e.counter("server.cross_shard_handoffs") - h0
		setupWire = e.wireTotals()
		if rep+1 >= reps {
			break
		}
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	// restart closes e on the success path; this covers the error paths.
	defer func() {
		if e != nil {
			e.close()
		}
	}()

	// Warm up, then open the measured window.
	var stop atomic.Bool
	script := &scriptLog{max: scriptMax}
	done := make(chan error, 1)
	go func() {
		if cfg.eventWorkload() {
			done <- drive(top.groups, driversFor(cfg), cfg.workload != "fanout", fillers(cfg), m, &stop, waitTimeout)
		} else {
			done <- churn(top.churners, top.tree, m, script, &stop, waitTimeout)
		}
	}()
	warm := time.NewTimer(sh.warmup)
	select {
	case err := <-done:
		warm.Stop()
		if err == nil {
			err = fmt.Errorf("drivers stopped during warm-up")
		}
		return nil, err
	case <-warm.C:
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	lw := openLayerWindow(e)
	cpu0 := cpuTime()
	w0 := time.Now()
	m.measuring.Store(true)
	m.rec.start()
	sampler := lw.sample(&stop)
	// The window is cut into slices; rates and quantiles are taken per slice
	// and reported at the least stolen share seen (see atLeastSteal), so time the
	// host gives to other machines does not move the result.
	var driveErr error
	length := time.Duration(cfg.seconds * float64(time.Second))
	bounds := []time.Time{w0}
	cpus := []time.Duration{cpu0}
	steals := []hostClock{readHostClock()}
	for i := 1; i <= sh.slices && driveErr == nil; i++ {
		t := time.NewTimer(time.Until(w0.Add(length * time.Duration(i) / time.Duration(sh.slices))))
		select {
		case driveErr = <-done:
		case <-t.C:
			bounds = append(bounds, time.Now())
			cpus = append(cpus, cpuTime())
			steals = append(steals, readHostClock())
		}
		t.Stop()
	}
	m.measuring.Store(false)
	w1 := time.Now()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	lw.end()
	stop.Store(true)
	if driveErr == nil {
		driveErr = <-done
	}
	<-sampler
	if driveErr != nil {
		return nil, driveErr
	}

	// Drain to quiescence, then run the output checks.
	var checks []error
	if err := quiesce(e, top, waitTimeout); err != nil {
		checks = append(checks, err)
	}
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)
	for _, g := range top.groups {
		if err := g.check(); err != nil {
			checks = append(checks, err)
		}
	}
	if top.tree != nil {
		if err := checkClosure(top.tree, top.churners); err != nil {
			checks = append(checks, err)
		}
	}
	if n := wire.LiveSharedBodies(); n != 0 {
		checks = append(checks, fmt.Errorf("%d shared bodies still referenced at quiescence", n))
	}

	window := w1.Sub(w0)
	ops := float64(m.ops.Load())
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window")
	}
	out := &outcome{attempted: m.attempted.Load(), failed: m.failed.Load(), e2e: map[string]float64{}, samples: map[string]int{}}
	accept, syncd := m.accept.sorted(w0, w1), m.sync.sorted(w0, w1)
	out.samples["accept"], out.samples["sync"] = len(accept), len(syncd)
	out.samples["setups"] = len(setupS)
	out.e2e["setup_s"] = medianF(setupS)
	out.e2e["setup_bytes"] = medianF(setupB)
	own := m.accept.bytes() + m.sync.bytes() + m.spread.bytes() + m.attempt.bytes() + m.decouple.bytes() + m.mirror.bytes()
	out.e2e["heap_mb"] = float64(msHeap.HeapAlloc-own) / 1e6
	// Each accept sample is one accepted event, or one churn cycle of a
	// Couple and a Decouple.
	perSample := 1.0
	if !cfg.eventWorkload() {
		perSample = 2
	}
	quiet, stolen := quietSlices(steals)
	out.samples["stolen_permille_all"] = int(1000 * medianF(stolen))
	out.samples["stolen_permille_least"] = int(1000 * slices.Min(stolen))
	out.samples["stolen_permille_max"] = int(1000 * slices.Max(stolen))
	var rates, cpuPerOp, acceptP50, syncP50, acceptP95, syncP95 []float64
	sliceTails := true // every slice holds enough samples for its own p95
	for i := 1; i < len(bounds); i++ {
		a, sy := m.accept.sorted(bounds[i-1], bounds[i]), m.sync.sorted(bounds[i-1], bounds[i])
		n := float64(len(a)) * perSample
		rates = append(rates, n/bounds[i].Sub(bounds[i-1]).Seconds())
		cpuPerOp = append(cpuPerOp, ratio(float64((cpus[i]-cpus[i-1]).Microseconds()), n))
		acceptP50 = append(acceptP50, us(quantile(a, 0.50)))
		syncP50 = append(syncP50, us(quantile(sy, 0.50)))
		acceptP95 = append(acceptP95, us(quantile(a, 0.95)))
		syncP95 = append(syncP95, us(quantile(sy, 0.95)))
		sliceTails = sliceTails && len(a) >= sh.minTailSamples && len(sy) >= sh.minTailSamples
	}
	out.e2e["ops_per_s"] = atLeastSteal(stolen, rates)
	out.e2e["cpu_us_per_op"] = atLeastSteal(stolen, cpuPerOp)
	out.e2e["accept_p50_us"] = atLeastSteal(stolen, acceptP50)
	out.e2e["sync_p50_us"] = atLeastSteal(stolen, syncP50)
	if sliceTails {
		out.e2e["accept_p95_us"] = atLeastSteal(stolen, acceptP95)
		out.e2e["sync_p95_us"] = atLeastSteal(stolen, syncP95)
	} else {
		// Too few samples per slice for a tail (as in churn): the p95 is
		// taken over the pooled samples of the half of the slices with the
		// least stolen time.
		var pooledA, pooledS []time.Duration
		var quietStolen []float64
		for _, i := range quiet {
			pooledA = append(pooledA, m.accept.sorted(bounds[i-1], bounds[i])...)
			pooledS = append(pooledS, m.sync.sorted(bounds[i-1], bounds[i])...)
			quietStolen = append(quietStolen, stolen[i-1])
		}
		out.samples["stolen_permille_quiet"] = int(1000 * medianF(quietStolen))
		sort.Slice(pooledA, func(i, j int) bool { return pooledA[i] < pooledA[j] })
		sort.Slice(pooledS, func(i, j int) bool { return pooledS[i] < pooledS[j] })
		out.e2e["accept_p95_us"] = us(quantile(pooledA, 0.95))
		out.e2e["sync_p95_us"] = us(quantile(pooledS, 0.95))
		if min := sh.minTailSamples; len(pooledA) < min || len(pooledS) < min {
			fmt.Fprintf(os.Stderr, "cosoftbench: only %d/%d samples in the quiet slices; p95 wants %d\n", len(pooledA), len(pooledS), min)
		}
	}

	var layer map[string]float64
	if traced {
		layer = lw.layers(m, window, ops)
		layer["wire.write_bytes_per_couple"] = ratio(float64(setupWire.writeBytes), float64(top.setupCouples))
		layer["server.cross_shard_handoffs_per_couple"] = ratio(float64(setupHandoffs), float64(top.setupCouples))
		if !cfg.eventWorkload() {
			couples := ops / 2
			d := lw.wireEnd.sub(lw.wire0)
			layer["wire.write_bytes_per_couple"] = ratio(float64(d.writeBytes), couples)
			layer["server.cross_shard_handoffs_per_couple"] = ratio(float64(lw.handoffs), couples)
		}
		layer["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
		layer["proc.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
		layer["proc.gc_per_kop"] = float64(ms1.NumGC-ms0.NumGC) / ops * 1000
		layer["proc.cpu_busy_ratio"] = cpu.Seconds() / (window.Seconds() * float64(runtime.NumCPU()))
		joinP50, coP50 := replayGraph(top.script, script.ops, coReps)
		layer["couple.join_p50_ns"] = joinP50
		layer["couple.co_p50_ns"] = coP50
		out.layer = layer
	}

	// Restart.
	rs, err := restart(cfg, e, layer)
	e = nil // restart closed it
	var check *checkError
	if errors.As(err, &check) {
		checks = append(checks, check.err)
	} else if err != nil {
		return nil, err
	}
	out.checks = checks
	if traced {
		layer["server.restart_s"] = rs
		// The layer table covers the spans of the measured window, per
		// operation: per op root span (an event, or a churn cycle of two
		// operations) within the part of the window the recorder held.
		// Restart spans are left out: eventlog.open_s and server.replay_s
		// already report them.
		tot := m.rec.analyze(w0, w1)
		roots := float64(tot[spanOp].count) * perSample
		for k, t := range tot {
			kind := spanKind(k)
			if kind == spanLogOpen || kind == spanServerNew {
				continue
			}
			name := "trace." + spanNames[k]
			if kind != spanOp {
				layer[name+".count_per_op"] = ratio(float64(t.count), roots)
			}
			layer[name+".busy_ns_per_op"] = ratio(float64(t.busyNS), roots)
			layer[name+".self_ns_per_op"] = ratio(float64(t.selfN), roots)
		}
		layer["trace.spans_dropped"] = float64(m.rec.dropped.Load())
		dump := filepath.Join(cfg.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
			return nil, err
		}
		if err := m.rec.dump(dump, sh.traceDumpSpans); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}
	return out, nil
}

func driversFor(cfg config) int {
	if cfg.workload == "fanout" {
		return 1
	}
	return cfg.sh.procs
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// quiesce waits until every dispatched event was applied everywhere, the
// server has no pending event, and no shared body is referenced.
func quiesce(e *env, top *topology, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, g := range top.groups {
		for {
			g.mu.Lock()
			n := len(g.inflight)
			g.mu.Unlock()
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("group %d has %d events not applied at every member", g.id, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for e.srv.Stats().PendingEvents != 0 || wire.LiveSharedBodies() != 0 {
		if time.Now().After(deadline) {
			break // the leak check reports it
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// serverState is what a restart must preserve: instances, links and the
// coupling groups.
type serverState struct {
	Instances, Links int
	Groups           []string
}

func stateOf(s *server.Server) serverState {
	st := s.Stats()
	out := serverState{Instances: st.Instances, Links: st.Links}
	for _, g := range s.Health().Groups {
		refs := append([]string(nil), g.Refs...)
		sort.Strings(refs)
		out.Groups = append(out.Groups, strings.Join(refs, ","))
	}
	sort.Strings(out.Groups)
	return out
}

// restart closes the run's server and, with a log (durable), times bringing
// it back. It first checks that replaying the whole run log restores the
// same instances and links, then times eventlog.Open + server.New + the
// first Register over a copy of the log's first restartRecords records,
// restartReps times, and returns the median. A server without a log keeps
// no state to restart from: it returns 0, as do its restart layer metrics.
func restart(cfg config, e *env, layer map[string]float64) (float64, error) {
	sh := cfg.sh
	if e.elog == nil {
		if layer != nil {
			layer["server.replay_s"] = 0
			layer["eventlog.open_s"] = 0
			layer["eventlog.replay_records_per_s"] = 0
		}
		return 0, e.close()
	}

	before := stateOf(e.srv)
	if err := e.close(); err != nil {
		return 0, err
	}
	reg := obs.NewRegistry()
	l, err := eventlog.Open(logOptions(e.logDir, reg))
	if err != nil {
		return 0, fmt.Errorf("reopen log: %w", err)
	}
	s := server.New(serverOptions(reg, l))
	after := stateOf(s)
	s.Close()
	if err := l.Close(); err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(before, after) {
		return 0, &checkError{fmt.Errorf("restart restored %d instances, %d links, %d groups; before it there were %d, %d, %d",
			after.Instances, after.Links, len(after.Groups), before.Instances, before.Links, len(before.Groups))}
	}

	// Cut the fixed-size restart log from the run's log.
	var recs []eventlog.Record
	t0 := time.Now()
	total := 0
	if err := eventlog.ReplayDir(e.logDir, func(r eventlog.Record) error {
		total++
		if len(recs) < sh.restartRecords {
			recs = append(recs, r)
		}
		return nil
	}); err != nil {
		return 0, fmt.Errorf("replay run log: %w", err)
	}
	replayTime := time.Since(t0)
	if len(recs) < sh.restartRecords {
		return 0, fmt.Errorf("run log holds %d records, restart needs %d", len(recs), sh.restartRecords)
	}
	fixed := filepath.Join(cfg.dir, "restart-log")
	if err := writeLog(fixed, recs); err != nil {
		return 0, err
	}
	var opens, news, restarts []float64
	work := filepath.Join(cfg.dir, "restart-work")
	for i := 0; i < sh.restartReps; i++ {
		if err := copyDir(fixed, work); err != nil {
			return 0, err
		}
		reg := obs.NewRegistry()
		o, n, total, err := restartOnce(e.rec, reg, work)
		if err != nil {
			return 0, err
		}
		if got := reg.Snapshot().Counters["server.log.replayed"]; got != uint64(sh.restartRecords) {
			return 0, fmt.Errorf("restart replayed %d records, want %d", got, sh.restartRecords)
		}
		opens = append(opens, o.Seconds())
		news = append(news, n.Seconds())
		restarts = append(restarts, total.Seconds())
	}
	if layer != nil {
		layer["eventlog.open_s"] = medianF(opens)
		layer["server.replay_s"] = medianF(news)
		layer["eventlog.replay_records_per_s"] = float64(total) / replayTime.Seconds()
	}
	return medianF(restarts), nil
}

// restartOnce times one restart: eventlog.Open of logDir (when set),
// server.New (which replays the log), and serving a new connection until a
// client's Register round trip has completed. It returns the Open time, the
// New time and the whole time until the server answered.
func restartOnce(rec *recorder, reg *obs.Registry, logDir string) (open, replay, total time.Duration, err error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	wreg := widget.NewRegistry()
	t0 := time.Now()
	var l *eventlog.Log
	if logDir != "" {
		if l, err = eventlog.Open(logOptions(logDir, reg)); err != nil {
			return 0, 0, 0, err
		}
		defer l.Close()
	}
	t1 := time.Now()
	s := server.New(serverOptions(reg, l))
	t2 := time.Now()
	defer s.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(lis)
	}()
	defer func() {
		lis.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return 0, 0, 0, err
	}
	cl, err := client.New(conn, client.Options{AppType: "bench", User: "restart-probe", Registry: wreg})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("restart probe: %w", err)
	}
	t3 := time.Now()
	cl.Close()
	if l != nil {
		rec.record(spanLogOpen, 0, t0, t1)
	}
	rec.record(spanServerNew, 0, t1, t2)
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t0), nil
}

// writeLog writes records into a fresh log directory.
func writeLog(dir string, recs []eventlog.Record) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	l, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncNone})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			l.Close()
			return fmt.Errorf("write restart log: %w", err)
		}
	}
	return l.Close()
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
