package cosoft_test

// One benchmark per reproduced table/figure (see DESIGN.md §4). The
// benchmarks wrap the experiment harnesses in internal/experiments with
// fixed parameters so `go test -bench=.` regenerates every row family; the
// cmd/experiments binary prints the full sweeps.

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cosoft"
	"cosoft/internal/attr"
	"cosoft/internal/benchio"
	"cosoft/internal/client"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/experiments"
	"cosoft/internal/netsim"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// BenchmarkTable1Architectures runs the full capability probe suite of the
// paper's comparison table (E1).
func BenchmarkTable1Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkArch measures the per-interaction response time of each
// architecture under the mixed workload (E2 / Figures 1-3).
func BenchmarkArch(b *testing.B) {
	params := experiments.ArchParams{
		Users:          []int{4},
		Latencies:      []time.Duration{0},
		EventsPerUser:  8,
		SharedFraction: 0.25,
	}
	archs := []string{"multiplex", "ui-replicated", "cosoft"}
	for _, arch := range archs {
		b.Run(arch, func(b *testing.B) {
			var perEvent time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.ArchComparison(params)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Architecture == arch {
						perEvent = r.PerEvent
					}
				}
			}
			b.ReportMetric(float64(perEvent.Nanoseconds()), "ns/event")
		})
	}
}

// BenchmarkStateVsAction compares re-synchronization strategies after 100
// missed actions (E3 / §3.1).
func BenchmarkStateVsAction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StateVsAction([]int{100})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(float64(r.ReplayTime.Nanoseconds()), "ns/replay")
		b.ReportMetric(float64(r.StateCopyTime.Nanoseconds()), "ns/statecopy")
	}
}

// BenchmarkFloorControl measures the floor-control cost per character at
// fine and coarse event granularity (E4 / §3.2).
func BenchmarkFloorControl(b *testing.B) {
	for _, chars := range []int{1, 64} {
		b.Run(map[int]string{1: "chars-1", 64: "chars-64"}[chars], func(b *testing.B) {
			var perChar time.Duration
			for i := 0; i < b.N; i++ {
				rows, err := experiments.FloorControl(256, []int{chars})
				if err != nil {
					b.Fatal(err)
				}
				perChar = rows[0].PerChar
			}
			b.ReportMetric(float64(perChar.Nanoseconds()), "ns/char")
		})
	}
}

// BenchmarkSCompat measures the mapping search of §3.3 (E5).
func BenchmarkSCompat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompatMatching([]int{6}, []int{3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].NaiveVisits), "naive-visits")
		b.ReportMetric(float64(rows[0].HeurVisits), "heur-visits")
	}
}

// BenchmarkTORIQueryCoupling compares multiple evaluation against
// evaluate-once-and-share (E6 / §4).
func BenchmarkTORIQueryCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TORIQueryCoupling([]int{10000}, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].ReexecTime.Nanoseconds()), "ns/reexec")
		b.ReportMetric(float64(rows[0].ShareTime.Nanoseconds()), "ns/share")
	}
}

// BenchmarkIndirectCoupling compares direct and indirect coupling of a
// 4096-point dependent display (E7 / §4).
func BenchmarkIndirectCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IndirectCoupling([]int{4096})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].DirectBytes), "direct-bytes")
		b.ReportMetric(float64(rows[0].IndirectBytes), "indirect-bytes")
	}
}

// BenchmarkOrdering compares centralized locking against optimistic
// timestamp ordering at 50% contention (E8 / §2.1).
func BenchmarkOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OrderingComparison(3, 20, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].CentralTime.Nanoseconds()), "ns/central")
		b.ReportMetric(float64(rows[0].OptimisticTime.Nanoseconds()), "ns/optimistic")
	}
}

// BenchmarkHistory walks an 8-deep undo/redo stack (E9 / §2.1).
func BenchmarkHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HistoryWalk([]int{8})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].UndoCorrect || !rows[0].RedoCorrect {
			b.Fatal("history walk incorrect")
		}
	}
}

// BenchmarkCoupledEvent measures the end-to-end cost of one synchronized
// high-level event between two coupled instances (the model's primitive
// operation).
func BenchmarkCoupledEvent(b *testing.B) {
	cl, err := experiments.NewCluster(2, `textfield field value=""`, 0,
		server.Options{}, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.DeclareAll("/field"); err != nil {
		b.Fatal(err)
	}
	if err := cl.CoupleStar("/field"); err != nil {
		b.Fatal(err)
	}
	vals := []attr.Value{attr.String("benchmark payload")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &widget.Event{Path: "/field", Name: widget.EventChanged, Args: vals}
		if _, err := experiments.DispatchRetry(cl.Clients[0], ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalEvent measures an uncoupled event for contrast — the "many
// operations can be performed locally" path of the replicated architecture.
func BenchmarkLocalEvent(b *testing.B) {
	reg := cosoft.NewRegistry()
	cosoft.MustBuild(reg, "/", `textfield field value=""`)
	vals := []cosoft.Value{cosoft.String("benchmark payload")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := &cosoft.Event{Path: "/field", Name: cosoft.EventChanged, Args: vals}
		if err := reg.Dispatch(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockingVariants is the ablation for DESIGN.md decision 2: the
// paper's sequential lock-all-or-undo group locking vs. the deterministic
// ordered variant, under contention from four users.
func BenchmarkLockingVariants(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		name := "paper-sequential"
		if ordered {
			name = "ordered"
		}
		b.Run(name, func(b *testing.B) {
			cl, err := experiments.NewCluster(4, `textfield field value=""`, 0,
				server.Options{OrderedLocking: ordered}, client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.DeclareAll("/field"); err != nil {
				b.Fatal(err)
			}
			if err := cl.CoupleStar("/field"); err != nil {
				b.Fatal(err)
			}
			vals := []attr.Value{attr.String("x")}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := &widget.Event{Path: "/field", Name: widget.EventChanged, Args: vals}
				if _, err := experiments.DispatchRetry(cl.Clients[i%4], ev); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cl.Srv.Stats().LockFailures), "lock-denials")
		})
	}
}

// BenchmarkEvent is the observability gate for the event hot path: the
// metrics-off variant (obs.Disabled, no tracer) must show no added
// allocations over the seed event path — it additionally gates every
// tracing call the event path grew at exactly zero allocations when
// disabled — while the metrics-on and tracing-on variants append rows to
// the BENCH_obs.json trajectory consumed by later performance PRs.
func BenchmarkEvent(b *testing.B) {
	for _, mode := range []string{"metrics-off", "metrics-on", "tracing-on"} {
		b.Run(mode, func(b *testing.B) {
			var sink obs.Sink = obs.Disabled
			var reg *obs.Registry
			var sopts server.Options
			var copts client.Options
			if mode != "metrics-off" {
				reg = obs.NewRegistry()
				sink = reg
			}
			if mode == "tracing-on" {
				tr := obs.NewTracer(0)
				sopts.Tracer = tr
				sopts.Flight = obs.NewFlightRecorder(0)
				copts.Tracer = tr
			}
			sopts.Metrics = sink
			cl, err := experiments.NewCluster(2, `textfield field value=""`, 0, sopts, copts)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.DeclareAll("/field"); err != nil {
				b.Fatal(err)
			}
			if err := cl.CoupleStar("/field"); err != nil {
				b.Fatal(err)
			}
			vals := []attr.Value{attr.String("benchmark payload")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := &widget.Event{Path: "/field", Name: widget.EventChanged, Args: vals}
				if _, err := experiments.DispatchRetry(cl.Clients[0], ev); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == "metrics-off" {
				gateDisabledTracingAllocs(b)
				gateDisabledFamilyAllocs(b)
			}
			if reg != nil {
				stats := cl.Srv.Stats()
				b.ReportMetric(stats.EventRTT.P50, "p50-rtt-ns")
				b.ReportMetric(stats.EventRTT.P99, "p99-rtt-ns")
				writeBenchTrajectory(b, "BenchmarkEvent/"+mode, reg, stats)
			}
		})
	}

	// The batched pair measures the wire-batching win on the Exec fan-out
	// hot path. Both variants share a wider topology — one hub object on the
	// origin coupled to fanWidth members on the peer instance, so every
	// event produces a fanWidth-Exec run down a single connection — and
	// differ only in whether the batch extension is negotiated: off sends
	// each Exec (and each ExecAck back) as its own frame, on packs the run
	// into Batch frames answered by coalesced BatchAcks. Unlike the variants
	// above this pair runs over real loopback TCP, where every frame costs a
	// syscall and a reader wakeup — the per-frame overhead batching exists
	// to amortize; an in-process channel transport would hide it.
	for _, mode := range []string{"batched-off", "batched-on"} {
		var sopts server.Options
		batching := false
		if mode == "batched-on" {
			sopts.BatchLimit = 64
			batching = true
		}
		b.Run(mode, func(b *testing.B) {
			fanoutBench(b, "BenchmarkEvent/"+mode, sopts, batching, mode == "batched-on")
		})
	}

	// The encode-once pair isolates the shared-body optimization: both
	// variants batch (the PR 5 baseline), and differ only in whether the
	// broadcast's Exec body is encoded once into a shared buffer or
	// re-encoded per member. The trajectory rows record B/event and
	// allocs/event alongside server.bytes_encoded, whose ~fanWidth-times
	// drop is the optimization's signature.
	for _, mode := range []string{"encode-once-off", "encode-once-on"} {
		sopts := server.Options{BatchLimit: 64, DisableEncodeOnce: mode == "encode-once-off"}
		b.Run(mode, func(b *testing.B) {
			fanoutBench(b, "BenchmarkEvent/"+mode, sopts, true, false)
		})
	}

	// The straggler-attribution pair isolates the per-member accounting the
	// group health plane added to the ack hot path: both variants batch and
	// run with metrics on (the realistic deployment), and differ only in
	// whether each ExecAck charges its latency to the acking member's family
	// entry. The entry pointer is cached per client at admission, so the on
	// variant's cost is a handful of atomics per ack — the trajectory rows
	// record the p50 RTT delta and the per-event allocation counts that gate
	// the <5% overhead acceptance criterion.
	for _, mode := range []string{"straggler-attr-off", "straggler-attr-on"} {
		sopts := server.Options{BatchLimit: 64, DisableMemberAttribution: mode == "straggler-attr-off"}
		b.Run(mode, func(b *testing.B) {
			fanoutBench(b, "BenchmarkEvent/"+mode, sopts, true, false)
		})
	}

	// The multi-group variant drives eight independent coupling groups
	// concurrently through the one serialized state loop, so it prices the
	// per-event fixed cost with several groups in flight. The trajectory
	// rows carry num_cpu so rows from different hosts are not confused.
	b.Run("multi-group", func(b *testing.B) {
		multiGroupBench(b, "BenchmarkEvent/multi-group")
	})

	// The durable trio prices the append-before-ack event log on the coupled
	// event hot path. off is the in-memory baseline; interval acks once the
	// record's bytes are written, group-committing fsyncs on a timer — the
	// recommended deployment; always fsyncs inside every acknowledgement, the
	// full price of "an acked event survives kill -9". The trajectory rows
	// carry the server.log.* counters so later PRs can watch bytes-per-event
	// and fsyncs-per-event alongside the RTT deltas.
	for _, mode := range []string{"durable-off", "durable-interval", "durable-always"} {
		b.Run(mode, func(b *testing.B) {
			durableBench(b, "BenchmarkEvent/"+mode, mode)
		})
	}
}

// durableBench runs one BenchmarkEvent durable variant: the coupled-pair
// topology over real loopback TCP (fsync latency only matters against real
// I/O timing), with the server's event log in a fresh directory per
// invocation so the harness's calibration reruns never replay a prior run.
func durableBench(b *testing.B, bench, mode string) {
	reg := obs.NewRegistry()
	sopts := server.Options{Metrics: reg}
	if mode != "durable-off" {
		sync := eventlog.SyncInterval
		if mode == "durable-always" {
			sync = eventlog.SyncAlways
		}
		elog, err := eventlog.Open(eventlog.Options{Dir: b.TempDir(), Sync: sync, Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		defer elog.Close()
		sopts.EventLog = elog
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(sopts)
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()
	mkClient := func(user string) *cosoft.Client {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		wreg := cosoft.NewRegistry()
		cosoft.MustBuild(wreg, "/", `textfield field value=""`)
		c, err := client.New(conn, client.Options{
			AppType: "bench", User: user, Host: "bench", Registry: wreg,
			RPCTimeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	origin := mkClient("origin")
	defer origin.Close()
	member := mkClient("member")
	defer member.Close()
	if err := origin.Declare("/field"); err != nil {
		b.Fatal(err)
	}
	if err := member.Declare("/field"); err != nil {
		b.Fatal(err)
	}
	if err := origin.Couple("/field", member.Ref("/field")); err != nil {
		b.Fatal(err)
	}
	vals := []attr.Value{attr.String("benchmark payload")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &widget.Event{Path: "/field", Name: widget.EventChanged, Args: vals}
		if _, err := experiments.DispatchRetry(origin, ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := srv.Stats()
	b.ReportMetric(stats.EventRTT.P50, "p50-rtt-ns")
	b.ReportMetric(stats.EventRTT.P99, "p99-rtt-ns")
	writeBenchTrajectory(b, bench, reg, stats)
}

// multiGroupBench runs the BenchmarkEvent multi-group variant: groupCount
// independent origin↔member pairs over real loopback TCP, every origin
// dispatching its share of b.N events from its own goroutine so the server
// sees all groups contending at once.
func multiGroupBench(b *testing.B, bench string) {
	const groupCount = 8
	var spec strings.Builder
	for g := 0; g < groupCount; g++ {
		fmt.Fprintf(&spec, "textfield g%d value=\"\"\n", g)
	}
	reg := obs.NewRegistry()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Options{Metrics: reg})
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()
	mkClient := func(user string) *cosoft.Client {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		wreg := cosoft.NewRegistry()
		cosoft.MustBuild(wreg, "/", spec.String())
		c, err := client.New(conn, client.Options{
			AppType: "bench", User: user, Host: "bench", Registry: wreg,
			RPCTimeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	origins := make([]*cosoft.Client, groupCount)
	for g := 0; g < groupCount; g++ {
		path := fmt.Sprintf("/g%d", g)
		origins[g] = mkClient(fmt.Sprintf("origin%d", g))
		defer origins[g].Close()
		member := mkClient(fmt.Sprintf("member%d", g))
		defer member.Close()
		if err := origins[g].Declare(path); err != nil {
			b.Fatal(err)
		}
		if err := member.Declare(path); err != nil {
			b.Fatal(err)
		}
		if err := origins[g].Couple(path, member.Ref(path)); err != nil {
			b.Fatal(err)
		}
	}
	vals := []attr.Value{attr.String("benchmark payload")}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < groupCount; g++ {
		n := b.N / groupCount
		if g < b.N%groupCount {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			path := fmt.Sprintf("/g%d", g)
			for i := 0; i < n; i++ {
				ev := &widget.Event{Path: path, Name: widget.EventChanged, Args: vals}
				if _, err := experiments.DispatchRetry(origins[g], ev); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
	b.StopTimer()
	stats := srv.Stats()
	b.ReportMetric(stats.EventRTT.P50, "p50-rtt-ns")
	b.ReportMetric(stats.EventRTT.P99, "p99-rtt-ns")
	writeBenchTrajectory(b, bench, reg, stats, map[string]float64{
		"groups":  groupCount,
		"num_cpu": float64(runtime.NumCPU()),
	})
}

// fanoutBench runs one BenchmarkEvent fan-out variant: one hub object on the
// origin coupled to fanWidth members on a peer instance over real loopback
// TCP. Besides the RTT metrics it measures whole-process B/event and
// allocs/event across the timed loop (runtime.MemStats deltas — both client
// processes included, so the numbers are comparable across variants, not
// absolute server costs) and appends everything to the trajectory.
func fanoutBench(b *testing.B, bench string, sopts server.Options, batching, gateCoalesced bool) {
	const fanWidth = 32
	var spec strings.Builder
	spec.WriteString("textfield hub value=\"\"\n")
	for i := 0; i < fanWidth; i++ {
		fmt.Fprintf(&spec, "textfield m%d value=\"\"\n", i)
	}
	reg := obs.NewRegistry()
	sopts.Metrics = reg
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(sopts)
	go srv.Serve(lis)
	defer srv.Close()
	defer lis.Close()
	mkClient := func(user string) *cosoft.Client {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		wreg := cosoft.NewRegistry()
		cosoft.MustBuild(wreg, "/", spec.String())
		c, err := client.New(conn, client.Options{
			AppType: "bench", User: user, Host: "bench", Registry: wreg,
			RPCTimeout: 30 * time.Second, Batching: batching,
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	origin := mkClient("origin")
	defer origin.Close()
	peer := mkClient("peer")
	defer peer.Close()
	if err := origin.Declare("/hub"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fanWidth; i++ {
		path := fmt.Sprintf("/m%d", i)
		if err := peer.Declare(path); err != nil {
			b.Fatal(err)
		}
		if err := origin.Couple("/hub", peer.Ref(path)); err != nil {
			b.Fatal(err)
		}
	}
	vals := []attr.Value{attr.String("benchmark payload")}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &widget.Event{Path: "/hub", Name: widget.EventChanged, Args: vals}
		if _, err := experiments.DispatchRetry(origin, ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	stats := srv.Stats()
	// Whether any single event's fan-out gets packed depends on how
	// the writer goroutine races the state loop, so only a run long
	// enough to average that out is gated (the framework's N=1
	// discovery pass is not).
	if gateCoalesced && b.N >= 50 && stats.AcksCoalesced == 0 {
		b.Fatal("batched-on run never coalesced an ack")
	}
	bytesPerEvent := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N)
	allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
	b.ReportMetric(stats.EventRTT.P50, "p50-rtt-ns")
	b.ReportMetric(stats.EventRTT.P99, "p99-rtt-ns")
	b.ReportMetric(float64(stats.AcksCoalesced), "acks-coalesced")
	b.ReportMetric(bytesPerEvent, "B/event")
	b.ReportMetric(allocsPerEvent, "allocs/event")
	writeBenchTrajectory(b, bench, reg, stats, map[string]float64{
		"b_per_event":         bytesPerEvent,
		"allocs_per_event":    allocsPerEvent,
		"bytes_encoded":       float64(stats.BytesEncoded),
		"body_pool_hits":      float64(stats.BodyPoolHits),
		"body_pool_misses":    float64(stats.BodyPoolMisses),
		"bytes_enc_per_event": float64(stats.BytesEncoded) / float64(b.N),
	})
}

// discardConn is a net.Conn that swallows writes, so BenchmarkBroadcastEncode
// can measure the server-side encode path alone.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkBroadcastEncode isolates the acceptance criterion of the
// encode-once PR: allocations per broadcast event on the server's send path
// must be independent of fan-out. One iteration encodes a shared Exec body
// once and writes it to every member connection; the per-op allocation
// count must stay flat from fan-out 1 to 512 (pooled body, per-conn scratch,
// no per-member materialization).
func BenchmarkBroadcastEncode(b *testing.B) {
	origin := couple.ObjectRef{Instance: "bench", Path: "/hub"}
	vals := []attr.Value{attr.String("benchmark payload")}
	for _, fanout := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			conns := make([]*wire.Conn, fanout)
			paths := make([]string, fanout)
			for i := range conns {
				conns[i] = wire.NewConn(discardConn{})
				paths[i] = fmt.Sprintf("/m%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				se := wire.NewSharedExec(uint64(i+1), "changed", vals, origin)
				for j, c := range conns {
					se.Ref()
					o := wire.Outgoing{Shared: se, Target: paths[j]}
					if err := c.WriteOutgoing(o); err != nil {
						b.Fatal(err)
					}
					se.Release()
				}
				se.Release()
			}
			b.StopTimer()
			if n := wire.LiveSharedBodies(); n != 0 {
				b.Fatalf("leaked %d shared bodies", n)
			}
		})
	}
}

// BenchmarkReconnect measures one full recovery cycle of the fault-tolerance
// layer: connection loss, backoff, session resume reclaiming the instance
// ID, re-declaration, re-coupling and the CopyFrom state pull. The metric
// snapshot (server.resumes, server.copies) is appended to the BENCH_obs.json
// trajectory.
func BenchmarkReconnect(b *testing.B) {
	reg := obs.NewRegistry()
	srv := server.New(server.Options{Metrics: reg})
	defer srv.Close()
	serve := func(conn net.Conn) {
		go srv.HandleConn(wire.NewConn(conn))
	}

	newClient := func(user string, rec *client.ReconnectOptions) *cosoft.Client {
		wreg := cosoft.NewRegistry()
		cosoft.MustBuild(wreg, "/", `textfield field value=""`)
		link := netsim.NewLink(0)
		serve(link.B)
		c, err := client.New(link.A, client.Options{
			AppType: "editor", User: user, Host: "bench", Registry: wreg,
			RPCTimeout: 5 * time.Second, Reconnect: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}

	a := newClient("alice", nil)
	defer a.Close()

	var mu sync.Mutex
	var cur net.Conn // b's live client-side conn; closing it forces a reconnect
	resynced := make(chan error, 1)
	rec := &client.ReconnectOptions{
		Dial: func() (net.Conn, error) {
			link := netsim.NewLink(0)
			serve(link.B)
			mu.Lock()
			cur = link.A
			mu.Unlock()
			return link.A, nil
		},
		BaseDelay: time.Millisecond,
		MaxDelay:  time.Millisecond,
		Seed:      1,
		OnResync:  func(err error) { resynced <- err },
	}
	wregB := cosoft.NewRegistry()
	cosoft.MustBuild(wregB, "/", `textfield field value=""`)
	linkB := netsim.NewLink(0)
	serve(linkB.B)
	cur = linkB.A
	cb, err := client.New(linkB.A, client.Options{
		AppType: "editor", User: "bob", Host: "bench", Registry: wregB,
		RPCTimeout: 5 * time.Second, Reconnect: rec,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cb.Close()

	if err := a.Declare("/field"); err != nil {
		b.Fatal(err)
	}
	if err := cb.Declare("/field"); err != nil {
		b.Fatal(err)
	}
	if err := cb.Couple("/field", a.Ref("/field")); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		conn := cur
		mu.Unlock()
		conn.Close()
		if err := <-resynced; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := srv.Stats()
	if stats.Resumes < uint64(b.N) {
		b.Fatalf("resumes = %d, want >= %d", stats.Resumes, b.N)
	}
	writeBenchTrajectory(b, "BenchmarkReconnect", reg, stats)
}

// BenchmarkRestartReplay prices a durable restart over a 50k-event log. The
// from-zero variant replays every record on each Open+New; the from-snapshot
// variant restarts the same directory after one snapshot+compaction cycle
// and must replay zero log records — the snapshot covers the whole log, so
// startup cost becomes O(state), not O(history). Both append rows to the
// BENCH_obs.json trajectory; the from-snapshot row's server.log.replayed
// counter staying at zero is the bounded-replay acceptance gate.
func BenchmarkRestartReplay(b *testing.B) {
	const events = 50_000
	dir := b.TempDir()
	seedRestartLog(b, dir, events)

	// from-zero runs first: its restarts must see the uncompacted log, and
	// the from-snapshot prep below compacts the shared directory.
	b.Run("from-zero", func(b *testing.B) {
		reg := obs.NewRegistry()
		var stats cosoft.ServerStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			elog, err := eventlog.Open(eventlog.Options{Dir: dir, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(server.Options{EventLog: elog, ReplayTail: true})
			stats = srv.Stats()
			srv.Close()
			if err := elog.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		counters := reg.Snapshot().Counters
		replayed := counters["server.log.replayed"]
		if replayed < uint64(events)*uint64(b.N) {
			b.Fatalf("from-zero replayed %d records over %d restarts; want >= %d per restart",
				replayed, b.N, events)
		}
		writeBenchTrajectory(b, "BenchmarkRestartReplay/from-zero", reg, stats, map[string]float64{
			"events":               events,
			"replayed_per_restart": float64(replayed) / float64(b.N),
		})
	})

	b.Run("from-snapshot", func(b *testing.B) {
		// Prep (untimed): one incarnation snapshots the folded state at the
		// log's end and compacts the segments behind it.
		elogPrep, err := eventlog.Open(eventlog.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		srvPrep := server.New(server.Options{EventLog: elogPrep, ReplayTail: true})
		if err := srvPrep.Snapshot(); err != nil {
			b.Fatal(err)
		}
		srvPrep.Close()
		if err := elogPrep.Close(); err != nil {
			b.Fatal(err)
		}

		reg := obs.NewRegistry()
		var stats cosoft.ServerStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			elog, err := eventlog.Open(eventlog.Options{Dir: dir, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(server.Options{EventLog: elog, ReplayTail: true})
			stats = srv.Stats()
			srv.Close()
			if err := elog.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		counters := reg.Snapshot().Counters
		if got := counters["server.log.replay_from_snapshot"]; got != uint64(b.N) {
			b.Fatalf("%d of %d restarts replayed from the snapshot", got, b.N)
		}
		if replayed := counters["server.log.replayed"]; replayed != 0 {
			b.Fatalf("from-snapshot restarts replayed %d log records; want 0 (snapshot covers the log)", replayed)
		}
		writeBenchTrajectory(b, "BenchmarkRestartReplay/from-snapshot", reg, stats, map[string]float64{
			"events":               events,
			"replayed_per_restart": 0,
		})
	})
}

// seedRestartLog writes the fixed restart-replay workload: two registered
// instances, one coupled object pair, then `events` committed Exec records —
// the same record shapes a live session appends, without paying for 50k
// round-trips.
func seedRestartLog(b *testing.B, dir string, events int) {
	b.Helper()
	elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	app := func(rec eventlog.Record) {
		if err := elog.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	refA := couple.ObjectRef{Instance: "app-1", Path: "/x"}
	refB := couple.ObjectRef{Instance: "app-2", Path: "/x"}
	for i, id := range []string{"app-1", "app-2"} {
		app(eventlog.Record{Kind: eventlog.KindRegister, Origin: id, Env: wire.Envelope{
			Msg: wire.Register{AppType: "app", Host: "bench", User: fmt.Sprintf("u%d", i+1)},
		}})
		app(eventlog.Record{Kind: eventlog.KindDeclare, Origin: id, Env: wire.Envelope{
			Msg: wire.Declare{Path: "/x", Class: "textfield"},
		}})
	}
	app(eventlog.Record{Kind: eventlog.KindCouple, Origin: "app-1", Env: wire.Envelope{
		Msg: wire.Couple{From: refA, To: refB},
	}})
	vals := []attr.Value{attr.String("benchmark payload")}
	for i := 1; i <= events; i++ {
		app(eventlog.Record{Kind: eventlog.KindEvent, Origin: "app-1", Env: wire.Envelope{
			Msg: wire.Exec{EventID: uint64(i), TargetPath: "/x", Name: "changed", Args: vals, Origin: refA},
		}})
	}
	if err := elog.Close(); err != nil {
		b.Fatal(err)
	}
}

// gateDisabledTracingAllocs fails the benchmark if any tracing call shape
// the event path uses allocates when tracing is disabled (nil tracer, nil
// flight recorder) — the contract that keeps the metrics-off variant
// byte-for-byte as cheap as the seed event path.
func gateDisabledTracingAllocs(b *testing.B) {
	var tr *obs.Tracer
	var fr *obs.FlightRecorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartRoot("client.event_send", "inst")
		child := tr.StartSpan(sp.Context(), "server.event_arrival", "server")
		tr.Point(child.Context(), "server.exec_send", "server", "")
		child.EndNote("ok")
		sp.End()
		fr.Record("conn", obs.FlightEntry{Type: "Event"})
	})
	if allocs != 0 {
		b.Fatalf("disabled tracing path allocates %.1f times per event", allocs)
	}
}

// gateDisabledFamilyAllocs fails the benchmark if the per-member attribution
// call shape allocates when metrics are disabled: obs.Disabled hands out a
// nil *Family, and every lookup and sub-metric update on it must no-op for
// free — the contract that lets the ack path keep its attribution calls
// unconditionally inline.
func gateDisabledFamilyAllocs(b *testing.B) {
	f := obs.Disabled.Family("server.member", obs.FamilySchema{
		Counters: []string{"acks"}, Hist: "ack_ns", EWMA: "ack_ewma_ns",
	})
	allocs := testing.AllocsPerRun(100, func() {
		e := f.Get("inst")
		e.Hist().Observe(1)
		e.EWMA().Observe(1)
		e.Counter(0).Inc()
		f.Peek("inst")
	})
	if allocs != 0 {
		b.Fatalf("disabled family path allocates %.1f times per ack", allocs)
	}
}

// trajectoryWritten tracks which benchmarks already wrote a row in this
// process, so calibration re-invocations update their row in place.
var trajectoryWritten = map[string]bool{}

// writeBenchTrajectory appends the benchmark's metric snapshot to the
// BENCH_obs.json trajectory at the repo root, so the perf history of
// successive PRs is diffable. The file is a JSON array of rows; a legacy
// single-object file is absorbed as the first row. An optional extras map
// adds derived per-op measurements (B/event, allocs/event, …) to the row.
func writeBenchTrajectory(b *testing.B, bench string, reg *obs.Registry, stats cosoft.ServerStats, extras ...map[string]float64) {
	row := struct {
		Bench    string                 `json:"bench"`
		N        int                    `json:"n"`
		EventRTT cosoft.MetricsSummary  `json:"event_rtt_ns"`
		Snapshot cosoft.MetricsSnapshot `json:"snapshot"`
		Extra    map[string]float64     `json:"extra,omitempty"`
	}{
		Bench:    bench,
		N:        b.N,
		EventRTT: stats.EventRTT,
		Snapshot: reg.Snapshot(),
	}
	for _, m := range extras {
		if row.Extra == nil {
			row.Extra = map[string]float64{}
		}
		for k, v := range m {
			row.Extra[k] = v
		}
	}
	// The harness invokes a benchmark several times while calibrating N;
	// each invocation writes. The final (largest-N) invocation wins: a
	// trailing row this same process wrote for the same benchmark is
	// replaced, while rows from earlier sessions always stay — the file is
	// an append-only trajectory across PRs.
	replace := ""
	if trajectoryWritten[bench] {
		replace = bench
	}
	trajectoryWritten[bench] = true
	if err := benchio.AppendRow("BENCH_obs.json", row, replace); err != nil {
		b.Fatalf("write BENCH_obs.json: %v", err)
	}
}
