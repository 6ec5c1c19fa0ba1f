// Command cosoft-load drives the coupling server with real TCP clients at
// configurable scale: G independent coupling groups of S members each, every
// member a full client over its own loopback connection, with one origin per
// group dispatching synchronized events as fast as the group's floor control
// allows (or at a fixed rate). It is the measurement harness for the
// 256–4096-member regime the broadcast fan-out optimizations target.
//
// By default it starts an in-process server on a loopback listener, so the
// emitted row includes the server's own metrics (event RTT histogram,
// server.bytes_encoded, body-pool hit rates) and whole-process B/event and
// allocs/event. With -addr it drives an external server instead and reports
// only client-observed numbers. A faultnet profile (in-process only)
// degrades every server-side connection to measure under loss, duplication
// and delay.
//
// Usage:
//
//	cosoft-load [-groups 2] [-group-size 64] [-duration 5s] [-events 0]
//	            [-rate 0] [-payload 24] [-batch-limit 32] [-batching]
//	            [-no-encode-once] [-no-member-attr]
//	            [-faultnet "dup=0.01,delay=1ms,jitter=1ms"]
//	            [-addr host:port] [-bench-out BENCH_obs.json] [-v]
//
// The summary row reports per-group-aggregated p50/p99 dispatch RTT (origin
// Event → server EventResult, the floor-acquisition latency every user
// feels), events/sec, and — in-process — B/event, allocs/event and
// bytes-encoded/event. Group formation is reported apart, as setup_s (until
// every member's mirror holds its whole group) and, in-process,
// setup_bytes_encoded; bytes-encoded/event counts only what was encoded
// after setup. With -bench-out the same numbers are appended to the
// BENCH_obs.json trajectory next to the go-test benchmark rows.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosoft/internal/attr"
	"cosoft/internal/benchio"
	"cosoft/internal/client"
	"cosoft/internal/experiments"
	"cosoft/internal/faultnet"
	"cosoft/internal/obs"
	"cosoft/internal/server"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

func main() {
	var (
		addr         = flag.String("addr", "", "drive an external server at this address (empty = start an in-process server)")
		groups       = flag.Int("groups", 2, "number of independent coupling groups")
		groupSize    = flag.Int("group-size", 64, "members per group (origin included); every member is one TCP client")
		duration     = flag.Duration("duration", 5*time.Second, "how long to generate load (ignored when -events > 0)")
		events       = flag.Int("events", 0, "dispatch exactly this many events per group instead of running for -duration")
		rate         = flag.Float64("rate", 0, "target events/sec per group (0 = as fast as floor control allows)")
		payload      = flag.Int("payload", 24, "event payload size in bytes")
		batchLimit   = flag.Int("batch-limit", 32, "in-process server batch limit (0 or 1 = batching disabled)")
		batching     = flag.Bool("batching", true, "clients opt into the wire batch extension")
		noEncodeOnce = flag.Bool("no-encode-once", false, "in-process server re-encodes the Exec body per member (ablation)")
		noMemberAttr = flag.Bool("no-member-attr", false, "in-process server skips per-member straggler attribution (ablation)")
		faultSpec    = flag.String("faultnet", "", `faultnet profile for in-process server conns, e.g. "drop=0.01,dup=0.01,dropnth=0,delay=1ms,jitter=1ms,seed=1"`)
		benchOut     = flag.String("bench-out", "", "append a row to this BENCH_obs.json trajectory (empty = report only)")
		verbose      = flag.Bool("v", false, "log per-group progress")
	)
	flag.Parse()
	if *groups < 1 || *groupSize < 2 {
		fmt.Fprintln(os.Stderr, "cosoft-load: need -groups >= 1 and -group-size >= 2")
		os.Exit(2)
	}
	if err := run(config{
		addr: *addr, groups: *groups, groupSize: *groupSize,
		duration: *duration, events: *events, rate: *rate, payload: *payload,
		batchLimit: *batchLimit, batching: *batching,
		noEncodeOnce: *noEncodeOnce, noMemberAttr: *noMemberAttr,
		faultSpec: *faultSpec, benchOut: *benchOut, verbose: *verbose,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "cosoft-load: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr         string
	groups       int
	groupSize    int
	duration     time.Duration
	events       int
	rate         float64
	payload      int
	batchLimit   int
	batching     bool
	noEncodeOnce bool
	noMemberAttr bool
	faultSpec    string
	benchOut     string
	verbose      bool
}

// groupResult is one group's share of the load: accepted events, floor
// rejections retried through, and the dispatch RTT samples.
type groupResult struct {
	events     int
	rejections int
	rtts       []time.Duration
}

func run(cfg config) error {
	var (
		srv  *server.Server
		reg  *obs.Registry
		wg   sync.WaitGroup
		dial func() (net.Conn, error)
	)
	if cfg.addr == "" {
		sched, err := parseFaultSpec(cfg.faultSpec)
		if err != nil {
			return err
		}
		reg = obs.NewRegistry()
		srv = server.New(server.Options{
			BatchLimit:               cfg.batchLimit,
			DisableEncodeOnce:        cfg.noEncodeOnce,
			DisableMemberAttribution: cfg.noMemberAttr,
			Metrics:                  reg,
		})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer lis.Close()
		// Accept by hand rather than via srv.Serve so every server-side
		// connection can be wrapped in the fault injector.
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					srv.HandleConn(wire.NewConn(faultnet.Wrap(conn, sched)))
				}()
			}
		}()
		dial = func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) }
		defer func() {
			srv.Close()
			wg.Wait()
		}()
	} else {
		if cfg.faultSpec != "" {
			return fmt.Errorf("-faultnet requires the in-process server (drop -addr)")
		}
		dial = func() (net.Conn, error) { return net.Dial("tcp", cfg.addr) }
	}

	// Build the topology: per group, member 0 is the origin owning /hub and
	// every other member couples its own /hub to it, so one event fans out
	// to groupSize-1 connections.
	start := time.Now()
	origins := make([]*client.Client, cfg.groups)
	var all []*client.Client
	defer func() {
		for _, c := range all {
			c.Close()
		}
	}()
	for g := 0; g < cfg.groups; g++ {
		for m := 0; m < cfg.groupSize; m++ {
			conn, err := dial()
			if err != nil {
				return fmt.Errorf("dial group %d member %d: %w", g, m, err)
			}
			wreg := widget.NewRegistry()
			widget.MustBuild(wreg, "/", `textfield hub value=""`)
			cl, err := client.New(conn, client.Options{
				AppType: "load", Host: "load",
				User:       fmt.Sprintf("g%dm%d", g, m),
				Registry:   wreg,
				RPCTimeout: 30 * time.Second,
				Batching:   cfg.batching,
			})
			if err != nil {
				return fmt.Errorf("handshake group %d member %d: %w", g, m, err)
			}
			all = append(all, cl)
			if err := cl.Declare("/hub"); err != nil {
				return err
			}
			if m == 0 {
				origins[g] = cl
			} else if err := origins[g].Couple("/hub", cl.Ref("/hub")); err != nil {
				return err
			}
		}
		if cfg.verbose {
			fmt.Printf("cosoft-load: group %d ready (%d members)\n", g, cfg.groupSize)
		}
	}
	// Setup ends when every member's mirror holds its whole group, so the
	// setup numbers cover all group-formation traffic and the steady-state
	// numbers none of it.
	mirrorDeadline := time.Now().Add(2 * time.Minute)
	for _, cl := range all {
		for len(cl.CO("/hub")) != cfg.groupSize-1 {
			if time.Now().After(mirrorDeadline) {
				return fmt.Errorf("setup: %s mirrors %d of %d group members", cl.ID(), len(cl.CO("/hub")), cfg.groupSize-1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	setupTime := time.Since(start)
	var setupBytes uint64
	if srv != nil {
		setupBytes = srv.Stats().BytesEncoded
	}

	// Generate: one driver goroutine per group origin.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	results := make([]groupResult, cfg.groups)
	deadline := time.Now().Add(cfg.duration)
	loadStart := time.Now()
	var drivers sync.WaitGroup
	errc := make(chan error, cfg.groups)
	for g := 0; g < cfg.groups; g++ {
		drivers.Add(1)
		go func(g int) {
			defer drivers.Done()
			payload := attr.String(strings.Repeat("x", cfg.payload))
			var interval time.Duration
			if cfg.rate > 0 {
				interval = time.Duration(float64(time.Second) / cfg.rate)
			}
			next := time.Now()
			res := &results[g]
			for {
				if cfg.events > 0 {
					if res.events >= cfg.events {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				ev := &widget.Event{Path: "/hub", Name: widget.EventChanged, Args: []attr.Value{payload}}
				t0 := time.Now()
				rej, err := experiments.DispatchRetry(origins[g], ev)
				if err != nil {
					errc <- fmt.Errorf("group %d dispatch: %w", g, err)
					return
				}
				res.rtts = append(res.rtts, time.Since(t0))
				res.events++
				res.rejections += rej
			}
		}(g)
	}
	drivers.Wait()
	loadTime := time.Since(loadStart)
	select {
	case err := <-errc:
		return err
	default:
	}

	// Drain: wait for every pending event to resolve so the stats row
	// covers complete round trips, then check the shared-body leak oracle.
	if srv != nil {
		quiet := time.Now().Add(10 * time.Second)
		for time.Now().Before(quiet) {
			if srv.Stats().PendingEvents == 0 && wire.LiveSharedBodies() == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if n := wire.LiveSharedBodies(); n != 0 {
			return fmt.Errorf("leak check: %d shared bodies still referenced at quiescence", n)
		}
	}
	runtime.ReadMemStats(&ms1)

	// Aggregate.
	var total groupResult
	var rtts []time.Duration
	for _, r := range results {
		total.events += r.events
		total.rejections += r.rejections
		rtts = append(rtts, r.rtts...)
	}
	if total.events == 0 {
		return fmt.Errorf("no events were dispatched (duration too short?)")
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	quantile := func(q float64) time.Duration {
		if len(rtts) == 0 {
			return 0
		}
		i := int(q * float64(len(rtts)-1))
		return rtts[i]
	}
	p50, p99 := quantile(0.50), quantile(0.99)
	eps := float64(total.events) / loadTime.Seconds()
	bPerEvent := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(total.events)
	allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(total.events)

	name := fmt.Sprintf("cosoft-load/g%dx%d", cfg.groups, cfg.groupSize)
	fmt.Printf("%s: %d events in %.2fs (%.0f events/sec, %d floor rejections)\n",
		name, total.events, loadTime.Seconds(), eps, total.rejections)
	fmt.Printf("%s: dispatch RTT p50=%s p99=%s max=%s\n", name, p50, p99, quantile(1))
	extra := map[string]float64{
		"groups":         float64(cfg.groups),
		"group_size":     float64(cfg.groupSize),
		"events":         float64(total.events),
		"events_per_sec": eps,
		"p50_rtt_ns":     float64(p50.Nanoseconds()),
		"p99_rtt_ns":     float64(p99.Nanoseconds()),
		"setup_s":        setupTime.Seconds(),
		"num_cpu":        float64(runtime.NumCPU()),
	}
	var stats server.Stats
	if srv == nil {
		fmt.Printf("%s: setup_s=%.2f\n", name, setupTime.Seconds())
	} else {
		stats = srv.Stats()
		steadyBytes := float64(stats.BytesEncoded - setupBytes)
		fmt.Printf("%s: setup_s=%.2f setup_bytes_encoded=%d\n", name, setupTime.Seconds(), setupBytes)
		fmt.Printf("%s: B/event=%.0f allocs/event=%.1f bytes-encoded/event=%.0f pool hit/miss=%d/%d\n",
			name, bPerEvent, allocsPerEvent, steadyBytes/float64(total.events),
			stats.BodyPoolHits, stats.BodyPoolMisses)
		extra["setup_bytes_encoded"] = float64(setupBytes)
		extra["b_per_event"] = bPerEvent
		extra["allocs_per_event"] = allocsPerEvent
		extra["bytes_encoded"] = float64(stats.BytesEncoded)
		extra["bytes_enc_per_event"] = steadyBytes / float64(total.events)
		extra["body_pool_hits"] = float64(stats.BodyPoolHits)
		extra["body_pool_misses"] = float64(stats.BodyPoolMisses)
	}
	if cfg.benchOut == "" {
		return nil
	}
	row := struct {
		Bench    string             `json:"bench"`
		N        int                `json:"n"`
		EventRTT obs.Summary        `json:"event_rtt_ns"`
		Snapshot obs.Snapshot       `json:"snapshot"`
		Extra    map[string]float64 `json:"extra"`
	}{Bench: name, N: total.events, EventRTT: stats.EventRTT, Extra: extra}
	if reg != nil {
		row.Snapshot = reg.Snapshot()
		// One entry per member: at 1024 members that is most of a
		// megabyte of per-connection detail in a trajectory row.
		row.Snapshot.Families = nil
	}
	return benchio.AppendRow(cfg.benchOut, row, "")
}

// parseFaultSpec parses the -faultnet profile: comma-separated key=value
// pairs matching faultnet.Schedule fields (drop, dup, dropnth, delay,
// jitter, seed). Empty means no injected faults.
func parseFaultSpec(s string) (faultnet.Schedule, error) {
	var sched faultnet.Schedule
	if s == "" {
		return sched, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return sched, fmt.Errorf("faultnet: want key=value, got %q", kv)
		}
		var err error
		switch k {
		case "drop":
			sched.DropProb, err = strconv.ParseFloat(v, 64)
		case "dup":
			sched.DupProb, err = strconv.ParseFloat(v, 64)
		case "dropnth":
			sched.DropEveryNth, err = strconv.Atoi(v)
		case "delay":
			sched.Delay, err = time.ParseDuration(v)
		case "jitter":
			sched.Jitter, err = time.ParseDuration(v)
		case "seed":
			sched.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return sched, fmt.Errorf("faultnet: unknown key %q (want drop, dup, dropnth, delay, jitter or seed)", k)
		}
		if err != nil {
			return sched, fmt.Errorf("faultnet: bad %s: %w", k, err)
		}
	}
	return sched, nil
}
