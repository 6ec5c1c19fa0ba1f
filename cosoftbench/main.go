// Command cosoftbench is the cosoft coupling server's benchmark. It runs one
// closed-loop workload from a single process against an in-process server
// (built with cosoftd's default Options) over loopback TCP, checks the
// outputs, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics of a traced run and the tracing overhead — as the last
// line of standard output.
//
//	cosoftbench -workload fanout|groups|churn|durable -seed N -seconds S -trace 0|1 [-dir D]
//
// Workloads, metrics and the layer table are described in README.md. The
// run exits non-zero if any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// units of every reported metric.
var e2eUnits = map[string]string{
	"setup_s": "s", "setup_bytes": "bytes", "cpu_us_per_op": "us", "heap_mb": "MB",
	"ops_per_s": "1/s", "accept_p50_us": "us", "accept_p95_us": "us",
	"sync_p50_us": "us", "sync_p95_us": "us",
}

func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "trace.overhead."), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_ratio_max"):
		return "ratio"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fanout, groups, churn or durable")
	seed := flag.Int64("seed", 1, "seed for couple trees, churn choices and payloads")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for event logs and span dumps")
	flag.Parse()

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, dir: *dir, sh: fullShape()}
	res, err := run(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosoftbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosoftbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and assembles the result line. It prints the
// run's environment first, and every failed output check on standard error;
// a failed check makes the result incorrect.
func run(cfg config, traced bool) (*result, error) {
	switch cfg.workload {
	case "fanout", "groups", "churn", "durable":
	default:
		return nil, fmt.Errorf("unknown workload %q (want fanout, groups, churn or durable)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	base, err := measure(cfg, false)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	samples, checks := base.samples, base.checks
	switch {
	case base.e2e == nil:
		// A check failed before anything was measured.
	case !traced:
		for name, v := range base.e2e {
			res.Metrics[name] = metric{v, e2eUnits[name]}
		}
	default:
		tr, err := measure(cfg, true)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.Attempted, res.Failed, samples = tr.attempted, tr.failed, tr.samples
		checks = append(checks, tr.checks...)
		if tr.layer == nil {
			break
		}
		tr.layer["trace.overhead.ops_per_s"] = 1 - ratio(tr.e2e["ops_per_s"], base.e2e["ops_per_s"])
		tr.layer["trace.overhead.accept_p50"] = ratio(tr.e2e["accept_p50_us"], base.e2e["accept_p50_us"]) - 1
		tr.layer["trace.overhead.sync_p50"] = ratio(tr.e2e["sync_p50_us"], base.e2e["sync_p50_us"]) - 1
		for name, v := range tr.layer {
			res.Metrics[name] = metric{v, layerUnit(name)}
		}
	}
	envLine, err := json.Marshal(map[string]any{"env": environment(cfg, traced, samples)})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(envLine))
	for _, c := range checks {
		fmt.Fprintf(os.Stderr, "cosoftbench: %s: output check failed: %v\n", cfg.workload, c)
	}
	res.Correct = len(checks) == 0
	return res, nil
}

// environment records what the numbers were measured on and with.
func environment(cfg config, traced bool, samples map[string]int) map[string]any {
	srv := serverOptions(nil, nil)
	serverOpts := fmt.Sprintf("Shards=%d BatchLimit=%d Metrics=on Tracer=off Flight=off Heartbeat=%v EventDeadline=%v",
		srv.Shards, srv.BatchLimit, srv.Heartbeat, srv.EventDeadline)
	if cfg.workload == "durable" {
		serverOpts += " EventLog=on(Sync=always) ReplayTail=on SnapshotInterval=0 SnapshotBytes=0"
	}
	clientOpts := "zero value + AppType, User, Registry, OnRemoteEvent"
	if traced {
		clientOpts += ", Metrics (traced run)"
	}
	return map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          traced,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"server_options": serverOpts,
		"client_options": clientOpts,
		"transport":      "loopback TCP (127.0.0.1), one connection per client",
		"samples":        samples,
	}
}
