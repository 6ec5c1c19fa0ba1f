# Development targets. `make verify` is the PR gate: vet plus race-checked
# tests over the packages whose correctness rests on the server's
# serialized-loop invariants.

GO ?= go

.PHONY: all build test race vet verify bench chaos chaos-restart chaos-compact load-smoke lint-metrics

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the coupling core: the server state loop, the lock table, and
# the client runtime are the packages with real goroutine interleavings.
race:
	$(GO) test -race ./internal/server/... ./internal/lock/... ./internal/client/...

# Cross-checks the metric names registered in code against the README's
# metric table, so the documented observability surface cannot drift.
lint-metrics:
	$(GO) run ./internal/tools/metriclint

verify: vet lint-metrics race

# Soak the fault-injection tests: hung, partitioned, evicted, resumed and
# duplicated connections, repeated under the race detector — once over the
# plain protocol and once with wire batching forced on every harness server
# and client (COSOFT_BATCH_LIMIT), so every failure scenario also runs
# against the packed fan-out path.
chaos:
	$(GO) test -race -run Chaos -count=3 ./...
	COSOFT_BATCH_LIMIT=8 $(GO) test -race -run Chaos -count=3 ./...

# Kill-and-restart soak for the durable event log: a server with an always-sync
# log is restarted repeatedly under live traffic while the clients ride through
# on session resume; afterwards the log must hold every acknowledged event.
# Runs race-checked, plain and with batching forced.
chaos-restart:
	$(GO) test -race -run ChaosRestart -count=3 ./internal/server/
	COSOFT_BATCH_LIMIT=8 $(GO) test -race -run ChaosRestart -count=3 ./internal/server/

# Kill-and-restart soak with snapshots + compaction live underneath the
# traffic: a tight snapshot cadence and tiny segments force continuous
# snapshot writes and segment deletes while the server is killed repeatedly;
# afterwards the directory must fsck clean, every client must still work
# under its original identity, and the segment bytes left on disk must be
# bounded below everything appended. Runs race-checked, plain and with
# batching forced.
chaos-compact:
	$(GO) test -race -run ChaosCompact -count=3 ./internal/server/
	COSOFT_BATCH_LIMIT=8 $(GO) test -race -run ChaosCompact -count=3 ./internal/server/

# Regenerates BENCH_obs.json (the metrics trajectory) along with the paper
# benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Exercises the cosoft-load generator end to end against an in-process
# server — 64 clients in 2 groups for ~5 seconds — so the load harness
# itself cannot rot, then forms one 512-member group for a single event, so
# the group-formation (join) path runs at scale. Reports only; no
# trajectory row is written.
load-smoke:
	$(GO) run ./cmd/cosoft-load -groups 2 -group-size 32 -duration 5s
	$(GO) run ./cmd/cosoft-load -groups 1 -group-size 512 -events 1
