#!/bin/sh
# ci.sh — the repository's full gate. Mirrors what a CI runner executes:
# static checks, a clean build, the full test suite, and the full test
# suite again under the race detector.
set -eu

cd "$(dirname "$0")"

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (whole module)"
go test -race ./...

echo "== perfbench (nested module: the root ./... never builds it, yet it calls the cloud client API)"
(cd perfbench && go vet ./... && go test ./...)

echo "== fleet bench smoke (sharded cloud, multi-round delta OTA, then schema validation incl. health/SLO and delta accounting)"
go run ./cmd/fleetbench -devices 2,4 -sessions 2 -secs 5 -profile-sessions 2 \
	-shards 2 -refreshes 2 -delta-cap 4 \
	-out /tmp/snip_bench_fleet_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_fleet_smoke.json
rm -f /tmp/snip_bench_fleet_smoke.json

echo "== shard sweep smoke (figures must be byte-identical at every shard count)"
go run ./cmd/fleetbench -shard-sweep 1,2,4 -shard-games 3 -shard-sessions 2 -secs 5 \
	-out /tmp/snip_bench_shards_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_shards_smoke.json
rm -f /tmp/snip_bench_shards_smoke.json

echo "== fuzz smoke (ingest decoders must reject arbitrary bytes, never panic)"
go test -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecodeTelemetry$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzLoadFlatTable$' -fuzztime 5s ./internal/memo
go test -run '^$' -fuzz '^FuzzDecodeDelta$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzApplyDelta$' -fuzztime 5s ./internal/memo

echo "== chaos gate (all faults + mispredict guard under the race detector, zero panics)"
go run -race ./cmd/fleetbench -chaos all -chaos-seed 7 -shadow-rate 0.25 \
	-devices 4 -sessions 2 -secs 5 -profile-sessions 2 \
	-out /tmp/snip_bench_chaos_gate.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_chaos_gate.json
rm -f /tmp/snip_bench_chaos_gate.json

echo "== overload smoke (5000 devices on the shared scheduler, tiny quota + queue: conservation on both ledgers, guard never shed)"
go run ./cmd/fleetbench -devices 5000 -sessions 1 -secs 2 -profile-sessions 2 \
	-ota=false -overload -shard-queue-cap 2 -quota-rate 2 -quota-burst 2 \
	-out /tmp/snip_bench_overload_smoke.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_overload_smoke.json
rm -f /tmp/snip_bench_overload_smoke.json

echo "== allocation gate (memo lookup + metrics + span + telemetry-window + energy-ledger + post-delta-swap lookup + admission token-bucket + scheduler-claim hot paths must stay 0 allocs/op)"
# DeltaAppliedLookupHit serves from a table rebuilt via ApplyDelta: the
# patch step may allocate, the table it publishes must look up alloc-free.
alloc_out=$(go test -run '^$' -bench 'SnipTableLookupHit|SnipTableLookupMiss|FlatLookupHit|FlatLookupMiss|FlatLookupSweep|SharedLookupParallel|SharedLookupSpan|DeltaAppliedLookupHit|CounterInc|GaugeSet|HistogramObserve|HistogramObserveExemplar|SpanStartFinish|TracerRecord|WindowAdd|WindowObserveNil|LedgerEventCharge|LedgerAttribute|TokenBucketTake|SchedulerClaim' \
	-benchmem -benchtime 1000x ./internal/memo ./internal/obs ./internal/energy ./internal/cloud ./internal/fleet)
echo "$alloc_out"
bad=$(echo "$alloc_out" | awk '/allocs\/op/ && $(NF-1) + 0 > 0')
if [ -n "$bad" ]; then
	echo "allocation regression on the hot path:" >&2
	echo "$bad" >&2
	exit 1
fi

echo "== lookup regression gate (flat backend must stay within 10% of map, both measured now)"
# Gated at sizes past cache capacity, where the flat layout's advantage
# is structural; at 1k rows both backends are cache-resident and the
# winner flips with machine noise, so a threshold there only flaps.
go run ./cmd/fleetbench -lookup-sweep 32k,256k -sweep-ops 100000 -sweep-gate 1.10 \
	-out /tmp/snip_bench_lookup_gate.json
go run ./cmd/fleetbench -validate /tmp/snip_bench_lookup_gate.json
rm -f /tmp/snip_bench_lookup_gate.json

echo "ci: all green"
