#!/bin/sh
# Full pre-merge gate: build, vet, and the test suite under the race
# detector. The race run matters because the experiment registry fans
# replicate timelines across goroutines (internal/exp.Sweep and the root
# package's workers=8 determinism tests exercise it).
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test -race ./...

# Allocation-regression gate. The alloc-budget tests carry //go:build !race
# (the race runtime's instrumented allocation counts are meaningless), so the
# race pass above skips them; run them in a plain pass here.
go test -run 'AllocFree|AllocBudget' ./internal/sim ./internal/netem ./internal/ipv6 \
    ./internal/ndp ./internal/mipv6 ./internal/pimdm

# Fuzz smoke: plain `go test` only replays the committed seed corpora under
# each package's testdata/fuzz/, so fuzz every codec target for a fixed
# short time as well. `go test -fuzz` takes one target per invocation.
go test -run '^$' -fuzz '^FuzzParseUDP$' -fuzztime 10s ./internal/ipv6
go test -run '^$' -fuzz '^FuzzICMPv6Parse$' -fuzztime 10s ./internal/icmpv6

# Chaos determinism smoke: the full fault-injection matrix at a fixed seed
# must produce byte-identical per-timeline JSONL traces AND a byte-identical
# sampled telemetry series (-telemetry-out writes the master-seed cell's
# series into the same directory, so the recursive diff covers both)
# whether the sweep runs serially or across 8 workers — under the race
# detector, since the worker fan-out is exactly what could perturb it. Any
# diff means a nondeterministic impairment draw or a cross-timeline data
# race.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run -race ./cmd/mip6sim -experiment chaos -replicates 1 -seed 7 \
    -workers 1 -trace-out "$tmp/w1" -telemetry-out "$tmp/w1" > "$tmp/w1.out"
go run -race ./cmd/mip6sim -experiment chaos -replicates 1 -seed 7 \
    -workers 8 -trace-out "$tmp/w8" -telemetry-out "$tmp/w8" > "$tmp/w8.out"
test -s "$tmp/w1/chaos.telemetry.csv" # sampling actually ran
diff -r "$tmp/w1" "$tmp/w8"
diff "$tmp/w1.out" "$tmp/w8.out"
# Every matrix cell must report zero invariant violations (column 2 of the
# rendered table).
if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$tmp/w1.out"; then
    echo "chaos smoke: workers=1 and workers=8 traces byte-identical, 0 violations"
else
    echo "chaos smoke: invariant violations reported:" >&2
    cat "$tmp/w1.out" >&2
    exit 1
fi

# Chaos under the hard-state engine: the same determinism and
# zero-violation contract must hold with engine=hpimdm (engine-tagged trace
# files, so this never collides with the default smoke above).
go run -race ./cmd/mip6sim -experiment chaos -topo engine=hpimdm -replicates 1 -seed 7 \
    -workers 1 -trace-out "$tmp/h1" -telemetry-out "$tmp/h1" > "$tmp/h1.out"
go run -race ./cmd/mip6sim -experiment chaos -topo engine=hpimdm -replicates 1 -seed 7 \
    -workers 8 -trace-out "$tmp/h8" -telemetry-out "$tmp/h8" > "$tmp/h8.out"
test -s "$tmp/h1/chaos.telemetry.csv"
diff -r "$tmp/h1" "$tmp/h8"
diff "$tmp/h1.out" "$tmp/h8.out"
if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$tmp/h1.out"; then
    echo "chaos smoke (hpimdm): workers=1 and workers=8 traces byte-identical, 0 violations"
else
    echo "chaos smoke (hpimdm): invariant violations reported:" >&2
    cat "$tmp/h1.out" >&2
    exit 1
fi

# Chaos under the hierarchical MLD-proxy approach (#5): edge routers A
# and E run the mldproxy engine instead of PIM, and the same determinism
# and zero-violation contract must hold. Trace files carry the
# "proxy-hierarchy-" approach tag, so they never collide with the
# local-membership smokes above.
go run -race ./cmd/mip6sim -experiment chaos -topo approach=proxy -replicates 1 -seed 7 \
    -workers 1 -trace-out "$tmp/p1" -telemetry-out "$tmp/p1" > "$tmp/p1.out"
go run -race ./cmd/mip6sim -experiment chaos -topo approach=proxy -replicates 1 -seed 7 \
    -workers 8 -trace-out "$tmp/p8" -telemetry-out "$tmp/p8" > "$tmp/p8.out"
test -s "$tmp/p1/chaos.telemetry.csv"
test -s "$tmp/p1/chaos-proxy-hierarchy-baseline-seed7.jsonl" # approach tag present
diff -r "$tmp/p1" "$tmp/p8"
diff "$tmp/p1.out" "$tmp/p8.out"
if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$tmp/p1.out"; then
    echo "chaos smoke (mldproxy): workers=1 and workers=8 traces byte-identical, 0 violations"
else
    echo "chaos smoke (mldproxy): invariant violations reported:" >&2
    cat "$tmp/p1.out" >&2
    exit 1
fi

# Scale under the proxy approach: the proxy-aware invariant checker
# (check.Converged walking mldproxy trees) must report zero violations on
# every family — including grids, where the depth-2 peel finds no pendant
# routers and the approach degenerates honestly to local membership.
go run -race ./cmd/mip6sim -experiment scale \
    -topo family=fig1+tree+grid,routers=4,mns=8,approach=proxy \
    -replicates 1 -seed 7 -workers 1 -trace-out "$tmp/sp1" \
    -telemetry-out "$tmp/sp1" > "$tmp/sp1.out"
go run -race ./cmd/mip6sim -experiment scale \
    -topo family=fig1+tree+grid,routers=4,mns=8,approach=proxy \
    -replicates 1 -seed 7 -workers 8 -trace-out "$tmp/sp8" \
    -telemetry-out "$tmp/sp8" > "$tmp/sp8.out"
test -s "$tmp/sp1/scale.telemetry.csv"
diff -r "$tmp/sp1" "$tmp/sp8"
diff "$tmp/sp1.out" "$tmp/sp8.out"
if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$tmp/sp1.out"; then
    echo "scale smoke (mldproxy): workers=1 and workers=8 traces byte-identical, 0 violations"
else
    echo "scale smoke (mldproxy): invariant violations reported:" >&2
    cat "$tmp/sp1.out" >&2
    exit 1
fi

# Scale determinism smoke: the fig1, tree and grid cells of the
# procedural-topology sweep under BOTH engines, same contract as the chaos
# smoke — fixed seed, byte-identical per-timeline JSONL traces and
# telemetry series at workers 1 vs 8 under the race detector, and a zero
# violations column (field 2 of each table row).
for eng in pimdm hpimdm; do
    go run -race ./cmd/mip6sim -experiment scale \
        -topo family=fig1+tree+grid,routers=4,mns=8,engine=$eng \
        -replicates 1 -seed 7 -workers 1 -trace-out "$tmp/s1-$eng" \
        -telemetry-out "$tmp/s1-$eng" > "$tmp/s1-$eng.out"
    go run -race ./cmd/mip6sim -experiment scale \
        -topo family=fig1+tree+grid,routers=4,mns=8,engine=$eng \
        -replicates 1 -seed 7 -workers 8 -trace-out "$tmp/s8-$eng" \
        -telemetry-out "$tmp/s8-$eng" > "$tmp/s8-$eng.out"
    test -s "$tmp/s1-$eng/scale.telemetry.csv"
    diff -r "$tmp/s1-$eng" "$tmp/s8-$eng"
    diff "$tmp/s1-$eng.out" "$tmp/s8-$eng.out"
    if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$tmp/s1-$eng.out"; then
        echo "scale smoke ($eng): workers=1 and workers=8 traces byte-identical, 0 violations"
    else
        echo "scale smoke ($eng): invariant violations reported:" >&2
        cat "$tmp/s1-$eng.out" >&2
        exit 1
    fi
done

# Sharded-kernel determinism smoke: a 4-region ba-r40 cell must emit
# byte-identical traces and telemetry whether its regions run on one
# goroutine or eight — under the race detector, where a cross-region data
# race or a merge-order bug is also a crash — and report zero violations.
# (The in-suite TestShardTraceWorkerInvariance covers both engines at
# shards=2,4; this exercises the same contract end-to-end through the
# CLI flags.)
go run -race ./cmd/mip6sim -experiment scale -topo family=ba,routers=40,mns=80 \
    -shards 4 -core-delay 2ms -replicates 1 -seed 7 -shard-workers 1 \
    -trace-out "$tmp/k1" -telemetry-out "$tmp/k1" > "$tmp/k1.out"
go run -race ./cmd/mip6sim -experiment scale -topo family=ba,routers=40,mns=80 \
    -shards 4 -core-delay 2ms -replicates 1 -seed 7 -shard-workers 8 \
    -trace-out "$tmp/k8" -telemetry-out "$tmp/k8" > "$tmp/k8.out"
test -s "$tmp/k1/scale.telemetry.csv"
diff -r "$tmp/k1" "$tmp/k8"
diff "$tmp/k1.out" "$tmp/k8.out"
if awk 'NR > 2 && NF > 1 && $2 != "0" { bad = 1 } END { exit bad }' "$tmp/k1.out"; then
    echo "shard smoke: shard-workers=1 and =8 traces byte-identical, 0 violations"
else
    echo "shard smoke: invariant violations reported:" >&2
    cat "$tmp/k1.out" >&2
    exit 1
fi

# Live-surface smoke: run one sweep experiment with -http on an ephemeral
# port, scrape /metrics (must be non-empty and Prometheus-shaped, with the
# per-tag series a completed cell contributes), then SIGTERM and require a
# clean exit — startup, the scrape path, and the graceful shutdown path
# (signal cuts the linger, server drains, exit 0). A sweep experiment is
# required: only sweep cells report Progress, which feeds /metrics.
go build -o "$tmp/mip6sim" ./cmd/mip6sim
"$tmp/mip6sim" -experiment scale -topo family=fig1,routers=4,mns=4 \
    -replicates 1 -http 127.0.0.1:0 -http-linger 60s \
    > "$tmp/http.out" 2> "$tmp/http.err" &
httppid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|^serving http://\([^/]*\)/.*|\1|p' "$tmp/http.err")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "http smoke: server never announced its address" >&2
    cat "$tmp/http.err" >&2
    kill "$httppid" 2>/dev/null || true
    exit 1
fi
# Retry until the scrape shows a completed cell's per-tag series: the
# server is up before the first timeline finishes, so an early scrape is
# valid but sparse.
scraped=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/metrics" > "$tmp/metrics.txt" 2>/dev/null &&
        grep -q '^mip6sim_events_dispatched_total ' "$tmp/metrics.txt" &&
        grep -q '^mip6sim_tag_wall_seconds_total{tag=' "$tmp/metrics.txt"; then
        scraped=1
        break
    fi
    sleep 0.1
done
if [ -z "$scraped" ]; then
    echo "http smoke: /metrics never served the expected series" >&2
    cat "$tmp/metrics.txt" >&2 2>/dev/null || true
    kill "$httppid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$httppid"
if wait "$httppid"; then
    echo "http smoke: /metrics scraped, clean shutdown on SIGTERM"
else
    echo "http smoke: mip6sim exited non-zero after SIGTERM" >&2
    exit 1
fi

# mip6simd smoke: start the sweep daemon, submit the same spec twice (the
# second submission must be served from the cache), warm a chaos checkpoint,
# fork a cell from it, and download the artifact. Then restart the daemon on
# the same cache dir: the spec must still be a cache hit (disk persistence),
# and re-warming the same seed must produce a byte-identical checkpoint
# artifact — the cross-process form of the checkpoint/resume determinism the
# in-suite tests prove in-process.
go build -o "$tmp/mip6simd" ./cmd/mip6simd
spec='{"experiment":"s44","params":{"tquery":[5]},"seed":7,"replicates":1}'
start_daemon() {
    "$tmp/mip6simd" -addr 127.0.0.1:0 -cache-dir "$tmp/simd-cache" \
        2> "$tmp/simd.err" &
    daemonpid=$!
    daddr=""
    for _ in $(seq 1 100); do
        daddr="$(sed -n 's|^mip6simd serving http://\([^/]*\)/.*|\1|p' "$tmp/simd.err")"
        [ -n "$daddr" ] && break
        sleep 0.1
    done
    if [ -z "$daddr" ]; then
        echo "mip6simd smoke: daemon never announced its address" >&2
        cat "$tmp/simd.err" >&2
        kill "$daemonpid" 2>/dev/null || true
        exit 1
    fi
}
stop_daemon() {
    kill -TERM "$daemonpid"
    if ! wait "$daemonpid"; then
        echo "mip6simd smoke: daemon exited non-zero after SIGTERM" >&2
        exit 1
    fi
}
start_daemon
curl -fsS -X POST -d "$spec" "http://$daddr/runs" > "$tmp/simd-run1.json"
runid="$(sed -n 's/.*"id": "\(r[0-9]*\)".*/\1/p' "$tmp/simd-run1.json")"
# Wait for the run to finish, then resubmit: the second submission must be
# served from the cache without running.
for _ in $(seq 1 300); do
    curl -fsS "http://$daddr/runs/$runid" > "$tmp/simd-run1-done.json"
    grep -q '"status": "running"' "$tmp/simd-run1-done.json" || break
    sleep 0.1
done
grep -q '"status": "done"' "$tmp/simd-run1-done.json" || {
    echo "mip6simd smoke: first run never completed:" >&2
    cat "$tmp/simd-run1-done.json" >&2
    exit 1
}
curl -fsS -X POST -d "$spec" "http://$daddr/runs" > "$tmp/simd-run2.json"
grep -q '"cached": true' "$tmp/simd-run2.json" || {
    echo "mip6simd smoke: resubmitted spec was not served from the cache:" >&2
    cat "$tmp/simd-run2.json" >&2
    exit 1
}
curl -fsS -X POST -d '{"seed":9}' "http://$daddr/checkpoints" > "$tmp/simd-cp.json"
cpid="$(sed -n 's/.*"id": "\(cp[0-9]*\)".*/\1/p' "$tmp/simd-cp.json")"
curl -fsS "http://$daddr/checkpoints/$cpid" > "$tmp/simd-cp-a.json"
curl -fsS -X POST -d '{"cells":["baseline"]}' \
    "http://$daddr/checkpoints/$cpid/fork" > "$tmp/simd-fork.json"
if ! grep -q '"outcome"' "$tmp/simd-fork.json" ||
    grep -q '"error"' "$tmp/simd-fork.json" ||
    grep -q '"Violations": \["' "$tmp/simd-fork.json"; then
    echo "mip6simd smoke: forked baseline cell reported violations or failed:" >&2
    cat "$tmp/simd-fork.json" >&2
    exit 1
fi
stop_daemon
start_daemon
curl -fsS -X POST -d "$spec" "http://$daddr/runs" > "$tmp/simd-run3.json"
grep -q '"cached": true' "$tmp/simd-run3.json" || {
    echo "mip6simd smoke: restarted daemon missed the on-disk cache:" >&2
    cat "$tmp/simd-run3.json" >&2
    exit 1
}
curl -fsS -X POST -d '{"seed":9}' "http://$daddr/checkpoints" > "$tmp/simd-cp2.json"
cpid2="$(sed -n 's/.*"id": "\(cp[0-9]*\)".*/\1/p' "$tmp/simd-cp2.json")"
curl -fsS "http://$daddr/checkpoints/$cpid2" > "$tmp/simd-cp-b.json"
diff "$tmp/simd-cp-a.json" "$tmp/simd-cp-b.json" || {
    echo "mip6simd smoke: re-warmed checkpoint artifact differs across processes" >&2
    exit 1
}
stop_daemon
echo "mip6simd smoke: cache hit, disk persistence across restart, fork clean, checkpoint artifact byte-stable"
