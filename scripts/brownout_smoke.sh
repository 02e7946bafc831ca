#!/bin/sh
# brownout_smoke.sh — the adaptive overload governor end to end. Builds
# the binaries, freezes snapshots, boots two deliberately tiny replicas
# (-workers 1, queue 2) with the degradation governor on behind
# adwars-gateway, records an unloaded control probe, then overdrives the
# fleet with adwars-loadgen at concurrency far beyond capacity.
#
# The gate:
#
#   1. Ladder: every replica's /admin/degrade must show the level climbed
#      to at least L2 (hot-tier-only matching) under load and stepped all
#      the way back to L0 after it — with exactly one climb and one
#      descent (transitions == 2 x peak, step-ups == step-downs), proving
#      the hysteresis damping held and the ladder did not flap.
#   2. Ledger: the loadgen check must balance — every request exactly one
#      2xx or 429 (degrade sheds included), zero unexplained 5xx.
#   3. Brownout was real: the hot-only fraction (share of answers served
#      at L2+) must be > 0.
#   4. Recovery is complete: a post-recovery probe through the gateway
#      must be byte-identical to the unloaded control probe.
#
# BROWNOUT_SHORT=1 shortens the firing window (used by `make verify`).
set -eu

GO="${GO:-go}"
DIR="$(mktemp -d /tmp/adwars-brownout-smoke.XXXXXX)"
DURATION="3s"
[ "${BROWNOUT_SHORT:-0}" = "1" ] && DURATION="1500ms"

wait_pid_bounded() {
    _pid="$1"; _budget=$(( $2 * 10 )); _i=0
    while kill -0 "$_pid" 2>/dev/null; do
        _i=$((_i + 1))
        [ "$_i" -gt "$_budget" ] && return 1
        sleep 0.1
    done
    return 0
}

cleanup() {
    for f in "$DIR"/*.pid; do
        [ -f "$f" ] || continue
        _pid="$(cat "$f")"
        if kill -0 "$_pid" 2>/dev/null; then
            kill "$_pid" 2>/dev/null || true
            wait_pid_bounded "$_pid" 5 || kill -9 "$_pid" 2>/dev/null || true
        fi
    done
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

fail() {
    echo "brownout-smoke: FAIL: $1" >&2
    for log in "$DIR"/*.log; do
        [ -f "$log" ] && { echo "--- $log" >&2; tail -20 "$log" >&2; }
    done
    exit 1
}

# start_replica NAME — boots one governed, capacity-starved adwars-serve
# replica on an ephemeral port, records NAME.pid and NAME.addr.
#
# The starvation recipe: 1 worker whose every request is stretched to
# 20ms by the chaos latency injector (which sleeps while holding the
# worker slot), so the replica serves ~50 req/s — far below what the
# loadgen offers — and the admission queue (depth 8, 50ms wait budget)
# stays pegged. That keeps the governor's instantaneous queue-depth
# sample above the high-water mark at every 50ms tick, so the ladder
# climbs and holds without flapping. The p99 threshold is raised to
# 500ms because the injected 20ms would otherwise read as pressure even
# on the sequential post-recovery probe.
start_replica() {
    _name="$1"
    rm -f "$DIR/$_name.port"
    "$DIR/adwars-serve" -addr 127.0.0.1:0 \
        -model "$DIR/model.json" -lists "$DIR/lists.json" \
        -replica "$_name" -drain-announce 200ms \
        -workers 1 -queue 8 -queue-timeout 50ms \
        -chaos-seed 42 -chaos-latency-rate 1 -chaos-latency 20ms \
        -degrade -degrade-interval 50ms -degrade-p99 500ms \
        -degrade-up-ticks 2 -degrade-down-ticks 5 \
        -portfile "$DIR/$_name.port" 2>>"$DIR/$_name.log" &
    echo $! > "$DIR/$_name.pid"
    _i=0
    while [ ! -s "$DIR/$_name.port" ]; do
        _i=$((_i + 1))
        [ "$_i" -gt 100 ] && fail "replica $_name never wrote its portfile within 10s"
        kill -0 "$(cat "$DIR/$_name.pid")" 2>/dev/null || fail "replica $_name died on startup"
        sleep 0.1
    done
    cp "$DIR/$_name.port" "$DIR/$_name.addr"
}

stop_pid() {
    _pid="$(cat "$1")"
    kill -TERM "$_pid" 2>/dev/null || return 0
    wait_pid_bounded "$_pid" 15 || fail "$1 still alive 15s after SIGTERM"
    rm -f "$1"
}

echo "brownout-smoke: building binaries..."
$GO build -o "$DIR" ./cmd/adwars-serve ./cmd/adwars-gateway \
    ./cmd/adwars-loadgen ./cmd/adwars-lists ./cmd/adwars-detect

echo "brownout-smoke: freezing snapshots (scale 50)..."
"$DIR/adwars-lists" -scale 50 -save-snapshot "$DIR/lists.json" >/dev/null 2>&1
"$DIR/adwars-detect" -scale 50 -model-only -save-model "$DIR/model.json" >/dev/null 2>&1

start_replica r1
start_replica r2
R1="$(cat "$DIR/r1.addr")"; R2="$(cat "$DIR/r2.addr")"

rm -f "$DIR/gw.port"
"$DIR/adwars-gateway" -addr 127.0.0.1:0 -backends "$R1,$R2" \
    -health-interval 100ms -retry-budget 5 -retry-refill 0.1 \
    -portfile "$DIR/gw.port" 2>"$DIR/gateway.log" &
echo $! > "$DIR/gateway.pid"
i=0
while [ ! -s "$DIR/gw.port" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "gateway never wrote its portfile within 10s"
    sleep 0.1
done
GW="http://$(cat "$DIR/gw.port")"
echo "brownout-smoke: gateway on $GW fronting r1=$R1 r2=$R2 (1 worker @ 20ms/req, queue 8 each)"

# --- Control: canonical answers from the unloaded fleet at L0. -----------
"$DIR/adwars-loadgen" -target "$GW" -probe > "$DIR/control.txt" \
    || fail "unloaded control probe got no answers"

# --- Overdrive: concurrency far beyond the 2-worker fleet's capacity. ----
# -check proves the ledger (zero unexplained 5xx even while shedding at
# L3/L4); -degrade-check waits for both replicas to recover to L0 and
# asserts the climb reached >= L2 with no flapping; -bench-brownout emits
# the hot-only fraction / budget exhaustions / transition p99 line.
echo "brownout-smoke: overdriving for $DURATION at concurrency 32..."
if ! "$DIR/adwars-loadgen" -target "$GW" -duration "$DURATION" \
    -concurrency 32 -lists "$DIR/lists.json" -classify-frac 0.3 \
    -check -bench-brownout -degrade-check \
    -degrade-url "http://$R1,http://$R2" > "$DIR/loadgen.txt"; then
    cat "$DIR/loadgen.txt"
    fail "loadgen ledger or degrade recovery check failed"
fi
cat "$DIR/loadgen.txt"

# The brownout must have been real: some answers served hot-tier-only.
HOT_FRAC="$(awk '/^BenchmarkBrownoutLoadgen/ { for (i=1;i<NF;i++) if ($(i+1)=="hot-only-fraction") print $i }' "$DIR/loadgen.txt")"
[ -n "$HOT_FRAC" ] || fail "loadgen emitted no brownout benchmark line"
case "$HOT_FRAC" in
    0|0.0000) fail "hot-only fraction is $HOT_FRAC; no answers were served at L2+" ;;
esac

# --- Recovery: the fleet at L0 again must answer exactly like control. ---
"$DIR/adwars-loadgen" -target "$GW" -probe > "$DIR/post.txt" \
    || fail "post-recovery probe got no answers"
diff "$DIR/control.txt" "$DIR/post.txt" \
    || fail "post-recovery answers differ from unloaded control"

stop_pid "$DIR/gateway.pid"
stop_pid "$DIR/r1.pid"
stop_pid "$DIR/r2.pid"

echo "brownout-smoke: OK (ladder climbed >= L2 and recovered to L0 without flapping, ledger balanced, hot-only fraction $HOT_FRAC, answers identical to control, clean drain)"
