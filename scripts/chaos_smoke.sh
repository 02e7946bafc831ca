#!/bin/sh
# chaos_smoke.sh — the serving stack under deliberate fire. Builds the
# binaries, freezes snapshots, records a fault-free control answer, then
# restarts the server with every chaos fault class enabled (injected
# latency, early connection closes, truncated reads, handler panics) and
# drives it with adwars-loadgen -chaos (malformed, oversized, slow-trickle
# and mid-body-abort requests mixed into normal traffic). Mid-fire, the
# lists snapshot on disk is corrupted and SIGHUPed (the reload must be
# rejected and the old snapshot keep serving), then restored and SIGHUPed
# again (the reload must succeed).
#
# The gate: the loadgen ledger must balance (sent == 2xx + 4xx + 429 +
# panic-5xx + aborts, zero unexplained 5xx, zero drops), both reload
# outcomes must appear in the server log, the post-chaos probe answers
# must be byte-identical to the fault-free control, and the server must
# still drain cleanly.
#
# CHAOS_SHORT=1 shortens the firing window (used by `make verify`).
set -eu

GO="${GO:-go}"
DIR="$(mktemp -d /tmp/adwars-chaos-smoke.XXXXXX)"
DURATION="3s"
[ "${CHAOS_SHORT:-0}" = "1" ] && DURATION="1500ms"
SERVER_PID=""

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
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
        if ! wait_pid_bounded "$SERVER_PID" 5; then
            echo "chaos-smoke: teardown: server ignored SIGTERM, killing hard" >&2
            kill -9 "$SERVER_PID" 2>/dev/null || true
        fi
    fi
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

fail() {
    echo "chaos-smoke: FAIL: $1" >&2
    [ -f "$DIR/serve.log" ] && cat "$DIR/serve.log" >&2
    exit 1
}

# start_server LOGFILE [extra flags...] — boots adwars-serve on an
# ephemeral port and sets SERVER_PID/ADDR, failing loudly on timeout.
start_server() {
    _log="$1"; shift
    rm -f "$DIR/port.txt"
    "$DIR/adwars-serve" -addr 127.0.0.1:0 \
        -model "$DIR/model.json" -lists "$DIR/lists.json" \
        -portfile "$DIR/port.txt" "$@" 2>"$_log" &
    SERVER_PID=$!
    i=0
    while [ ! -s "$DIR/port.txt" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "server never wrote its portfile within 10s"
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on startup ($_log)"
        sleep 0.1
    done
    ADDR="$(cat "$DIR/port.txt")"
}

stop_server() {
    kill -TERM "$SERVER_PID"
    wait_pid_bounded "$SERVER_PID" 15 || fail "server still alive 15s after SIGTERM"
    wait "$SERVER_PID" || fail "server did not drain cleanly"
    SERVER_PID=""
}

echo "chaos-smoke: building binaries..."
$GO build -o "$DIR" ./cmd/adwars-serve ./cmd/adwars-loadgen ./cmd/adwars-lists ./cmd/adwars-detect

echo "chaos-smoke: freezing snapshots (scale 50)..."
"$DIR/adwars-lists" -scale 50 -save-snapshot "$DIR/lists.json" >/dev/null 2>&1
"$DIR/adwars-detect" -scale 50 -model-only -save-model "$DIR/model.json" >/dev/null 2>&1
cp "$DIR/lists.json" "$DIR/lists.good.json"

# --- Control: canonical answers from a fault-free server. ---------------
start_server "$DIR/control.log"
echo "chaos-smoke: control server on $ADDR"
"$DIR/adwars-loadgen" -target "http://$ADDR" -probe > "$DIR/control.txt" \
    || fail "control probe got no answers"
stop_server

# --- Chaos: every fault class on, hostile load, corrupt reload mid-fire. -
# Deliberately tiny admission capacity so the hostile load also exercises
# shedding (429 + Retry-After backoff), not just the injected faults.
start_server "$DIR/serve.log" \
    -workers 1 -queue 2 -queue-timeout 2ms \
    -chaos-seed 1337 \
    -chaos-latency-rate 0.1 -chaos-latency 10ms \
    -chaos-close-rate 0.05 \
    -chaos-truncate-rate 0.05 \
    -chaos-panic-rate 0.05
echo "chaos-smoke: chaos server on $ADDR (all fault classes live, $DURATION of hostile load)"

# Mid-fire: corrupt the lists snapshot and SIGHUP (must be rejected), then
# restore and SIGHUP again (must succeed). Runs alongside the loadgen.
(
    sleep 0.5
    head -c "$(( $(wc -c < "$DIR/lists.good.json") / 2 ))" "$DIR/lists.good.json" > "$DIR/lists.json"
    kill -HUP "$SERVER_PID" 2>/dev/null
    sleep 0.4
    cp "$DIR/lists.good.json" "$DIR/lists.json"
    kill -HUP "$SERVER_PID" 2>/dev/null
) &
RELOADER_PID=$!

# No pipeline here: under plain POSIX sh a `| tee` would mask the
# loadgen's exit status, and the ledger check is the point of the run.
if ! "$DIR/adwars-loadgen" -target "http://$ADDR" -duration "$DURATION" \
    -concurrency 8 -lists "$DIR/lists.good.json" -classify-frac 0.3 \
    -chaos -fault-frac 0.25 -check -bench > "$DIR/loadgen.txt"; then
    cat "$DIR/loadgen.txt"
    fail "chaos loadgen ledger check failed"
fi
cat "$DIR/loadgen.txt"
wait "$RELOADER_PID" 2>/dev/null || true

grep -q "SIGHUP reload failed" "$DIR/serve.log" \
    || fail "corrupted snapshot reload was not rejected"
grep -q "SIGHUP reload ok" "$DIR/serve.log" \
    || fail "restored snapshot reload did not succeed"

# The survivor must still answer correctly: probe (retrying through any
# residual injected faults) and compare byte-for-byte with the control.
"$DIR/adwars-loadgen" -target "http://$ADDR" -probe > "$DIR/chaos.txt" \
    || fail "post-chaos probe got no answers"
diff "$DIR/control.txt" "$DIR/chaos.txt" \
    || fail "post-chaos answers differ from fault-free control"

stop_server

echo "chaos-smoke: OK (ledger balanced, corrupt reload rejected, answers identical to control, clean drain)"
