#!/bin/sh
# fleet_smoke.sh — the fault-tolerant serving fleet end to end. Builds the
# binaries, freezes snapshots, records a single-node control answer, then
# boots three adwars-serve replicas behind adwars-gateway and proves:
#
#   1. Failover: mid-load, one replica is SIGKILLed and later restarted on
#      the same address. The loadgen ledger must still balance (every
#      request exactly one 2xx or 429, zero 5xx, zero transport errors)
#      and the gateway must report failovers > 0 — the kill was real and
#      absorbed.
#   2. Consistency: answers through the gateway are byte-identical to the
#      single-node control, before and after the kill.
#   3. Control plane: adwars-ctl refuses a bit-flipped artifact locally
#      (exit 2, nothing pushed); a well-sealed-but-garbage artifact is
#      rejected by the canary and rolled back (exit 3, fleet keeps serving
#      last-good, canary's last_reload shows the rejection); a good v2
#      snapshot rolls out to all replicas (exit 0) and every replica
#      converges on the same version with byte-identical answers.
#
# FLEET_SHORT=1 shortens the firing window (used by `make verify`). All
# waits are bounded.
set -eu

GO="${GO:-go}"
DIR="$(mktemp -d /tmp/adwars-fleet-smoke.XXXXXX)"
DURATION="4s"
KILL_AT=1.2
RESTART_AFTER=0.8
if [ "${FLEET_SHORT:-0}" = "1" ]; then
    DURATION="2s"
    KILL_AT=0.6
    RESTART_AFTER=0.5
fi

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
    echo "fleet-smoke: FAIL: $1" >&2
    for log in "$DIR"/*.log; do
        [ -f "$log" ] && { echo "--- $log" >&2; tail -20 "$log" >&2; }
    done
    exit 1
}

# start_replica NAME [extra flags...] — boots one adwars-serve replica on
# an ephemeral port with its own snapshot copies, records NAME.pid and
# NAME.addr.
start_replica() {
    _name="$1"; shift
    mkdir -p "$DIR/$_name"
    [ -f "$DIR/$_name/lists.json" ] || cp "$DIR/lists.json" "$DIR/$_name/lists.json"
    [ -f "$DIR/$_name/model.json" ] || cp "$DIR/model.json" "$DIR/$_name/model.json"
    rm -f "$DIR/$_name/port.txt"
    "$DIR/adwars-serve" -addr "${REPLICA_ADDR:-127.0.0.1:0}" \
        -model "$DIR/$_name/model.json" -lists "$DIR/$_name/lists.json" \
        -replica "$_name" -drain-announce 200ms \
        -portfile "$DIR/$_name/port.txt" "$@" 2>>"$DIR/$_name.log" &
    echo $! > "$DIR/$_name.pid"
    _i=0
    while [ ! -s "$DIR/$_name/port.txt" ]; do
        _i=$((_i + 1))
        [ "$_i" -gt 100 ] && fail "replica $_name never wrote its portfile within 10s"
        kill -0 "$(cat "$DIR/$_name.pid")" 2>/dev/null || fail "replica $_name died on startup"
        sleep 0.1
    done
    cp "$DIR/$_name/port.txt" "$DIR/$_name.addr"
}

stop_pid() {
    _pid="$(cat "$1")"
    kill -TERM "$_pid" 2>/dev/null || return 0
    wait_pid_bounded "$_pid" 15 || fail "$1 still alive 15s after SIGTERM"
    rm -f "$1"
}

echo "fleet-smoke: building binaries..."
$GO build -o "$DIR" ./cmd/adwars-serve ./cmd/adwars-gateway ./cmd/adwars-ctl \
    ./cmd/adwars-loadgen ./cmd/adwars-lists ./cmd/adwars-detect

echo "fleet-smoke: freezing snapshots (scale 50)..."
"$DIR/adwars-lists" -scale 50 -save-snapshot "$DIR/lists.json" >/dev/null 2>&1
"$DIR/adwars-detect" -scale 50 -model-only -save-model "$DIR/model.json" >/dev/null 2>&1

# --- Control: canonical answers from a single fault-free node. -----------
start_replica control
"$DIR/adwars-loadgen" -target "http://$(cat "$DIR/control.addr")" -probe \
    > "$DIR/control.txt" || fail "single-node control probe got no answers"
stop_pid "$DIR/control.pid"

# --- Fleet: three replicas behind the gateway. ----------------------------
start_replica r1
start_replica r2
start_replica r3
R1="$(cat "$DIR/r1.addr")"; R2="$(cat "$DIR/r2.addr")"; R3="$(cat "$DIR/r3.addr")"

rm -f "$DIR/gw.port"
"$DIR/adwars-gateway" -addr 127.0.0.1:0 -backends "$R1,$R2,$R3" \
    -health-interval 100ms -hedge-delay 50ms \
    -portfile "$DIR/gw.port" 2>"$DIR/gateway.log" &
echo $! > "$DIR/gateway.pid"
i=0
while [ ! -s "$DIR/gw.port" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "gateway never wrote its portfile within 10s"
    sleep 0.1
done
GW="http://$(cat "$DIR/gw.port")"
echo "fleet-smoke: gateway on $GW fronting r1=$R1 r2=$R2 r3=$R3"

# Through the gateway, answers must match the single-node control exactly.
"$DIR/adwars-loadgen" -target "$GW" -probe > "$DIR/fleet-pre.txt" \
    || fail "pre-kill gateway probe got no answers"
diff "$DIR/control.txt" "$DIR/fleet-pre.txt" \
    || fail "gateway answers differ from single-node control"

# --- Failover: SIGKILL r2 mid-load, restart it on the same address. ------
(
    sleep "$KILL_AT"
    kill -9 "$(cat "$DIR/r2.pid")" 2>/dev/null
    echo "fleet-smoke: SIGKILLed r2 mid-load" >&2
    sleep "$RESTART_AFTER"
    REPLICA_ADDR="$R2" start_replica r2
    echo "fleet-smoke: restarted r2 on $R2" >&2
) &
KILLER_PID=$!

if ! "$DIR/adwars-loadgen" -target "$GW" -duration "$DURATION" \
    -concurrency 8 -lists "$DIR/lists.json" -classify-frac 0.2 \
    -check -bench-fleet > "$DIR/loadgen.txt"; then
    cat "$DIR/loadgen.txt"
    fail "fleet loadgen ledger check failed (a killed replica leaked 5xx)"
fi
cat "$DIR/loadgen.txt"
wait "$KILLER_PID" 2>/dev/null || true

FAILOVERS="$(awk '/^BenchmarkFleetLoadgen/ { for (i=1;i<NF;i++) if ($(i+1)=="failovers") print $i }' "$DIR/loadgen.txt")"
[ -n "$FAILOVERS" ] || fail "loadgen emitted no fleet benchmark line"
[ "$FAILOVERS" -ge 1 ] 2>/dev/null || fail "gateway reports $FAILOVERS failovers; the SIGKILL was not absorbed by failover"

"$DIR/adwars-loadgen" -target "$GW" -probe > "$DIR/fleet-post.txt" \
    || fail "post-kill gateway probe got no answers"
diff "$DIR/control.txt" "$DIR/fleet-post.txt" \
    || fail "post-kill gateway answers differ from control"
echo "fleet-smoke: kill/restart absorbed ($FAILOVERS failovers, ledger balanced, answers identical)"

# --- Control plane: local refusal, canary rollback, good rollout. --------
REPLICAS="$R1,$R2,$R3"

# (a) A corrupted-payload artifact (trailer intact, one payload byte
# stomped with NUL — a byte JSON never contains, so the change is real)
# must be refused locally: exit 2, no push.
cp "$DIR/lists.json" "$DIR/flipped.json"
dd if=/dev/zero of="$DIR/flipped.json" bs=1 count=1 seek=512 conv=notrunc 2>/dev/null
set +e
"$DIR/adwars-ctl" -replicas "$REPLICAS" -push-lists "$DIR/flipped.json" 2>>"$DIR/ctl.log"
RC=$?
set -e
[ "$RC" -eq 2 ] || fail "ctl exit $RC for a bit-flipped artifact, want 2 (local refusal)"

# (b) A well-sealed artifact with a garbage payload passes the local
# integrity check; the canary's parse must reject it and the rollout must
# roll back: exit 3, whole fleet still serving last-good.
printf '{"format":"adwars-lists","version":1,"lists":' > "$DIR/garbage-payload.json"
"$DIR/adwars-ctl" -seal "$DIR/garbage-payload.json" -out "$DIR/poison.json" >/dev/null
set +e
"$DIR/adwars-ctl" -replicas "$REPLICAS" -push-lists "$DIR/poison.json" 2>>"$DIR/ctl.log"
RC=$?
set -e
[ "$RC" -eq 3 ] || fail "ctl exit $RC for a canary-rejected artifact, want 3 (rolled back)"
"$DIR/adwars-ctl" -replicas "$REPLICAS" -status 2>/dev/null > "$DIR/status-rollback.txt"
grep -q '"rejected": true' "$DIR/status-rollback.txt" \
    || fail "canary reload_rejected did not tick on the poisoned push"
"$DIR/adwars-loadgen" -target "$GW" -probe > "$DIR/fleet-rollback.txt" \
    || fail "post-rollback gateway probe got no answers"
diff "$DIR/control.txt" "$DIR/fleet-rollback.txt" \
    || fail "fleet answers changed after a rolled-back rollout"
echo "fleet-smoke: poisoned rollout stopped at canary and rolled back (fleet kept serving last-good)"

# (c) A good v2 snapshot (new label → new version) must roll out to all
# three replicas, which converge on one version with identical answers.
"$DIR/adwars-lists" -scale 50 -label "fleet v2" -save-snapshot "$DIR/lists2.json" >/dev/null 2>&1
"$DIR/adwars-ctl" -replicas "$REPLICAS" -push-lists "$DIR/lists2.json" \
    > "$DIR/rollout.txt" 2>>"$DIR/ctl.log" \
    || fail "good rollout failed (exit $?)"
V2="$(sed -n 's/.*version=\([0-9a-f]\{16\}\).*/\1/p' "$DIR/rollout.txt" | head -1)"
[ -n "$V2" ] || fail "could not read rolled-out version from ctl output"
"$DIR/adwars-ctl" -replicas "$REPLICAS" -status 2>/dev/null > "$DIR/status-v2.txt"
CONVERGED="$(grep -c "\"lists_version\": \"$V2\"" "$DIR/status-v2.txt" || true)"
[ "$CONVERGED" -eq 3 ] || fail "only $CONVERGED/3 replicas converged on version $V2"
for r in "$R1" "$R2" "$R3"; do
    "$DIR/adwars-loadgen" -target "http://$r" -probe > "$DIR/probe-$r.txt" \
        || fail "post-rollout probe of $r got no answers"
done
diff "$DIR/probe-$R1.txt" "$DIR/probe-$R2.txt" \
    || fail "r1 and r2 answers differ after the v2 rollout"
diff "$DIR/probe-$R1.txt" "$DIR/probe-$R3.txt" \
    || fail "r1 and r3 answers differ after the v2 rollout"
echo "fleet-smoke: v2 rollout converged (3/3 replicas on $V2, answers identical)"

# --- Teardown. ------------------------------------------------------------
stop_pid "$DIR/gateway.pid"
stop_pid "$DIR/r1.pid"
stop_pid "$DIR/r2.pid"
stop_pid "$DIR/r3.pid"

echo "fleet-smoke: OK (failover absorbed, canary rollback clean, v2 converged, graceful drain)"
