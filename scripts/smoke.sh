#!/bin/sh
# smoke.sh — the serving stack end to end, as real processes:
#
#     sh scripts/smoke.sh <serve|chaos|fleet|brownout>...
#
# One invocation builds the binaries and freezes the model and lists
# snapshots once, then runs the named scenarios in order, each in its own
# directory under one temporary root. A scenario starts adwars-serve
# replicas (and, for fleet and brownout, adwars-gateway in front of them),
# drives them with adwars-loadgen, and passes only if every gate holds;
# loadgen's own gates (-check ledger,usage,analytics,degrade,failovers,
# hot-only) are judged by its exit status, everything about processes —
# reload outcomes in a log, exit codes of adwars-ctl, probes that must be
# byte-identical, a clean drain — is judged here. What each scenario
# demands is stated above its function.
#
# Every wait is bounded: a process that will not start fails the run within
# 10s with its log attached, one that will not stop is killed by the
# teardown trap. SMOKE_SHORT=1 shortens the firing windows (`make verify`).
set -eu

[ "$#" -gt 0 ] || { echo "usage: sh scripts/smoke.sh <serve|chaos|fleet|brownout>..." >&2; exit 2; }
for s in "$@"; do
    case "$s" in
        serve|chaos|fleet|brownout) ;;
        *) echo "smoke.sh: unknown scenario '$s' (serve, chaos, fleet, brownout)" >&2; exit 2 ;;
    esac
done

GO="${GO:-go}"
SHORT="${SMOKE_SHORT:-0}"
DIR="$(mktemp -d /tmp/adwars-smoke.XXXXXX)"
BIN="$DIR/bin"
S="smoke"   # who is speaking: the harness, then SCENARIO-smoke
W="$DIR"    # the running scenario's directory: NAME.pid, NAME.addr, NAME.log, NAME/

say() { echo "$S: $*"; }

# wait_pid_bounded PID SECONDS — poll until PID exits or the budget runs
# out; returns 0 if it exited, 1 if it is still alive.
wait_pid_bounded() {
    _pid="$1"; _budget=$(( $2 * 10 )); _i=0
    while kill -0 "$_pid" 2>/dev/null; do
        _i=$((_i + 1))
        [ "$_i" -gt "$_budget" ] && return 1
        sleep 0.1
    done
    return 0
}

# cleanup stops whatever any scenario left running. A process that ignores
# SIGTERM for 5s is killed, so the trap itself can never hang.
cleanup() {
    for _f in "$DIR"/*/*.pid; do
        [ -f "$_f" ] || continue
        _pid="$(cat "$_f")"
        if kill -0 "$_pid" 2>/dev/null; then
            kill "$_pid" 2>/dev/null || true
            wait_pid_bounded "$_pid" 5 || kill -9 "$_pid" 2>/dev/null || true
        fi
    done
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

fail() {
    echo "$S: FAIL: $1" >&2
    for _log in "$W"/*.log; do
        [ -f "$_log" ] && { echo "--- $_log" >&2; tail -20 "$_log" >&2; }
    done
    exit 1
}

# wait_portfile FILE NAME — a process writes its port file after binding.
# Timing out is a loud failure with the logs attached, not a hang and not a
# cascade of connection errors further down.
wait_portfile() {
    _i=0
    while [ ! -s "$1" ]; do
        _i=$((_i + 1))
        [ "$_i" -gt 100 ] && fail "$2 never wrote its portfile within 10s"
        kill -0 "$(cat "$W/$2.pid")" 2>/dev/null || fail "$2 died on startup"
        sleep 0.1
    done
    cp "$1" "$W/$2.addr"
}

# start_replica NAME [adwars-serve flags...] — boots one replica on an
# ephemeral port (or on REPLICA_ADDR) over its own copies of the snapshots,
# which a test may have put in $W/NAME/ beforehand, and records NAME.pid
# and NAME.addr. Restarting a NAME appends to its log.
start_replica() {
    _name="$1"; shift
    mkdir -p "$W/$_name"
    [ -f "$W/$_name/lists.json" ] || cp "$DIR/lists.json" "$W/$_name/lists.json"
    [ -f "$W/$_name/model.json" ] || cp "$DIR/model.json" "$W/$_name/model.json"
    rm -f "$W/$_name/port.txt"
    "$BIN/adwars-serve" -addr "${REPLICA_ADDR:-127.0.0.1:0}" \
        -model "$W/$_name/model.json" -lists "$W/$_name/lists.json" \
        -replica "$_name" -drain-announce 200ms \
        -portfile "$W/$_name/port.txt" "$@" 2>>"$W/$_name.log" &
    echo $! > "$W/$_name.pid"
    wait_portfile "$W/$_name/port.txt" "$_name"
}

# start_gateway BACKENDS [adwars-gateway flags...] — sets GW.
start_gateway() {
    _backends="$1"; shift
    "$BIN/adwars-gateway" -addr 127.0.0.1:0 -backends "$_backends" \
        -health-interval 100ms -portfile "$W/gateway.port" "$@" 2>"$W/gateway.log" &
    echo $! > "$W/gateway.pid"
    wait_portfile "$W/gateway.port" gateway
    GW="http://$(cat "$W/gateway.addr")"
}

addr() { cat "$W/$1.addr"; }

# stop_pid NAME... — SIGTERM, at most 15s to drain, and a clean exit: a
# process this shell started must have exited 0 (127 is wait's answer for
# one a background subshell restarted, whose status is not ours to read).
stop_pid() {
    for _name in "$@"; do
        _pid="$(cat "$W/$_name.pid")"
        kill -TERM "$_pid" 2>/dev/null || fail "$_name was not running at teardown"
        wait_pid_bounded "$_pid" 15 || fail "$_name still alive 15s after SIGTERM"
        _rc=0; wait "$_pid" 2>/dev/null || _rc=$?
        [ "$_rc" -eq 0 ] || [ "$_rc" -eq 127 ] || fail "$_name did not drain cleanly (exit $_rc)"
        rm -f "$W/$_name.pid"
    done
}

# probe TARGET FILE WHAT — loadgen's canonical answers, retried to a 2xx.
probe() {
    "$BIN/adwars-loadgen" -target "$1" -probe > "$2" || fail "$3 probe got no answers"
}

# load WHAT [adwars-loadgen flags...] — one firing window over the frozen
# lists. Its exit status is the verdict of every gate -check names.
load() {
    _what="$1"; shift
    "$BIN/adwars-loadgen" -lists "$DIR/lists.json" "$@" || fail "$_what"
}

# dashboard WHAT [adwars-report -live flags...] — the rendered dashboard
# must carry traffic and attribute at least one firing rule.
dashboard() {
    _what="$1"; shift
    "$BIN/adwars-report" -live "$@" > "$W/report.txt"
    if ! grep -q "live serving analytics" "$W/report.txt" \
        || grep -q " 0 decisions" "$W/report.txt" \
        || grep -q "(no rules fired)" "$W/report.txt"; then
        cat "$W/report.txt" >&2
        fail "$_what is empty"
    fi
}

# --- serve: one replica through its whole life. ---------------------------
# 2s of mixed load with a SIGHUP hot reload in the middle (ledger: no drop,
# no 5xx; the reload must show in the log); then, the server quiet, a pass
# whose usage ledger and one whose analytics ledger must reconcile to the
# unit; the live dashboard over /admin/analytics; /admin/usage compacted
# into a tiered snapshot that a second server serves clean; the schema-4 and
# the tiered schema-5 snapshot older builds wrote (internal/abp/testdata) each
# converted by adwars-compact and served clean by another; all drain cleanly; and
# the drain flushed the analytics spill, which the dashboard renders again
# from disk.
scenario_serve() {
    start_replica main -analytics -analytics-spill "$W/spill"
    MAIN="http://$(addr main)"
    say "server on $MAIN"

    ( sleep 1; kill -HUP "$(cat "$W/main.pid")" 2>/dev/null ) &
    load "load across a hot reload dropped or failed requests" \
        -target "$MAIN" -duration 2s -concurrency 4 -check ledger
    grep -q "SIGHUP reload ok" "$W/main.log" || fail "hot reload did not happen"

    say "usage pass..."
    load "usage telemetry does not reconcile with the client's ledger" \
        -target "$MAIN" -duration 1s -concurrency 2 -check ledger,usage
    say "analytics pass..."
    load "decision analytics do not reconcile with the client's ledger" \
        -target "$MAIN" -duration 1s -concurrency 2 -check ledger,analytics
    say "live analytics dashboard..."
    dashboard "live analytics dashboard" -url "$MAIN"

    say "compacting usage into a tiered snapshot..."
    mkdir -p "$W/tiered"
    "$BIN/adwars-compact" -lists "$DIR/lists.json" \
        -usage "$MAIN/admin/usage" -out "$W/tiered/lists.json"
    start_replica tiered
    say "tiered server on $(addr tiered)"
    load "tiered snapshot does not serve clean" \
        -target "http://$(addr tiered)" -duration 1s -concurrency 2 -check ledger,usage

    for _old in parent-v5-flat parent-v5-tiered; do
        say "converting $_old.snapshot..."
        mkdir -p "$W/$_old"
        "$BIN/adwars-compact" -lists "internal/abp/testdata/$_old.snapshot" \
            -out "$W/$_old/lists.json"
        start_replica "$_old"
        "$BIN/adwars-loadgen" -lists "$W/$_old/lists.json" \
            -target "http://$(addr "$_old")" -duration 1s -concurrency 2 -check ledger \
            || fail "converted $_old.snapshot does not serve clean"
        stop_pid "$_old"
    done
    stop_pid tiered main

    ls "$W/spill"/analytics-*.jsonl >/dev/null 2>&1 \
        || fail "no analytics spill files after drain"
    say "post-drain spill dashboard..."
    dashboard "spill dashboard after drain" -spill "$W/spill"
    say "OK (zero drops across hot reload, usage + analytics ledgers reconciled, live + spill dashboards rendered, tiered and converted snapshots served clean, clean drain)"
}

# --- chaos: the server under deliberate fire. -----------------------------
# A fault-free control answers the probe; then a server with every fault
# class on (injected latency, early closes, truncated reads, handler
# panics) and an admission queue small enough to shed takes hostile load
# (malformed, oversized, slow-trickle and mid-body-abort requests among the
# normal ones). Mid-fire its lists snapshot is cut in half and SIGHUPed —
# the reload must be rejected while last-good keeps serving — then restored
# and SIGHUPed again. The chaos ledger must balance with zero unexplained
# 5xx, the survivor's probe must be byte-identical to the control's, and it
# must still drain cleanly.
scenario_chaos() {
    DURATION="3s"; [ "$SHORT" = "1" ] && DURATION="1500ms"

    start_replica control
    probe "http://$(addr control)" "$W/control.txt" "control"
    stop_pid control

    start_replica main \
        -workers 1 -queue 2 -queue-timeout 2ms \
        -chaos-seed 1337 \
        -chaos-latency-rate 0.1 -chaos-latency 10ms \
        -chaos-close-rate 0.05 \
        -chaos-truncate-rate 0.05 \
        -chaos-panic-rate 0.05
    MAIN="http://$(addr main)"
    say "chaos server on $MAIN (all fault classes live, $DURATION of hostile load)"

    (
        sleep 0.5
        head -c "$(( $(wc -c < "$DIR/lists.json") / 2 ))" "$DIR/lists.json" > "$W/main/lists.json"
        kill -HUP "$(cat "$W/main.pid")" 2>/dev/null
        sleep 0.4
        cp "$DIR/lists.json" "$W/main/lists.json"
        kill -HUP "$(cat "$W/main.pid")" 2>/dev/null
    ) &
    RELOADER_PID=$!
    load "chaos ledger does not balance" \
        -target "$MAIN" -duration "$DURATION" -concurrency 8 -classify-frac 0.3 \
        -chaos -fault-frac 0.25 -check ledger
    wait "$RELOADER_PID" 2>/dev/null || true

    grep -q "SIGHUP reload failed" "$W/main.log" || fail "corrupted snapshot reload was not rejected"
    grep -q "SIGHUP reload ok" "$W/main.log" || fail "restored snapshot reload did not succeed"

    # The probe retries through any residual injected faults.
    probe "$MAIN" "$W/chaos.txt" "post-chaos"
    diff "$W/control.txt" "$W/chaos.txt" || fail "post-chaos answers differ from fault-free control"
    stop_pid main
    say "OK (ledger balanced, corrupt reload rejected, answers identical to control, clean drain)"
}

# --- fleet: three replicas behind the gateway, and the control plane. ----
#   1. Failover: mid-load one replica is SIGKILLed and later restarted on
#      the same address. The ledger must still balance (every request one
#      2xx or 429, zero 5xx, zero transport errors) and the gateway must
#      report failovers >= 1 — the kill was real and absorbed.
#   2. Consistency: answers through the gateway are byte-identical to a
#      single node's, before and after the kill.
#   3. Control plane: adwars-ctl refuses a bit-flipped artifact locally
#      (exit 2, nothing pushed); a well-sealed but garbage artifact is
#      rejected by the canary and rolled back (exit 3, the fleet keeps
#      serving last-good, the canary's last_reload shows the rejection); a
#      good v2 snapshot rolls out (exit 0) and all three replicas converge
#      on its version with byte-identical answers.
scenario_fleet() {
    DURATION="4s"; KILL_AT=1.2; RESTART_AFTER=0.8
    if [ "$SHORT" = "1" ]; then DURATION="2s"; KILL_AT=0.6; RESTART_AFTER=0.5; fi

    start_replica control
    probe "http://$(addr control)" "$W/control.txt" "single-node control"
    stop_pid control

    start_replica r1; start_replica r2; start_replica r3
    R1="$(addr r1)"; R2="$(addr r2)"; R3="$(addr r3)"
    REPLICAS="$R1,$R2,$R3"
    start_gateway "$REPLICAS" -hedge-delay 50ms
    say "gateway on $GW fronting r1=$R1 r2=$R2 r3=$R3"

    probe "$GW" "$W/fleet-pre.txt" "pre-kill gateway"
    diff "$W/control.txt" "$W/fleet-pre.txt" || fail "gateway answers differ from single-node control"

    (
        sleep "$KILL_AT"
        kill -9 "$(cat "$W/r2.pid")" 2>/dev/null
        say "SIGKILLed r2 mid-load" >&2
        sleep "$RESTART_AFTER"
        REPLICA_ADDR="$R2" start_replica r2
        say "restarted r2 on $R2" >&2
    ) &
    KILLER_PID=$!
    load "a killed replica leaked 5xx, or was not absorbed by failover" \
        -target "$GW" -duration "$DURATION" -concurrency 8 -classify-frac 0.2 \
        -check ledger,failovers
    wait "$KILLER_PID" 2>/dev/null || true

    probe "$GW" "$W/fleet-post.txt" "post-kill gateway"
    diff "$W/control.txt" "$W/fleet-post.txt" || fail "post-kill gateway answers differ from control"
    say "kill/restart absorbed (ledger balanced, answers identical)"

    # (a) Trailer intact, one payload byte stomped with NUL — a byte JSON
    # never contains, so the change is real.
    cp "$DIR/lists.json" "$W/flipped.json"
    dd if=/dev/zero of="$W/flipped.json" bs=1 count=1 seek=512 conv=notrunc 2>/dev/null
    RC=0
    "$BIN/adwars-ctl" -replicas "$REPLICAS" -push-lists "$W/flipped.json" 2>>"$W/ctl.log" || RC=$?
    [ "$RC" -eq 2 ] || fail "ctl exit $RC for a bit-flipped artifact, want 2 (local refusal)"

    # (b) Passes the local integrity check; the canary's parse rejects it.
    printf '{"format":"adwars-lists","version":1,"lists":' > "$W/garbage-payload.json"
    "$BIN/adwars-ctl" -seal "$W/garbage-payload.json" -out "$W/poison.json" >/dev/null
    RC=0
    "$BIN/adwars-ctl" -replicas "$REPLICAS" -push-lists "$W/poison.json" 2>>"$W/ctl.log" || RC=$?
    [ "$RC" -eq 3 ] || fail "ctl exit $RC for a canary-rejected artifact, want 3 (rolled back)"
    "$BIN/adwars-ctl" -replicas "$REPLICAS" -status 2>/dev/null > "$W/status-rollback.txt"
    grep -q '"rejected": true' "$W/status-rollback.txt" \
        || fail "canary reload_rejected did not tick on the poisoned push"
    probe "$GW" "$W/fleet-rollback.txt" "post-rollback gateway"
    diff "$W/control.txt" "$W/fleet-rollback.txt" || fail "fleet answers changed after a rolled-back rollout"
    say "poisoned rollout stopped at canary and rolled back (fleet kept serving last-good)"

    # (c) A new label is a new version.
    "$BIN/adwars-lists" -scale 50 -label "fleet v2" -save-snapshot "$W/lists2.json" >/dev/null 2>&1
    "$BIN/adwars-ctl" -replicas "$REPLICAS" -push-lists "$W/lists2.json" \
        > "$W/rollout.txt" 2>>"$W/ctl.log" || fail "good rollout failed (exit $?)"
    V2="$(sed -n 's/.*version=\([0-9a-f]\{16\}\).*/\1/p' "$W/rollout.txt" | head -1)"
    [ -n "$V2" ] || fail "could not read rolled-out version from ctl output"
    "$BIN/adwars-ctl" -replicas "$REPLICAS" -status 2>/dev/null > "$W/status-v2.txt"
    CONVERGED="$(grep -c "\"lists_version\": \"$V2\"" "$W/status-v2.txt" || true)"
    [ "$CONVERGED" -eq 3 ] || fail "only $CONVERGED/3 replicas converged on version $V2"
    for r in r1 r2 r3; do
        probe "http://$(addr $r)" "$W/probe-$r.txt" "post-rollout $r"
    done
    diff "$W/probe-r1.txt" "$W/probe-r2.txt" || fail "r1 and r2 answers differ after the v2 rollout"
    diff "$W/probe-r1.txt" "$W/probe-r3.txt" || fail "r1 and r3 answers differ after the v2 rollout"
    say "v2 rollout converged (3/3 replicas on $V2, answers identical)"

    stop_pid gateway r1 r2 r3
    say "OK (failover absorbed, canary rollback clean, v2 converged, graceful drain)"
}

# --- brownout: the overload governor. --------------------------------------
# Two capacity-starved governed replicas behind the gateway are overdriven
# at concurrency far beyond capacity. Every replica's ladder must climb to
# at least L2 (hot-tier-only matching) and step back to L0 with exactly one
# climb and one descent (transitions == 2 x peak: the hysteresis held, no
# flapping); the ledger must balance with zero unexplained 5xx, degrade
# sheds included; some answers must really have been served hot-only; and
# the fleet back at L0 must answer the probe exactly as it did unloaded.
#
# The starvation recipe: 1 worker whose every request is stretched to 20ms
# by the chaos latency injector (which sleeps while holding the worker
# slot), so a replica serves ~50 req/s — far below what loadgen offers —
# and the admission queue (depth 8, 50ms wait budget) stays pegged. That
# keeps the governor's instantaneous queue-depth sample above the
# high-water mark at every 50ms tick, so the ladder climbs and holds
# without flapping. The p99 threshold is raised to 500ms because the
# injected 20ms would otherwise read as pressure even on the sequential
# post-recovery probe.
scenario_brownout() {
    DURATION="3s"; [ "$SHORT" = "1" ] && DURATION="1500ms"

    for r in r1 r2; do
        start_replica $r \
            -workers 1 -queue 8 -queue-timeout 50ms \
            -chaos-seed 42 -chaos-latency-rate 1 -chaos-latency 20ms \
            -degrade -degrade-interval 50ms -degrade-p99 500ms \
            -degrade-up-ticks 2 -degrade-down-ticks 5
    done
    R1="$(addr r1)"; R2="$(addr r2)"
    start_gateway "$R1,$R2" -retry-budget 5 -retry-refill 0.1
    say "gateway on $GW fronting r1=$R1 r2=$R2 (1 worker @ 20ms/req, queue 8 each)"

    probe "$GW" "$W/control.txt" "unloaded control"

    # The degrade gate waits for both replicas to return to L0.
    say "overdriving for $DURATION at concurrency 32..."
    load "ledger, ladder recovery or hot-only gate failed" \
        -target "$GW" -duration "$DURATION" -concurrency 32 -classify-frac 0.3 \
        -check ledger,degrade,hot-only -degrade-url "http://$R1,http://$R2"

    probe "$GW" "$W/post.txt" "post-recovery"
    diff "$W/control.txt" "$W/post.txt" || fail "post-recovery answers differ from unloaded control"
    stop_pid gateway r1 r2
    say "OK (ladder climbed >= L2 and recovered to L0 without flapping, ledger balanced, some answers hot-only, answers identical to control, clean drain)"
}

say "building binaries..."
mkdir "$BIN"
$GO build -o "$BIN" ./cmd/adwars-serve ./cmd/adwars-gateway ./cmd/adwars-ctl \
    ./cmd/adwars-loadgen ./cmd/adwars-lists ./cmd/adwars-detect \
    ./cmd/adwars-compact ./cmd/adwars-report
say "freezing snapshots (scale 50)..."
"$BIN/adwars-lists" -scale 50 -save-snapshot "$DIR/lists.json" >/dev/null 2>&1
"$BIN/adwars-detect" -scale 50 -model-only -save-model "$DIR/model.json" >/dev/null 2>&1

for s in "$@"; do
    S="$s-smoke"; W="$DIR/$s"
    mkdir "$W"
    "scenario_$s"
done
