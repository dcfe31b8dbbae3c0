#!/bin/sh
# restart_smoke.sh — the durability acceptance check as a black-box
# process test: boot cmd/serve with a data dir, ingest a dataset and
# compute a distinct and a (B,t) release over HTTP, attack the (B,t)
# one, kill the server, boot a fresh process on the same dir, and
# verify it serves the same release and the same attack body
# byte-identically with zero pipeline runs and zero persist errors
# (pure disk recovery, each release audited against the requirement
# rebuilt from its stored request). Run via `make restart-smoke` (part
# of `make ci`).
set -eu

ADDR=${RESTART_SMOKE_ADDR:-127.0.0.1:19471}
BASE="http://$ADDR"
WORK=$(mktemp -d)
SERVE_PID=""

cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { echo "restart-smoke: $*"; }

# json_field FILE KEY → first string value of "KEY" in FILE.
json_field() {
    sed -n 's/.*"'"$2"'":"\([^"]*\)".*/\1/p' "$1" | head -n 1
}

wait_healthy() {
    i=0
    while ! curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        # A dead server (port already bound, bad flag) would otherwise
        # leave the loop talking to whatever else owns the address.
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            say "server process exited during startup:"
            cat "$WORK/serve.log"
            SERVE_PID=""
            exit 1
        fi
        i=$((i + 1))
        [ "$i" -gt 100 ] && { say "server did not become healthy"; exit 1; }
        sleep 0.1
    done
}

start_serve() {
    "$WORK/serve" -addr "$ADDR" -data-dir "$WORK/data" -workers 2 \
        >"$WORK/serve.log" 2>&1 &
    SERVE_PID=$!
    wait_healthy
}

say "building cmd/serve"
${GO:-go} build -o "$WORK/serve" ./cmd/serve

say "boot #1 ($ADDR, data dir $WORK/data)"
start_serve

curl -sf -X POST "$BASE/v1/datasets" -H 'Content-Type: application/json' \
    -d '{"n":400,"seed":7}' >"$WORK/ds.json"
DS=$(json_field "$WORK/ds.json" id)
[ -n "$DS" ] || { say "dataset ingest failed: $(cat "$WORK/ds.json")"; exit 1; }

curl -sf -X POST "$BASE/v1/anonymize" -H 'Content-Type: application/json' \
    -d '{"dataset":"'"$DS"'","model":"distinct"}' >"$WORK/anon.json"
REL=$(json_field "$WORK/anon.json" release)
[ -n "$REL" ] || { say "anonymize failed: $(cat "$WORK/anon.json")"; exit 1; }
say "computed release $REL on dataset $DS"

curl -sf "$BASE/v1/releases/$REL" >"$WORK/release.pre"

# A (B,t) release needs priors, so its recovery audit rebuilds them.
curl -sf -X POST "$BASE/v1/anonymize" -H 'Content-Type: application/json' \
    -d '{"dataset":"'"$DS"'","model":"bt"}' >"$WORK/anon_bt.json"
BTREL=$(json_field "$WORK/anon_bt.json" release)
[ -n "$BTREL" ] || { say "bt anonymize failed: $(cat "$WORK/anon_bt.json")"; exit 1; }
ATTACK='{"release":"'"$BTREL"'","bprime":0.4}'
curl -sf -X POST "$BASE/v1/attack" -H 'Content-Type: application/json' \
    -d "$ATTACK" >"$WORK/attack.pre"

say "killing server (SIGTERM) and rebooting on the same data dir"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
start_serve

# The first request after the reboot recovers and audits the (B,t)
# release (its dataset's engine rebuild included) before attacking it.
T=$(curl -s -o "$WORK/attack.post" -w '%{time_total}' -X POST "$BASE/v1/attack" \
    -H 'Content-Type: application/json' -d "$ATTACK")
say "first post-restart request (recover + audit + attack $BTREL): ${T}s"
cmp -s "$WORK/attack.pre" "$WORK/attack.post" || {
    say "FAIL: (B,t) attack body differs across restart"
    diff "$WORK/attack.pre" "$WORK/attack.post" || true
    exit 1
}

curl -s "$BASE/v1/releases/$REL" >"$WORK/release.post"
cmp -s "$WORK/release.pre" "$WORK/release.post" || {
    say "FAIL: release metadata differs across restart"
    diff "$WORK/release.pre" "$WORK/release.post" || true
    exit 1
}

# The warm path must be recovery, not recomputation: after touching
# the release again, pipeline_runs stays 0 in this process.
curl -sf -X POST "$BASE/v1/anonymize" -H 'Content-Type: application/json' \
    -d '{"dataset":"'"$DS"'","model":"distinct"}' >/dev/null
curl -sf "$BASE/metrics" >"$WORK/metrics.json"
grep -q '"pipeline_runs":0' "$WORK/metrics.json" || {
    say "FAIL: warm restart reran the pipeline"
    cat "$WORK/metrics.json"
    exit 1
}
grep -q '"persist":{"writes":[0-9]*,"errors":0,' "$WORK/metrics.json" || {
    say "FAIL: a recovered record failed its checks (persist errors)"
    cat "$WORK/metrics.json"
    exit 1
}

# The stage ledger starts fresh per process: after the reboot it must
# show disk recovery (persist_read) and no pipeline compute stages —
# a mondrian entry here would mean the old process's ledger leaked
# across restart or the warm path silently recomputed.
grep -q '"persist_read":{"count":' "$WORK/metrics.json" || {
    say "FAIL: post-restart ledger lacks persist_read (recovery untracked)"
    cat "$WORK/metrics.json"
    exit 1
}
if grep -q '"mondrian":{"count":' "$WORK/metrics.json"; then
    say "FAIL: post-restart ledger reports mondrian compute"
    cat "$WORK/metrics.json"
    exit 1
fi

# And the async path works end to end on the recovered server.
curl -sf -X POST "$BASE/v1/anonymize" -H 'Content-Type: application/json' \
    -d '{"dataset":"'"$DS"'","model":"prob","async":true}' >"$WORK/job.json"
JOB=$(json_field "$WORK/job.json" job)
[ -n "$JOB" ] || { say "async submit failed: $(cat "$WORK/job.json")"; exit 1; }
i=0
while :; do
    curl -sf "$BASE/v1/jobs/$JOB" >"$WORK/jobstate.json"
    STATE=$(json_field "$WORK/jobstate.json" state)
    [ "$STATE" = done ] && break
    [ "$STATE" = failed ] && { say "FAIL: async job failed: $(cat "$WORK/jobstate.json")"; exit 1; }
    i=$((i + 1))
    [ "$i" -gt 200 ] && { say "FAIL: async job stuck in $STATE"; exit 1; }
    sleep 0.1
done
say "async job $JOB done"

say "PASS: byte-identical recovery and attack, zero pipeline runs and persist errors, async round trip"
