#!/bin/sh
# End-to-end smoke for the serving layer (docs/SERVING.md), also run by the
# CI serve-smoke job: boot pebbletc_serve on the example artifacts, drive
# the client's scripted mix (well-formed traffic interleaved with
# truncated/oversized/garbage frames), check a few single-shot commands,
# and shut the daemon down. Any daemon crash, dropped connection on a
# content error, or unexpected wire status fails the script.
#
# usage: serve_smoke.sh <pebbletc_serve> <pebbletc_client> <artifacts-dir>

set -eu

SERVE_BIN="$1"
CLIENT_BIN="$2"
ARTIFACTS_DIR="$3"

WORK_DIR="$(mktemp -d)"
SOCKET="$WORK_DIR/pebbletc.sock"
SERVE_LOG="$WORK_DIR/serve.log"
SERVE_PID=""

cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT INT TERM

# A default deadline above the deadline ceiling is a configuration error:
# the daemon must exit 2 before binding, not clamp the default.
status=0
"$SERVE_BIN" --socket="$WORK_DIR/rejected.sock" --artifacts="$ARTIFACTS_DIR" \
  --default-deadline-ms=5000 --max-deadline-ms=1000 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "serve_smoke: over-ceiling default deadline exited $status, want 2" >&2
  exit 1
fi

"$SERVE_BIN" --socket="$SOCKET" --artifacts="$ARTIFACTS_DIR" \
  --max-in-flight=2 --max-queued=4 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!

# Wait for the socket to appear (the daemon loads artifacts first).
tries=0
while [ ! -S "$SOCKET" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "serve_smoke: daemon did not come up; log:" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve_smoke: daemon exited during startup; log:" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  sleep 0.1
done

fail() {
  echo "serve_smoke: $1" >&2
  echo "--- daemon log ---" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}

# Single-shot sanity before the hostile mix.
"$CLIENT_BIN" --socket="$SOCKET" ping >/dev/null || fail "ping failed"
"$CLIENT_BIN" --socket="$SOCKET" list || fail "list failed"
"$CLIENT_BIN" --socket="$SOCKET" typecheck rename rename_in good_out \
  || fail "typecheck good pair failed"
# The bad pair is an OK response carrying a counterexample (exit 0).
"$CLIENT_BIN" --socket="$SOCKET" typecheck rename rename_in bad_out \
  | grep -q COUNTEREXAMPLE || fail "bad pair did not yield a counterexample"
"$CLIENT_BIN" --socket="$SOCKET" validate rename_in "<a><c/></a>" \
  || fail "validate failed"

# The scripted robustness mix: hostile frames must yield structured errors,
# never crashes or dropped connections on content errors.
"$CLIENT_BIN" --socket="$SOCKET" mix --rounds=5 || fail "scripted mix failed"

# The daemon must still be alive and serving after everything above.
kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died during the mix"
"$CLIENT_BIN" --socket="$SOCKET" stats || fail "stats after mix failed"

# Graceful shutdown on SIGTERM.
kill "$SERVE_PID"
wait "$SERVE_PID" || fail "daemon exited non-zero on SIGTERM"
SERVE_PID=""

echo "serve_smoke: OK"
