#!/bin/sh
# End-to-end smoke of the checking service through real processes and a
# real unix socket: start kissd with a cache snapshot, drive it with
# kissctl (ping, a miss, a byte-identical hit, stats, shutdown), then
# restart the daemon and prove the snapshot answers the same request as a
# hit with the same bytes. On the way, 200 sequential pings after a
# warm-up must not grow the daemon's memory mappings: each finished
# connection's thread has to be joined, or its stack stays mapped.
#
#   service_smoke.sh <kissd> <kissctl> <workdir> <program.kiss>
set -u

KISSD=$1
KISSCTL=$2
DIR=$3
PROGRAM=$4

SOCK=$DIR/smoke.sock
CACHE=$DIR/smoke.cache
LOG=$DIR/smoke.kissd.log
rm -f "$SOCK" "$CACHE"

fail() {
  echo "service_smoke: $1" >&2
  [ -f "$LOG" ] && sed 's/^/  kissd: /' "$LOG" >&2
  kill "$KISSD_PID" 2>/dev/null
  exit 1
}

wait_for_socket() {
  i=0
  while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ $i -gt 100 ] && fail "daemon never created $SOCK"
    kill -0 "$KISSD_PID" 2>/dev/null || fail "daemon died during startup"
    sleep 0.1
  done
}

start_daemon() {
  "$KISSD" --socket="$SOCK" --workers=2 --cache="$CACHE" 2>"$LOG" &
  KISSD_PID=$!
  wait_for_socket
}

# --- First daemon: cold cache. ------------------------------------------
start_daemon

"$KISSCTL" --socket="$SOCK" --ping >/dev/null || fail "ping failed"

pings() {
  i=0
  while [ $i -lt "$1" ]; do
    "$KISSCTL" --socket="$SOCK" --ping >/dev/null || fail "ping $i failed"
    i=$((i + 1))
  done
}

# An unjoined thread keeps its stack and guard page: two lines of
# /proc/<pid>/maps per connection. Joined stacks are reused, so the count
# holds still up to a small margin (allocator arenas). The baseline is
# taken after 250 warm-up pings: a ThreadSanitizer runtime maps state for
# its first ~200 threads before it starts reusing it (+72 lines, then
# flat), and that is not a leak.
MAPS=/proc/$KISSD_PID/maps
if [ -r "$MAPS" ]; then
  pings 250
  MAPS_BEFORE=$(wc -l <"$MAPS")
  pings 200
  MAPS_AFTER=$(wc -l <"$MAPS")
  [ "$MAPS_AFTER" -le $((MAPS_BEFORE + 40)) ] \
    || fail "200 pings grew the daemon's mappings from $MAPS_BEFORE to $MAPS_AFTER lines"
else
  echo "service_smoke: no $MAPS; skipping the connection-thread check"
fi

# A cold check misses; its replay hits with byte-identical result bytes.
"$KISSCTL" --socket="$SOCK" --print=result --max-ts=1 "$PROGRAM" \
  >"$DIR/smoke_cold.json" 2>"$DIR/smoke_cold.err"
COLD_CODE=$?
"$KISSCTL" --socket="$SOCK" --print=result --max-ts=1 "$PROGRAM" \
  >"$DIR/smoke_hot.json" 2>"$DIR/smoke_hot.err"
HOT_CODE=$?
[ "$COLD_CODE" = "$HOT_CODE" ] || fail "cold exit $COLD_CODE != hot exit $HOT_CODE"
cmp -s "$DIR/smoke_cold.json" "$DIR/smoke_hot.json" \
  || fail "hit result bytes differ from the miss"

"$KISSCTL" --socket="$SOCK" --stats >"$DIR/smoke_stats.json" \
  || fail "stats failed"
grep -q '"cache_hits": 1' "$DIR/smoke_stats.json" \
  || fail "stats missing the cache hit: $(cat "$DIR/smoke_stats.json")"

"$KISSCTL" --socket="$SOCK" --shutdown >/dev/null || fail "shutdown failed"
wait "$KISSD_PID"
CODE=$?
[ "$CODE" = 0 ] || fail "daemon exited $CODE after shutdown"
[ -f "$CACHE" ] || fail "daemon did not write the cache snapshot"

# --- Second daemon: the snapshot must serve the same request as a hit. ---
start_daemon
"$KISSCTL" --socket="$SOCK" --print=response --max-ts=1 "$PROGRAM" \
  >"$DIR/smoke_restart.json" 2>/dev/null
grep -q '"cache": "hit"' "$DIR/smoke_restart.json" \
  || fail "restarted daemon did not serve from the snapshot"
"$KISSCTL" --socket="$SOCK" --print=result --max-ts=1 "$PROGRAM" \
  >"$DIR/smoke_restart_core.json" 2>/dev/null
cmp -s "$DIR/smoke_cold.json" "$DIR/smoke_restart_core.json" \
  || fail "snapshot replay bytes differ from the original result"

"$KISSCTL" --socket="$SOCK" --shutdown >/dev/null || fail "second shutdown failed"
wait "$KISSD_PID" || fail "second daemon exited nonzero"
echo "service_smoke: ok"
