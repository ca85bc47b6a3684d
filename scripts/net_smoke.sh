#!/usr/bin/env bash
# CI network smoke: exercises the whole fusion-as-a-service path through
# the real binaries — synthesize TSVs, train and --save a snapshot, start
# `fuser_cli --serve` as a background process on an ephemeral port, probe
# it with `fuser_cli --client` (Stats + ScoreBatch + Score cross-check),
# re-probe the same data trained and saved across --shards=2 (both shards
# non-empty), verify the CLI's flag-misuse exit codes, then SIGTERM the
# servers and assert they drain to exit 0 with the JSON-last-line contract
# intact — including a SIGTERM sent the instant the port line appears.
#
#   scripts/net_smoke.sh [build_dir] [out_dir]
#
# All server/client logs land in out_dir so CI can upload them as
# artifacts when this script fails.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-net-smoke-out}"
mkdir -p "$OUT_DIR"

SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi
}
trap cleanup EXIT

wait_for_port() {  # wait_for_port <server.log> -> echoes the bound port
  local log="$1" port=""
  for _ in $(seq 1 200); do
    port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' "$log")
    [ -n "$port" ] && break
    sleep 0.05
  done
  if [ -z "$port" ]; then
    echo "server never announced its port; log follows" >&2
    cat "$log" >&2
    return 1
  fi
  echo "$port"
}

stop_and_check() {  # stop_and_check <pid> <server.log>
  local pid="$1" log="$2" rc=0
  kill -TERM "$pid"
  wait "$pid" || rc=$?
  SERVER_PID=""
  if [ "$rc" -ne 0 ]; then
    echo "server exited $rc after SIGTERM; log follows" >&2
    cat "$log" >&2
    return 1
  fi
  # The JSON-last-line contract holds in serve mode too.
  tail -n 1 "$log" | grep -q '"serve": true' || {
    echo "server's last stdout line is not the serve JSON summary" >&2
    cat "$log" >&2
    return 1
  }
}

expect_exit2() {  # expect_exit2 <description> <args...>
  local desc="$1" rc=0
  shift
  "$BUILD_DIR/fuser_cli" "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit 2 for $desc, got $rc" >&2
    return 1
  fi
}

echo "== synthesize TSVs and train a snapshot"
"$BUILD_DIR/make_synth_tsv" "$OUT_DIR/obs.tsv" "$OUT_DIR/gold.tsv" 2000 6 42 \
  | tee "$OUT_DIR/synth.log"
"$BUILD_DIR/fuser_cli" "$OUT_DIR/obs.tsv" "$OUT_DIR/gold.tsv" precrec-corr \
  --save="$OUT_DIR/snap.fsn" | tee "$OUT_DIR/train.log"
"$BUILD_DIR/fuser_cli" "$OUT_DIR/obs.tsv" "$OUT_DIR/gold.tsv" precrec-corr \
  --shards=2 --save="$OUT_DIR/snap2" | tee "$OUT_DIR/train2.log"
# Both shards must hold triples, or the sharded-vs-unsharded score check
# below would never merge two shards' counts.
shard_triples=$(tail -n 1 "$OUT_DIR/train2.log" \
  | sed -n 's/.*"shard_triples": \[\([^]]*\)\].*/\1/p')
if [ -z "$shard_triples" ] ||
   echo "$shard_triples" | tr ',' '\n' | grep -qx ' *0 *'; then
  echo "--shards=2 left a shard empty: shard_triples [$shard_triples]" >&2
  exit 1
fi

echo "== serve the snapshot and probe it"
"$BUILD_DIR/fuser_cli" --load="$OUT_DIR/snap.fsn" --serve=0 \
  > "$OUT_DIR/server.log" 2>&1 &
SERVER_PID=$!
PORT=$(wait_for_port "$OUT_DIR/server.log")
"$BUILD_DIR/fuser_cli" --client="$PORT" | tee "$OUT_DIR/client.log"
# The HOST:PORT form with an explicit positional method (the snapshot
# published only precrec-corr, so that is the one method servable here).
"$BUILD_DIR/fuser_cli" --client="127.0.0.1:$PORT" precrec-corr \
  | tee "$OUT_DIR/client_hostport.log"
# An unpublished method is a request-level error: the probe fails (exit 1)
# but must not take the server down.
rc=0
"$BUILD_DIR/fuser_cli" --client="$PORT" precrec >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 probing an unpublished method, got $rc" >&2
  exit 1
fi
"$BUILD_DIR/fuser_cli" --client="$PORT" >/dev/null  # server still serving
tail -n 1 "$OUT_DIR/client.log" | grep -q '"score_matches_batch": true' || {
  echo "client probe JSON missing score_matches_batch" >&2
  exit 1
}
# Unsharded is K=1: one engine shard behind the server.
tail -n 1 "$OUT_DIR/client.log" | grep -q '"shards": 1' || {
  echo "unsharded probe did not report 1 shard" >&2
  exit 1
}
stop_and_check "$SERVER_PID" "$OUT_DIR/server.log"

echo "== SIGTERM the instant the port line appears"
# The stop handlers are installed before the announcement, so a supervisor
# that signals on reading the port line gets a drained exit 0, never a
# default-action kill. The line is read straight off a FIFO with the shell
# builtin, so the signal follows the announcement within microseconds.
QUICK_FIFO="$OUT_DIR/server_quick.fifo"
for i in $(seq 1 20); do
  rm -f "$QUICK_FIFO"
  mkfifo "$QUICK_FIFO"
  "$BUILD_DIR/fuser_cli" --load="$OUT_DIR/snap.fsn" --serve=0 \
    > "$QUICK_FIFO" 2> "$OUT_DIR/server_quick.err" &
  SERVER_PID=$!
  exec 3< "$QUICK_FIFO"
  while IFS= read -r line <&3; do
    case "$line" in
      "listening on port "*) kill -TERM "$SERVER_PID"; break ;;
    esac
  done
  cat <&3 > "$OUT_DIR/server_quick.log"  # the drained server's summary
  exec 3<&-
  rc=0
  wait "$SERVER_PID" || rc=$?
  SERVER_PID=""
  if [ "$rc" -ne 0 ] ||
     ! tail -n 1 "$OUT_DIR/server_quick.log" | grep -q '"serve": true'; then
    echo "immediate SIGTERM #$i: exit $rc, not a drained exit 0" >&2
    cat "$OUT_DIR/server_quick.err" "$OUT_DIR/server_quick.log" >&2
    exit 1
  fi
done
rm -f "$QUICK_FIFO"

echo "== serve the sharded snapshot behind the same wire"
# --load takes the shard count from the snapshot's manifest.
"$BUILD_DIR/fuser_cli" --load="$OUT_DIR/snap2" --serve=0 \
  > "$OUT_DIR/server_sharded.log" 2>&1 &
SERVER_PID=$!
PORT=$(wait_for_port "$OUT_DIR/server_sharded.log")
"$BUILD_DIR/fuser_cli" --client="$PORT" | tee "$OUT_DIR/client_sharded.log"
tail -n 1 "$OUT_DIR/client_sharded.log" | grep -q '"shards": 2' || {
  echo "sharded probe did not report 2 shards" >&2
  exit 1
}
# Byte-identity across sharding, through the wire: the probe scores the
# same 8 triples either way.
unsharded=$(tail -n 1 "$OUT_DIR/client.log" \
  | sed -n 's/.*"probe_scores": \(\[[^]]*\]\).*/\1/p')
sharded=$(tail -n 1 "$OUT_DIR/client_sharded.log" \
  | sed -n 's/.*"probe_scores": \(\[[^]]*\]\).*/\1/p')
if [ -z "$unsharded" ] || [ "$unsharded" != "$sharded" ]; then
  echo "sharded probe scores diverged from unsharded:" >&2
  echo "  unsharded: $unsharded" >&2
  echo "  sharded:   $sharded" >&2
  exit 1
fi
stop_and_check "$SERVER_PID" "$OUT_DIR/server_sharded.log"

echo "== flag-misuse exit codes"
expect_exit2 "--serve without --load" --serve=0
expect_exit2 "--serve with --discover" --load="$OUT_DIR/snap.fsn" --serve=0 --discover
expect_exit2 "--serve with --stats" --load="$OUT_DIR/snap.fsn" --serve=0 --stats
expect_exit2 "--serve with --save" --load="$OUT_DIR/snap.fsn" --serve=0 --save=x
expect_exit2 "--serve with a bad port" --load="$OUT_DIR/snap.fsn" --serve=99999
expect_exit2 "--load with --shards" --load="$OUT_DIR/snap2" --shards=2 --serve=0
expect_exit2 "--shards with a non-shardable method" \
  "$OUT_DIR/obs.tsv" "$OUT_DIR/gold.tsv" cosine --shards=2
expect_exit2 "--client with another mode" --client=7001 --discover
expect_exit2 "--client with a bad port" --client=not-a-port
# --client against a closed port is a runtime failure (1), not misuse (2).
rc=0
"$BUILD_DIR/fuser_cli" --client=1 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for --client against a closed port, got $rc" >&2
  exit 1
fi

echo "net smoke OK"
