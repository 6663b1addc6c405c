#!/usr/bin/env bash
# cli_resume.sh — the CLI's checkpoint/resume round trip, without a kill.
#
# Runs `neutral -steps 3 -checkpoint f` in the background, copies the
# checkpoint aside once a step boundary has written one (writes are atomic,
# so the copy is a complete snapshot; the run removes its own file when it
# finishes), lets the run finish, resumes a second run from the copy, and
# diffs what the two print about the physics — tally total, event counters,
# population — against an uninterrupted run. All three must agree.
#
# Usage: scripts/cli_resume.sh [neutral flags...]
set -euo pipefail
cd "$(dirname "$0")/.."

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
BIN="$DIR/neutral"
go build -o "$BIN" ./cmd/neutral
# Long enough per step that the copy below lands between the first boundary
# and the end of the run on any runner.
ARGS=(-problem csp -nx 256 -particles 200000 -steps 3 -seed 7 "$@")

# physics keeps the lines that must not depend on how the run was executed.
physics() { grep -E '^(problem|events|per particle|memory ops|population|energy) ' "$1"; }

"$BIN" "${ARGS[@]}" > "$DIR/full.txt"

"$BIN" "${ARGS[@]}" -checkpoint "$DIR/run.ckpt" > "$DIR/checkpointed.txt" &
RUN=$!
while kill -0 "$RUN" 2>/dev/null && ! cp "$DIR/run.ckpt" "$DIR/kept.ckpt" 2>/dev/null; do
  sleep 0.02
done
wait "$RUN"
if [ ! -s "$DIR/kept.ckpt" ]; then
  echo "FAIL: the run finished before a checkpoint could be copied" >&2
  exit 1
fi

"$BIN" "${ARGS[@]}" -checkpoint "$DIR/kept.ckpt" -resume > "$DIR/resumed.txt" 2> "$DIR/resumed.err"
grep -q 'resumed from' "$DIR/resumed.err" || { echo "FAIL: second run did not resume" >&2; cat "$DIR/resumed.err" >&2; exit 1; }

for run in checkpointed resumed; do
  if ! diff <(physics "$DIR/full.txt") <(physics "$DIR/$run.txt"); then
    echo "FAIL: $run run differs from the uninterrupted one" >&2
    exit 1
  fi
done
sed 's/^neutral: //' "$DIR/resumed.err"
physics "$DIR/full.txt" | grep '^energy'
echo "PASS: checkpointed and resumed runs print the uninterrupted physics"
