#!/usr/bin/env bash
# Kill-and-resume smoke test for the repro harness.
#
# Starts a checkpointed `repro` run, SIGKILLs it mid-campaign, resumes it
# from the same checkpoint directory, and diffs the resumed output against
# an uninterrupted clean run. The two must be byte-identical: checkpoints
# are digest-verified and only deterministic artifacts persist, so a kill
# at any point costs at most the cell in flight. Then checks that a
# checkpoint written under one --pfs-profile is not replayed under
# another: checkpoints are keyed by every input, so the resume recomputes.
#
# Usage: scripts/kill_resume_smoke.sh [path-to-repro-binary]
set -euo pipefail

REPRO="${1:-target/release/repro}"
EXPERIMENTS=(table1 fig5 fig6 campaign)
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ioeval-kill-resume.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

if [[ ! -x "$REPRO" ]]; then
    echo "kill_resume_smoke: building repro ..." >&2
    cargo build --release -p bench --bin repro
fi

echo "== 1/4 clean reference run ==" >&2
"$REPRO" --scale quick --out "$WORK/clean.txt" "${EXPERIMENTS[@]}" >/dev/null

echo "== 2/4 checkpointed run, killed mid-campaign ==" >&2
"$REPRO" --scale quick --checkpoint "$WORK/ckpt" \
    --out "$WORK/interrupted.txt" "${EXPERIMENTS[@]}" >/dev/null 2>"$WORK/run1.log" &
PID=$!
# Give it long enough to start real work and persist some checkpoints,
# then kill it the hard way (no cleanup handlers run).
for _ in $(seq 1 100); do
    if compgen -G "$WORK/ckpt/*.json" >/dev/null; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    echo "   killed pid $PID with $(ls "$WORK/ckpt" 2>/dev/null | wc -l) checkpoint files" >&2
else
    # The quick run can finish before the kill lands on fast machines;
    # the resume path below is still exercised (full replay from disk).
    wait "$PID" 2>/dev/null || true
    echo "   run finished before the kill; resume will replay from checkpoints" >&2
fi

echo "== 3/4 resume from checkpoint ==" >&2
"$REPRO" --scale quick --resume "$WORK/ckpt" \
    --out "$WORK/resumed.txt" "${EXPERIMENTS[@]}" >/dev/null

if ! diff -u "$WORK/clean.txt" "$WORK/resumed.txt" >"$WORK/diff.txt"; then
    echo "FAIL: resumed output differs from the uninterrupted run:" >&2
    head -50 "$WORK/diff.txt" >&2
    exit 1
fi
echo "   resumed output is byte-identical to the uninterrupted run" >&2

echo "== 4/4 resume under another --pfs-profile recomputes ==" >&2
"$REPRO" --scale quick --checkpoint "$WORK/ckpt-pfs" \
    --out "$WORK/pfs-full.txt" resilience >/dev/null 2>&1
"$REPRO" --scale quick --resume "$WORK/ckpt-pfs" --pfs-profile none \
    --out "$WORK/pfs-resumed.txt" resilience >/dev/null 2>&1
"$REPRO" --scale quick --pfs-profile none \
    --out "$WORK/pfs-fresh.txt" resilience >/dev/null 2>&1
if cmp -s "$WORK/pfs-full.txt" "$WORK/pfs-fresh.txt"; then
    echo "FAIL: --pfs-profile none renders like full; the check proves nothing" >&2
    exit 1
fi
if ! diff -u "$WORK/pfs-fresh.txt" "$WORK/pfs-resumed.txt" >"$WORK/diff-pfs.txt"; then
    echo "FAIL: resume under --pfs-profile none replayed a stale checkpoint:" >&2
    head -50 "$WORK/diff-pfs.txt" >&2
    exit 1
fi
echo "OK: resumes are byte-identical and never replay stale inputs" >&2
