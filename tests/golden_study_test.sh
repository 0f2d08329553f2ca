#!/bin/sh
# Pins the bytes of the paper study. Runs `mysawh_cli study --seed 42
# --cv-folds 2` with checkpoints and telemetry three ways: plain, with every
# observability hook on (trace, metrics, status, audit), and on one thread.
# The three REPORT.md files, telemetry files and 12 checkpoints must be
# byte-identical, and their sha256 digests, plus the audit log's, must equal
# the committed list. A default `study --seed 42` must equal the committed
# REPORT.md.
#
#   golden_study_test.sh <mysawh_cli> <digests.sha256> <REPORT.md>
#
# The committed bytes come from GCC 12.2 (Debian bookworm), so ctest labels
# this test `golden`.
set -e
CLI="$1"
DIGESTS="$2"
REPORT="$3"
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

# study_cv2 <dir> [flags...]: one cv2 study writing into <dir>.
study_cv2() {
  dir="$1"
  shift
  mkdir "$dir"
  "$CLI" study --seed 42 --cv-folds 2 --out "$dir/REPORT.md" \
    --checkpoint-dir "$dir/ckpt" --telemetry-out "$dir/telemetry.jsonl" \
    "$@" > "$dir.log" 2>&1 || { cat "$dir.log" >&2; exit 1; }
}

study_cv2 plain
study_cv2 hooks --trace-out hooks.trace.json --metrics-out hooks.metrics.json \
  --status-out hooks.status.json --audit-out hooks/audit.bin
study_cv2 serial --threads 1

test "$(ls hooks/ckpt | wc -l)" -eq 12 || {
  echo "expected 12 checkpoints, found $(ls hooks/ckpt | wc -l)" >&2
  exit 1
}
for run in plain serial; do
  for file in REPORT.md telemetry.jsonl $(cd hooks && ls ckpt/*); do
    cmp "hooks/$file" "$run/$file" || {
      echo "$run/$file differs from the hooked run's" >&2
      exit 1
    }
  done
done
(cd hooks && sha256sum -c --quiet "$DIGESTS")

mkdir default
"$CLI" study --seed 42 --out default/REPORT.md > default.log 2>&1 || {
  cat default.log >&2
  exit 1
}
cmp "$REPORT" default/REPORT.md
echo "golden study test passed"
