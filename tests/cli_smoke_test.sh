#!/bin/sh
# End-to-end smoke test of mysawh_cli: generate -> train -> predict ->
# evaluate -> explain -> importance, verifying outputs exist and the
# pipeline round-trips through CSV and the model file — for every model
# family — plus the documented exit-code contract (0 ok / 1 runtime
# failure / 2 usage error).
set -e
CLI="$1"
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

# Captures the exit code of a command without tripping `set -e`.
code_of() {
  code=0
  "$@" > /dev/null 2>&1 || code=$?
}

# --- exit-code contract ---------------------------------------------------
code_of "$CLI" help
test "$code" -eq 0 || { echo "help must exit 0, got $code" >&2; exit 1; }

code_of "$CLI"
test "$code" -eq 2 || { echo "no command must exit 2, got $code" >&2; exit 1; }

code_of "$CLI" bogus
test "$code" -eq 2 || { echo "unknown command must exit 2, got $code" >&2; exit 1; }

# Malformed flags (repeated) are a usage error.
code_of "$CLI" train --seed 1 --seed 2
test "$code" -eq 2 || { echo "bad flags must exit 2, got $code" >&2; exit 1; }

# A well-formed command that fails at runtime exits 1.
code_of "$CLI" predict --model does_not_exist.model --data nope.csv
test "$code" -eq 1 || { echo "runtime failure must exit 1, got $code" >&2; exit 1; }

# --- GBT pipeline ---------------------------------------------------------
"$CLI" generate --outcome SPPB --seed 7 --out-prefix smoke_ | grep -q "retained"
test -f smoke_dd_fi.csv
test -f smoke_kd.csv

"$CLI" train --data smoke_dd_fi.csv --num-trees 25 --out smoke.model \
  | grep -q "trained 25 trees"
test -f smoke.model
grep -q "^kind: gbt$" smoke.model

"$CLI" predict --model smoke.model --data smoke_dd_fi.csv --out preds.csv
test -f preds.csv
# Header plus one line per sample.
rows=$(wc -l < preds.csv)
test "$rows" -gt 1000

"$CLI" evaluate --model smoke.model --data smoke_dd_fi.csv | grep -q "1-MAPE"
"$CLI" explain --model smoke.model --data smoke_dd_fi.csv --row 2 --top 3 \
  | grep -q "prediction="
"$CLI" importance --model smoke.model --type gain | grep -q "fi_baseline"

# --- linear and GAM families through the same registry --------------------
"$CLI" train --data smoke_dd_fi.csv --model_family linear --out smoke_linear.model \
  | grep -q "trained a linear model"
grep -q "^kind: linear$" smoke_linear.model
"$CLI" predict --model smoke_linear.model --data smoke_dd_fi.csv --out preds_linear.csv
test "$(wc -l < preds_linear.csv)" -eq "$rows"
"$CLI" evaluate --model smoke_linear.model --data smoke_dd_fi.csv | grep -q "1-MAPE"

"$CLI" train --data smoke_dd_fi.csv --model_family gam --num-cycles 5 \
  --out smoke_gam.model | grep -q "shape-function trees"
grep -q "^kind: gam$" smoke_gam.model
"$CLI" predict --model smoke_gam.model --data smoke_dd_fi.csv --out preds_gam.csv
test "$(wc -l < preds_gam.csv)" -eq "$rows"

# SHAP explanations stay tree-only: a clean failure, not a crash.
code_of "$CLI" explain --model smoke_linear.model --data smoke_dd_fi.csv
test "$code" -eq 1 || { echo "explain on linear must exit 1, got $code" >&2; exit 1; }

# --- corrupt input is detected and rejected with exit 2, never a crash ----
# A truncated model file fails its CRC32 envelope check (kDataLoss).
head -c "$(( $(wc -c < smoke.model) / 2 ))" smoke.model > truncated.model
code_of "$CLI" evaluate --model truncated.model --data smoke_dd_fi.csv
test "$code" -eq 2 || { echo "truncated model must exit 2, got $code" >&2; exit 1; }

# Trailing garbage breaks the envelope's byte count, too.
{ cat smoke.model; printf 'trailing garbage'; } > padded.model
code_of "$CLI" predict --model padded.model --data smoke_dd_fi.csv
test "$code" -eq 2 || { echo "padded model must exit 2, got $code" >&2; exit 1; }

# A malformed CSV (ragged row) is an invalid-input error (kInvalidArgument).
printf 'a,b\n1,2\n3,4,5\n' > malformed.csv
code_of "$CLI" predict --model smoke.model --data malformed.csv
test "$code" -eq 2 || { echo "malformed csv must exit 2, got $code" >&2; exit 1; }

# Header-less model text over features a..d that the compiled forest
# cannot hold, or that contradicts itself, is rejected at load (exit 2)
# instead of being served; the same text with zero trees predicts.
printf 'a,b,c,d\n0.1,0.2,0.3,0.4\n' > four.csv
model_head() {
  printf 'mysawh-gbt v1\nobjective reg:squarederror\nbase_score 0\n'
  printf 'best_iteration 0\nnum_features 4\nfeature a\nfeature b\nfeature c\nfeature d\n'
}
{ model_head; printf 'num_trees 0\n'; } > no_trees.model
"$CLI" predict --model no_trees.model --data four.csv --out no_trees.csv > /dev/null
{ model_head; printf 'num_trees -4\n'; } > negative_trees.model
code_of "$CLI" predict --model negative_trees.model --data four.csv
test "$code" -eq 2 || { echo "negative num_trees must exit 2, got $code" >&2; exit 1; }
# 300 stumps on feature a with 300 distinct thresholds (1.0 plus t ulps):
# more than the 254 a byte-wide bin encodes.
{
  model_head
  printf 'num_trees 300\n'
  t=0
  while [ "$t" -lt 300 ]; do
    printf 'tree 3\n1 2 0 %x 1 0 0 4000000000000000\n' $((0x3ff0000000000000 + t))
    printf -- '-1 -1 -1 0 1 0 0 3ff0000000000000\n-1 -1 -1 0 1 0 0 3ff0000000000000\n'
    t=$((t + 1))
  done
} > wide_thresholds.model
code_of "$CLI" predict --model wide_thresholds.model --data four.csv
test "$code" -eq 2 || { echo "300 thresholds on one feature must exit 2, got $code" >&2; exit 1; }

# --- failpoints arm from the environment ----------------------------------
# A failed save is a runtime failure (exit 1) that leaves no model file.
code=0
MYSAWH_FAILPOINTS="model_save/rename=once" "$CLI" train --data smoke_dd_fi.csv \
  --num-trees 5 --out never.model > /dev/null 2>&1 || code=$?
test "$code" -eq 1 || { echo "failed model save must exit 1, got $code" >&2; exit 1; }
test ! -f never.model || { echo "failed model save left never.model" >&2; exit 1; }

# --- study checkpoint/resume ----------------------------------------------
# Not run here (a full 12-cell study is too slow for the smoke test); the
# resume contract is covered by tests/checkpoint_resume_test.cc, and the
# --resume flag contract is cheap to check:
code_of "$CLI" study --resume
test "$code" -eq 2 || { echo "--resume without dir must exit 2, got $code" >&2; exit 1; }

# --- unwritable artifact paths fail fast with exit 2 ----------------------
# The observability flags probe their destinations before the command runs,
# so a bad path is a usage error up front, not data loss at the end.
for flag in --trace-out --metrics-out --telemetry-out --audit-out --drift-baseline-out; do
  code_of "$CLI" evaluate "$flag" /does/not/exist/artifact.json
  test "$code" -eq 2 || { echo "$flag to a bad path must exit 2, got $code" >&2; exit 1; }
done

# --- telemetry artifact and the report dashboard --------------------------
"$CLI" train --data smoke_dd_fi.csv --num-trees 25 --out smoke2.model \
  --telemetry-out smoke.telemetry.jsonl | grep -q "wrote telemetry (1 streams)"
test -f smoke.telemetry.jsonl
head -1 smoke.telemetry.jsonl | grep -q '"schema":"mysawh-telemetry v1"'
grep -q '"stream":"train","type":"round","round":24' smoke.telemetry.jsonl
grep -q '"type":"features"' smoke.telemetry.jsonl

# Telemetry recording never changes what is trained.
cmp smoke.model smoke2.model || { echo "telemetry changed the model" >&2; exit 1; }

"$CLI" report --telemetry smoke.telemetry.jsonl --out smoke_dash.md \
  | grep -q "wrote dashboard"
grep -q "Learning curves" smoke_dash.md
grep -q "| train |" smoke_dash.md

# report needs at least one input, and rejects non-artifact files, as
# usage errors.
code_of "$CLI" report
test "$code" -eq 2 || { echo "report without inputs must exit 2, got $code" >&2; exit 1; }
code_of "$CLI" report --manifest smoke_dd_fi.csv
test "$code" -eq 2 || { echo "report on a CSV must exit 2, got $code" >&2; exit 1; }

# --- live-run status heartbeats -------------------------------------------
# A monitored run writes a final mysawh-status v1 heartbeat and, above all,
# trains exactly the same model as an unmonitored run.
"$CLI" train --data smoke_dd_fi.csv --num-trees 25 --out smoke3.model \
  --status-out smoke_status.json --status-interval-ms 20 \
  | grep -q "status heartbeats"
test -f smoke_status.json
grep -q '"schema":"mysawh-status v1"' smoke_status.json
grep -q '"final":true' smoke_status.json
cmp smoke.model smoke3.model || { echo "monitoring changed the model" >&2; exit 1; }

# The tailer reads the final heartbeat and exits cleanly.
if command -v python3 > /dev/null 2>&1; then
  SCRIPT_DIR=$(dirname "$0")
  python3 "$SCRIPT_DIR/../tools/watch_status.py" smoke_status.json --once \
    | grep -q "final" || { echo "watch_status.py missed the final heartbeat" >&2; exit 1; }
fi

# Observability flag contract: dependent flags are usage errors when their
# prerequisite is absent, and status paths are probed up front.
code_of "$CLI" evaluate --status-out /does/not/exist/status.json
test "$code" -eq 2 || { echo "bad --status-out must exit 2, got $code" >&2; exit 1; }
code_of "$CLI" train --data smoke_dd_fi.csv --span-costs --out x.model
test "$code" -eq 2 || { echo "--span-costs without --trace-out must exit 2, got $code" >&2; exit 1; }
code_of "$CLI" train --data smoke_dd_fi.csv --stall-timeout-ms 100 --out x.model
test "$code" -eq 2 || { echo "--stall-timeout-ms without --status-out must exit 2, got $code" >&2; exit 1; }
code_of "$CLI" train --data smoke_dd_fi.csv --status-interval-ms banana \
  --status-out s.json --out x.model
test "$code" -eq 2 || { echo "malformed --status-interval-ms must exit 2, got $code" >&2; exit 1; }

# --- model-quality observability: drift, calibration, audit ---------------
# Training can emit a drift baseline; evaluating the same cohort against it
# with a full-size window is self-evaluation and must stay clean — and
# capturing the baseline must not change the trained model. Sampling is
# pinned to 1: the exactly-clean property holds for the full population,
# while a subsample carries sampling noise by design.
"$CLI" train --data smoke_dd_fi.csv --num-trees 25 --out smoke4.model \
  --drift-baseline-out smoke_drift.json | grep -q "wrote drift baseline"
test -f smoke_drift.json
grep -q '"schema":"mysawh-drift-baseline v1"' smoke_drift.json
cmp smoke.model smoke4.model || { echo "baseline capture changed the model" >&2; exit 1; }
"$CLI" evaluate --model smoke4.model --data smoke_dd_fi.csv \
  --drift-baseline smoke_drift.json --drift-window 100000 --drift-sample-rate 1 \
  | grep -q "drift monitor: 1 window(s), 0 alert(s)"
# The regression evaluator reports absolute-error quantiles.
"$CLI" evaluate --model smoke.model --data smoke_dd_fi.csv \
  | grep -q "abs error quantiles:"

# An audited prediction run logs a deterministic sample and never changes
# the predictions themselves.
"$CLI" predict --model smoke.model --data smoke_dd_fi.csv --out preds_audited.csv \
  --audit-out smoke_audit.bin --audit-sample-rate 4 | grep -q "wrote audit log"
test -f smoke_audit.bin
cmp preds.csv preds_audited.csv || { echo "auditing changed predictions" >&2; exit 1; }

# audit-replay re-runs the logged rows and must match bit-for-bit — twice,
# with identical replay tables.
"$CLI" audit-replay --audit smoke_audit.bin --model smoke.model --out replay1.csv \
  | grep -q "all match"
"$CLI" audit-replay --audit smoke_audit.bin --model smoke.model --out replay2.csv > /dev/null
cmp replay1.csv replay2.csv || { echo "replay is not deterministic" >&2; exit 1; }

# Replaying against a different model is a runtime failure (exit 1): the
# log's model fingerprint no longer matches.
"$CLI" train --data smoke_dd_fi.csv --num-trees 5 --out smoke_small.model > /dev/null
code_of "$CLI" audit-replay --audit smoke_audit.bin --model smoke_small.model
test "$code" -eq 1 || { echo "wrong-model replay must exit 1, got $code" >&2; exit 1; }

# A truncated audit log fails its checksum envelope (exit 2).
head -c "$(( $(wc -c < smoke_audit.bin) / 2 ))" smoke_audit.bin > truncated.audit
code_of "$CLI" audit-replay --audit truncated.audit --model smoke.model
test "$code" -eq 2 || { echo "truncated audit log must exit 2, got $code" >&2; exit 1; }

# --- report degrades gracefully on sparse manifests -----------------------
# A manifest from an older pipeline (no cells / data_quality / telemetry
# blocks) must render with warnings, not fail: exit 0, warning on stderr.
printf '{"schema":"mysawh-run-manifest v1","git_describe":"none","fingerprint":"f0","seed":1,"eval_seed":2,"model_family":"gbt","cells":{},"data_quality":{},"metrics":{"counters":{},"gauges":{},"histograms":{}}}\n' > sparse_manifest.json
code=0
"$CLI" report --manifest sparse_manifest.json --out sparse_dash.md 2> sparse_warnings.txt || code=$?
test "$code" -eq 0 || { echo "sparse manifest must exit 0, got $code" >&2; exit 1; }
test -f sparse_dash.md
grep -q "warning:" sparse_warnings.txt || { echo "sparse manifest must warn on stderr" >&2; exit 1; }
# Manifests that predate the drift/calibration blocks skip those sections
# with a warning each, rather than failing.
grep -q "no drift block" sparse_warnings.txt || { echo "missing drift-block warning" >&2; exit 1; }
grep -q "no calibration block" sparse_warnings.txt || { echo "missing calibration-block warning" >&2; exit 1; }
grep -q "Provenance" sparse_dash.md

# A latency histogram holding a value that is not a whole number (here one
# far outside int64) is skipped with a warning; the others still render.
printf '{"schema":"mysawh-run-manifest v1","git_describe":"none","fingerprint":"f0","seed":1,"eval_seed":2,"model_family":"gbt","cells":{},"data_quality":{},"metrics":{"counters":{},"gauges":{},"histograms":{"huge":{"count":3,"buckets":[1,2],"max_us":1e300},"fine":{"count":3,"buckets":[1,2],"max_us":1}}}}\n' > huge_manifest.json
code=0
"$CLI" report --manifest huge_manifest.json --out huge_dash.md 2> huge_warnings.txt || code=$?
test "$code" -eq 0 || { echo "report on a huge max_us must exit 0, got $code" >&2; exit 1; }
grep -q "histogram huge holds a value that is not a whole number" huge_warnings.txt \
  || { echo "missing warning for the malformed histogram" >&2; exit 1; }
grep -q "| fine |" huge_dash.md || { echo "the well-formed histogram must render" >&2; exit 1; }
if grep -q "| huge |" huge_dash.md; then
  echo "the malformed histogram must not render" >&2
  exit 1
fi

echo "cli smoke test passed"
