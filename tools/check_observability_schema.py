#!/usr/bin/env python3
"""Schema checks for the observability artifacts the CLI writes.

Usage:
    check_observability_schema.py <trace.json> <metrics.json> <manifest.json>
                                  [telemetry.jsonl]
    check_observability_schema.py --status <status.json> [more heartbeats...]
    check_observability_schema.py --manifest <manifest.json>
    check_observability_schema.py --audit <audit.bin>

Validates, with stdlib only:
  * the trace file is Chrome trace-event JSON: a traceEvents array whose
    "X" events carry name/cat/ts/dur/pid/tid and nonnegative times;
  * the metrics file has the counters/gauges/histograms layout with sorted
    keys and structurally sound histograms (20 buckets summing to count);
  * the run manifest has the v1 schema fields, per-cell wall/cpu timings
    for all 12 study cells, data-quality profiles for every non-resumed
    cell, an embedded metrics snapshot, and — when present — a well-formed
    `final_status` heartbeat and `span_costs` cost table;
  * the telemetry file (when given) is mysawh-telemetry v1 JSONL: a header
    line with the stream count, streams in sorted label order, contiguous
    per-stream lines with monotonically increasing rounds, and "features"
    lines whose name/count/gain arrays align;
  * with --status: each file is one mysawh-status v1 heartbeat (monotonic
    seq, nonnegative uptime, resource sample, progress counters, study
    progress, queue depth, counter deltas, bounded event list), and the
    sequence numbers strictly increase across the files in argument order
    (how CI proves it captured distinct mid-run heartbeats);
  * the manifest's per-cell `drift` reports (PSI/KS stats, argmax
    summaries, alert list) and `calibration` entries (classification:
    Brier/ECE/reliability bins; regression: MAE + error quantiles),
    covering exactly the profiled (non-resumed) cells;
  * with --audit: the file is a checksummed mysawh-audit v1 artifact —
    the mysawh-artifact envelope's crc32/byte count match the payload,
    the header's record count matches the body, record lines are
    content-sorted, and every record carries its type's fields.

Exits 0 when everything holds, 1 with a message on the first violation.
"""

import json
import sys
import zlib

NUM_HISTOGRAM_BUCKETS = 20
EXPECTED_STUDY_CELLS = 12


def fail(message):
    print(f"schema check failed: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        trace = json.load(f)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail(f"{path}: missing traceEvents")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        fail(f"{path}: no complete ('X') events")
    last_ts = None
    for event in complete:
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in event:
                fail(f"{path}: event missing '{key}': {event}")
        if event["ts"] < 0 or event["dur"] < 0:
            fail(f"{path}: negative time in {event}")
        if last_ts is not None and event["ts"] < last_ts:
            fail(f"{path}: events not sorted by ts")
        last_ts = event["ts"]
    names = {e["name"] for e in complete}
    for expected in ("cli.study", "study.cell", "gbt.train"):
        if not any(n.startswith(expected) for n in names):
            fail(f"{path}: expected a span named like '{expected}*', "
                 f"have {sorted(names)[:10]}...")
    return len(complete)


def check_metrics_object(metrics, where):
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics or not isinstance(metrics[section], dict):
            fail(f"{where}: missing '{section}' object")
        keys = list(metrics[section].keys())
        if keys != sorted(keys):
            fail(f"{where}: {section} keys not sorted: {keys}")
    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{where}: counter {name} must be a nonnegative int")
    for name, value in metrics["gauges"].items():
        if not isinstance(value, int):
            fail(f"{where}: gauge {name} must be an int")
    for name, hist in metrics["histograms"].items():
        for key in ("count", "sum_us", "max_us", "buckets"):
            if key not in hist:
                fail(f"{where}: histogram {name} missing '{key}'")
        if len(hist["buckets"]) != NUM_HISTOGRAM_BUCKETS:
            fail(f"{where}: histogram {name} has {len(hist['buckets'])} "
                 f"buckets, want {NUM_HISTOGRAM_BUCKETS}")
        if sum(hist["buckets"]) != hist["count"]:
            fail(f"{where}: histogram {name} buckets sum "
                 f"{sum(hist['buckets'])} != count {hist['count']}")
    return len(metrics["counters"]) + len(metrics["gauges"]) + len(
        metrics["histograms"])


def check_metrics(path):
    with open(path) as f:
        metrics = json.load(f)
    n = check_metrics_object(metrics, path)
    required = (
        "file_io.writes",
        "gbt.predict.flat_blocks",
        "gbt.predict.flat_rows",
        "gbt.train.hist_nodes_direct",
        "study.cells_computed",
        "study.fits_computed",
        "thread_pool.tasks_dispatched",
    )
    for name in required:
        if name not in metrics["counters"]:
            fail(f"{path}: expected counter '{name}' after a study run")
    if "thread_pool.queue_depth" in metrics["gauges"]:
        if metrics["gauges"]["thread_pool.queue_depth"] != 0:
            fail(f"{path}: queue depth gauge must drain to 0 at exit")
    return n


def check_data_quality(quality, path):
    for name, profile in quality.items():
        for key in ("train_rows", "test_rows", "num_features", "outcome",
                    "features", "max_missing_train", "max_missing_feature",
                    "mean_bin_occupancy"):
            if key not in profile:
                fail(f"{path}: data_quality[{name}] missing '{key}'")
        if profile["train_rows"] <= 0 or profile["test_rows"] <= 0:
            fail(f"{path}: data_quality[{name}] has empty partitions")
        outcome = profile["outcome"]
        if not isinstance(outcome.get("classification"), bool):
            fail(f"{path}: data_quality[{name}] outcome.classification "
                 f"must be a bool")
        if outcome["classification"]:
            for key in ("positives_train", "positives_test"):
                if key not in outcome:
                    fail(f"{path}: data_quality[{name}] classification "
                         f"outcome missing '{key}'")
        features = profile["features"]
        if len(features) != profile["num_features"]:
            fail(f"{path}: data_quality[{name}] has {len(features)} "
                 f"feature profiles, claims {profile['num_features']}")
        for feature in features:
            for key in ("name", "missing_train", "missing_test",
                        "num_bins", "occupied_bins", "max_bin_count"):
                if key not in feature:
                    fail(f"{path}: data_quality[{name}] feature missing "
                         f"'{key}': {feature}")
            for key in ("missing_train", "missing_test"):
                if not 0.0 <= feature[key] <= 1.0:
                    fail(f"{path}: data_quality[{name}] "
                         f"{feature['name']}.{key} out of [0,1]")
            if feature["occupied_bins"] > feature["num_bins"]:
                fail(f"{path}: data_quality[{name}] {feature['name']} "
                     f"occupies more bins than it has")


def check_drift_stat(stat, where):
    for key in ("name", "psi", "ks", "missing", "rows"):
        if key not in stat:
            fail(f"{where}: drift stat missing '{key}': {stat}")
    for key in ("psi", "ks", "missing"):
        if stat[key] is not None and stat[key] < 0:
            fail(f"{where}: drift stat {stat['name']}.{key} negative")


def check_drift(drift, path):
    for name, report in drift.items():
        where = f"{path}: drift[{name}]"
        for key in ("rows", "max_psi", "max_psi_feature", "max_ks",
                    "max_ks_feature", "alerts", "prediction", "features"):
            if key not in report:
                fail(f"{where} missing '{key}'")
        if report["rows"] <= 0:
            fail(f"{where} has no rows")
        if not isinstance(report["alerts"], list):
            fail(f"{where} alerts must be a list")
        check_drift_stat(report["prediction"], where)
        for stat in report["features"]:
            check_drift_stat(stat, where)
        # The argmax summaries must point at a stat that exists.
        names = {s["name"] for s in report["features"]}
        names.add(report["prediction"]["name"])
        for key in ("max_psi_feature", "max_ks_feature"):
            if report[key] and report[key] not in names:
                fail(f"{where} {key}={report[key]!r} names no stat")
        for alert in report["alerts"]:
            if alert not in names:
                fail(f"{where} alert {alert!r} names no stat")


def check_calibration(calibration, path):
    for name, report in calibration.items():
        where = f"{path}: calibration[{name}]"
        kind = report.get("kind")
        if kind == "classification":
            for key in ("rows", "num_bins", "brier", "ece", "bins"):
                if key not in report:
                    fail(f"{where} missing '{key}'")
            if not 0.0 <= report["brier"] <= 1.0:
                fail(f"{where} brier out of [0,1]")
            if not 0.0 <= report["ece"] <= 1.0:
                fail(f"{where} ece out of [0,1]")
            if sum(b["count"] for b in report["bins"]) != report["rows"]:
                fail(f"{where} bin counts do not sum to rows")
            for bin_ in report["bins"]:
                for key in ("count", "mean_pred", "mean_obs"):
                    if key not in bin_:
                        fail(f"{where} bin missing '{key}': {bin_}")
        elif kind == "regression":
            for key in ("rows", "mae", "p50", "p90", "p99", "max"):
                if key not in report:
                    fail(f"{where} missing '{key}'")
            if not (report["p50"] <= report["p90"] <= report["p99"]
                    <= report["max"]):
                fail(f"{where} error quantiles not monotonic")
        else:
            fail(f"{where} unknown kind: {kind!r}")


def check_manifest(path):
    with open(path) as f:
        manifest = json.load(f)
    if manifest.get("schema") != "mysawh-run-manifest v1":
        fail(f"{path}: bad schema field: {manifest.get('schema')!r}")
    for key in ("git_describe", "fingerprint", "seed", "model_family",
                "cells", "data_quality", "drift", "calibration", "metrics"):
        if key not in manifest:
            fail(f"{path}: missing '{key}'")
    cells = manifest["cells"]
    if len(cells) != EXPECTED_STUDY_CELLS:
        fail(f"{path}: {len(cells)} cells, want {EXPECTED_STUDY_CELLS}")
    for name, timing in cells.items():
        for key in ("wall_ms", "cpu_ms", "resumed"):
            if key not in timing:
                fail(f"{path}: cell {name} missing '{key}'")
        if timing["wall_ms"] < 0 or timing["cpu_ms"] < 0:
            fail(f"{path}: cell {name} has negative timing")
        if not isinstance(timing["resumed"], bool):
            fail(f"{path}: cell {name} 'resumed' must be a bool")
    check_data_quality(manifest["data_quality"], path)
    # Resumed cells are restored from checkpointed metrics without their
    # train/test partitions, so only freshly computed cells are profiled.
    computed = {name for name, t in cells.items() if not t["resumed"]}
    if set(manifest["data_quality"]) != computed:
        fail(f"{path}: data_quality must cover exactly the non-resumed "
             f"cells ({sorted(computed)}), got "
             f"{sorted(manifest['data_quality'])}")
    # The model-quality post-pass scores the same freshly computed cells
    # the profiler sees (resumed cells carry no partitions to score).
    check_drift(manifest["drift"], path)
    check_calibration(manifest["calibration"], path)
    for block in ("drift", "calibration"):
        if set(manifest[block]) != computed:
            fail(f"{path}: {block} must cover exactly the non-resumed "
                 f"cells ({sorted(computed)}), got "
                 f"{sorted(manifest[block])}")
    check_metrics_object(manifest["metrics"], f"{path}:metrics")
    # Optional live-observability blocks (present on monitored / span-cost
    # runs only, but never malformed).
    if "final_status" in manifest:
        check_status_object(manifest["final_status"], f"{path}:final_status")
        if not manifest["final_status"]["final"]:
            fail(f"{path}: final_status must be marked final")
    if "span_costs" in manifest:
        check_span_costs(manifest["span_costs"], f"{path}:span_costs")
    return len(cells)


def check_status_object(status, where):
    if status.get("schema") != "mysawh-status v1":
        fail(f"{where}: bad schema field: {status.get('schema')!r}")
    for key in ("seq", "final", "uptime_ms", "interval_ms",
                "stall_timeout_ms", "resource", "progress", "study",
                "queue_depth", "counters_delta", "events"):
        if key not in status:
            fail(f"{where}: missing '{key}'")
    if not isinstance(status["seq"], int) or status["seq"] < 0:
        fail(f"{where}: seq must be a nonnegative int")
    if not isinstance(status["final"], bool):
        fail(f"{where}: final must be a bool")
    if status["uptime_ms"] < 0:
        fail(f"{where}: negative uptime_ms")
    resource = status["resource"]
    for key in ("rss_bytes", "peak_rss_bytes", "utime_ms", "stime_ms",
                "minor_faults", "major_faults", "threads", "valid"):
        if key not in resource:
            fail(f"{where}: resource missing '{key}'")
    if not isinstance(resource["valid"], bool):
        fail(f"{where}: resource.valid must be a bool")
    if resource["valid"] and resource["rss_bytes"] <= 0:
        fail(f"{where}: a valid resource sample must report RSS")
    for name, value in status["progress"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{where}: progress counter {name} must be a "
                 f"nonnegative int")
    study = status["study"]
    for key in ("cells_done", "cells_total", "fits_done", "fits_total"):
        if key not in study or study[key] < 0:
            fail(f"{where}: study.{key} must be a nonnegative int")
    if study["cells_total"] > 0 and study["cells_done"] > study["cells_total"]:
        fail(f"{where}: study claims more cells done than exist")
    if study["fits_total"] > 0 and study["fits_done"] > study["fits_total"]:
        fail(f"{where}: study claims more fits done than exist")
    if status["queue_depth"] < 0:
        fail(f"{where}: negative queue_depth")
    for name, delta in status["counters_delta"].items():
        if not isinstance(delta, int) or delta == 0:
            fail(f"{where}: counters_delta[{name}] must be a nonzero int")
    events = status["events"]
    if not isinstance(events, list) or len(events) > 8:
        fail(f"{where}: events must be a list of at most 8 entries")
    for event in events:
        kind = event.get("type")
        if kind == "stall":
            for key in ("at_uptime_ms", "silent_ms", "queue_depth",
                        "recent_spans"):
                if key not in event:
                    fail(f"{where}: stall event missing '{key}'")
            if not isinstance(event["recent_spans"], list):
                fail(f"{where}: stall recent_spans must be a list")
        elif kind == "drift":
            for key in ("window_rows", "max_psi", "max_psi_feature",
                        "max_ks", "max_ks_feature", "alerts"):
                if key not in event:
                    fail(f"{where}: drift event missing '{key}'")
            if not event["alerts"]:
                fail(f"{where}: a drift event must name its alerts")
        else:
            fail(f"{where}: unknown event type: {kind!r}")
    return status["seq"]


def check_status_files(paths):
    last_seq = None
    for path in paths:
        with open(path) as f:
            seq = check_status_object(json.load(f), path)
        if last_seq is not None and seq <= last_seq:
            fail(f"{path}: seq {seq} does not advance past {last_seq} — "
                 f"heartbeats must be distinct and in order")
        last_seq = seq
    return len(paths)


def check_span_costs(costs, where):
    for key in ("by_cpu", "by_bytes"):
        if key not in costs or not isinstance(costs[key], list):
            fail(f"{where}: span_costs missing '{key}' list")
        for entry in costs[key]:
            for field in ("name", "count", "cpu_us", "alloc_bytes"):
                if field not in entry:
                    fail(f"{where}: span_costs entry missing '{field}': "
                         f"{entry}")
            if entry["count"] <= 0 or entry["cpu_us"] < 0:
                fail(f"{where}: span_costs entry out of range: {entry}")
        ranks = [e["cpu_us" if key == "by_cpu" else "alloc_bytes"]
                 for e in costs[key]]
        if ranks != sorted(ranks, reverse=True):
            fail(f"{where}: span_costs.{key} not sorted descending")


def check_audit(path):
    with open(path, "rb") as f:
        blob = f.read()
    newline = blob.find(b"\n")
    if newline < 0:
        fail(f"{path}: no envelope line")
    envelope = blob[:newline].decode("ascii", errors="replace")
    payload = blob[newline + 1:]
    fields = envelope.split(" ")
    if (len(fields) != 4 or fields[0] != "mysawh-artifact"
            or fields[1] != "v1" or not fields[2].startswith("crc32=")
            or not fields[3].startswith("bytes=")):
        fail(f"{path}: bad envelope line: {envelope!r}")
    if int(fields[3][6:]) != len(payload):
        fail(f"{path}: envelope claims {fields[3][6:]} payload bytes, "
             f"file has {len(payload)}")
    crc = f"{zlib.crc32(payload) & 0xffffffff:08x}"
    if fields[2][6:] != crc:
        fail(f"{path}: envelope crc {fields[2][6:]} != payload crc {crc}")
    lines = payload.decode("utf-8").splitlines()
    if not lines:
        fail(f"{path}: empty audit payload")
    header = json.loads(lines[0])
    if header.get("schema") != "mysawh-audit v1":
        fail(f"{path}: bad schema line: {lines[0][:80]}")
    if header.get("sample_rate", 0) < 1 or header.get("top_k", 0) < 1:
        fail(f"{path}: invalid sampling options in header")
    records = lines[1:]
    if header.get("records") != len(records):
        fail(f"{path}: header claims {header.get('records')} records, "
             f"body has {len(records)}")
    if records != sorted(records):
        fail(f"{path}: record lines not content-sorted")
    for i, line in enumerate(records, start=2):
        record = json.loads(line)
        for key in ("type", "fp", "model", "features"):
            if key not in record:
                fail(f"{path}:{i}: record missing '{key}'")
        for key in ("fp", "model"):
            int(record[key], 16)
        if record["type"] == "predict":
            if "prediction" not in record:
                fail(f"{path}:{i}: predict record lacks a prediction")
        elif record["type"] == "shap":
            shap = record.get("shap")
            if not isinstance(shap, list):
                fail(f"{path}:{i}: shap record lacks attributions")
            if len(shap) > header["top_k"]:
                fail(f"{path}:{i}: {len(shap)} attributions exceed "
                     f"top_k {header['top_k']}")
            for entry in shap:
                if "i" not in entry or "v" not in entry:
                    fail(f"{path}:{i}: malformed attribution: {entry}")
        else:
            fail(f"{path}:{i}: unknown record type: {record['type']!r}")
    return len(records)


def check_telemetry(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line]
    if not lines:
        fail(f"{path}: empty telemetry file")
    header = json.loads(lines[0])
    if header.get("schema") != "mysawh-telemetry v1":
        fail(f"{path}: bad schema line: {lines[0][:80]}")
    stream_order = []
    rounds = {}
    for i, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            fail(f"{path}:{i}: not JSON: {error}")
        stream = entry.get("stream")
        kind = entry.get("type")
        if not stream or not kind:
            fail(f"{path}:{i}: line lacks stream/type")
        if stream not in stream_order:
            stream_order.append(stream)
        elif stream != stream_order[-1]:
            fail(f"{path}:{i}: stream '{stream}' lines not contiguous")
        if kind == "round":
            expected = rounds.get(stream, 0)
            if entry.get("round") != expected:
                fail(f"{path}:{i}: stream '{stream}' round "
                     f"{entry.get('round')}, want {expected}")
            rounds[stream] = expected + 1
        elif kind == "features":
            names = entry.get("names", [])
            counts = entry.get("split_counts", [])
            gains = entry.get("split_gains", [])
            if not (len(names) == len(counts) == len(gains)):
                fail(f"{path}:{i}: features arrays misaligned "
                     f"({len(names)}/{len(counts)}/{len(gains)})")
    if header.get("streams") != len(stream_order):
        fail(f"{path}: header claims {header.get('streams')} streams, "
             f"file has {len(stream_order)}")
    if stream_order != sorted(stream_order):
        fail(f"{path}: streams not in sorted label order")
    return len(stream_order)


def main(argv):
    if len(argv) >= 3 and argv[1] == "--status":
        n = check_status_files(argv[2:])
        print(f"ok: {n} status heartbeats")
        return 0
    if len(argv) == 3 and argv[1] == "--manifest":
        cells = check_manifest(argv[2])
        print(f"ok: {cells} manifest cells")
        return 0
    if len(argv) == 3 and argv[1] == "--audit":
        n = check_audit(argv[2])
        print(f"ok: {n} audit records")
        return 0
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    events = check_trace(argv[1])
    instruments = check_metrics(argv[2])
    cells = check_manifest(argv[3])
    summary = (f"ok: {events} trace events, {instruments} instruments, "
               f"{cells} manifest cells")
    if len(argv) == 5:
        streams = check_telemetry(argv[4])
        summary += f", {streams} telemetry streams"
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
