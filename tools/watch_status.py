#!/usr/bin/env python3
"""Tail a live mysawh run through its status.json heartbeat file.

Usage:
    watch_status.py <status.json> [--poll-ms 250] [--once]

Point it at the file a running `mysawh_cli ... --status-out FILE` rewrites
(atomic rename, so a read never sees a torn document) and it prints one
line per new heartbeat:

    seq    5  up   5.2s  rss  312.4MB  cpu  18.3s  study  7/12  queue  3

Stall and drift events are surfaced as they appear. Exits when the run
writes its final heartbeat, or on Ctrl-C. Stdlib only.
"""

import argparse
import json
import sys
import time


def fmt_bytes(n):
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024 or unit == "TB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}TB"


def render(status):
    resource = status.get("resource", {})
    study = status.get("study", {})
    cpu_s = (resource.get("utime_ms", 0) + resource.get("stime_ms", 0)) / 1e3
    line = (f"seq {status.get('seq', '?'):>4}  "
            f"up {status.get('uptime_ms', 0) / 1e3:>7.1f}s  "
            f"rss {fmt_bytes(resource.get('rss_bytes', 0)):>9}  "
            f"cpu {cpu_s:>7.1f}s  "
            f"threads {resource.get('threads', 0):>3}  "
            f"queue {status.get('queue_depth', 0):>4}")
    total = study.get("cells_total", 0)
    if total:
        line += f"  study {study.get('cells_done', 0)}/{total}"
        fits = study.get("fits_total", 0)
        if fits:
            line += f" cells, {study.get('fits_done', 0)}/{fits} fits"
    if status.get("final"):
        line += "  [final]"
    return line


def render_event(event):
    kind = event.get("type")
    if kind == "drift":
        alerts = ",".join(event.get("alerts", []))
        return (f"drift: {event.get('window_rows', '?')} rows, "
                f"max PSI {event.get('max_psi', 0):.3f} "
                f"({event.get('max_psi_feature', '?')}), "
                f"max KS {event.get('max_ks', 0):.3f} "
                f"({event.get('max_ks_feature', '?')}), alerts [{alerts}]")
    return (f"{kind}: silent {event.get('silent_ms', '?')}ms, queue "
            f"{event.get('queue_depth', '?')}, last spans "
            f"{event.get('recent_spans', [])}")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("status_file", help="path written by --status-out")
    parser.add_argument("--poll-ms", type=int, default=250,
                        help="poll period in milliseconds (default 250)")
    parser.add_argument("--once", action="store_true",
                        help="print the current heartbeat and exit")
    args = parser.parse_args(argv[1:])

    last_seq = None
    seen_events = 0
    try:
        while True:
            try:
                with open(args.status_file) as f:
                    status = json.load(f)
            except (FileNotFoundError, json.JSONDecodeError):
                # Not written yet (or mid-rename on exotic filesystems):
                # keep polling, the writer is atomic.
                status = None
            if status is not None and status.get("seq") != last_seq:
                last_seq = status.get("seq")
                print(render(status), flush=True)
                events = status.get("events", [])
                for event in events[seen_events:]:
                    print(f"  !! {render_event(event)}", flush=True)
                seen_events = len(events)
                if status.get("final"):
                    return 0
            if args.once:
                return 0 if status is not None else 1
            time.sleep(max(args.poll_ms, 10) / 1e3)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv))
