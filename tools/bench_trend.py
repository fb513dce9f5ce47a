#!/usr/bin/env python3
"""Fold per-commit bench JSON artifacts into a markdown trend table.

Each input is one "asmcap-bench-v1" report (the --json output of
bench_batch / bench_sharded / bench_service). Reports are grouped by
bench; within a bench, each report becomes one row labelled by its
parent directory (the natural layout when CI downloads one artifact
directory per commit: trend/<sha>/bench_sharded.json), falling back to
the file stem when the parent is uninformative.

  tools/bench_trend.py [--output trend.md] report.json [...]

The table carries the headline speedup, every timed path's throughput,
the decision digest (so a digest drift is visible in the trend, not just
in the gate), and any metrics the report carries (e.g. bench_service's
mixed_digest_matches / interactive_p99_speedup). Reports with an unknown schema are
skipped with a warning rather than failing the run: a trend table should
degrade, not break, when an old artifact lingers.
"""

import argparse
import json
import os
import sys

SCHEMA = "asmcap-bench-v1"


def label_for(path):
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    stem = os.path.splitext(os.path.basename(path))[0]
    # A per-commit artifact directory names the run; a flat pile of files
    # falls back to the file name.
    if parent and parent not in ("", ".", "bench-json", "build"):
        return parent
    return stem


def load_reports(paths):
    reports = []
    for path in paths:
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"WARN: skipping {path}: {err}", file=sys.stderr)
            continue
        if report.get("schema") != SCHEMA:
            print(f"WARN: skipping {path}: schema "
                  f"{report.get('schema')!r} != {SCHEMA!r}", file=sys.stderr)
            continue
        report["_label"] = label_for(path)
        reports.append(report)
    return reports


def fmt(value):
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return str(value)


def bench_table(bench, reports):
    # Column set = union over the group, so runs that predate a metric
    # still line up (missing cells render as em-dashes).
    timing_paths, metric_names = [], []
    for report in reports:
        for timing in report.get("timings", []):
            if timing["path"] not in timing_paths:
                timing_paths.append(timing["path"])
        for name in report.get("metrics", {}):
            if name not in metric_names:
                metric_names.append(name)

    header = (["run", "tier", "threads", "speedup"] +
              [f"{path} reads/s" for path in timing_paths] +
              metric_names + ["digest"])
    lines = [f"### {bench}", "",
             "| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for report in reports:
        throughput = {t["path"]: t.get("reads_per_second", 0.0)
                      for t in report.get("timings", [])}
        metrics = report.get("metrics", {})
        row = [report["_label"],
               report.get("kernel_tier", "?"),
               fmt(report.get("hardware_threads", 0)),
               fmt(report.get("speedup", 0.0)) + "x"]
        row += [fmt(throughput[p]) if p in throughput else "—"
                for p in timing_paths]
        row += [fmt(metrics[n]) if n in metrics else "—"
                for n in metric_names]
        row.append(f"`{report.get('decision_digest', '?')}`")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", help="write markdown here (default "
                        "stdout)")
    parser.add_argument("reports", nargs="+")
    opts = parser.parse_args()

    reports = load_reports(opts.reports)
    if not reports:
        sys.exit("FAIL: no readable asmcap-bench-v1 reports")

    grouped = {}
    for report in reports:
        grouped.setdefault(report.get("bench", "?"), []).append(report)

    lines = ["# Bench trend", ""]
    for bench in sorted(grouped):
        lines += bench_table(bench, grouped[bench])
    text = "\n".join(lines)

    if opts.output:
        with open(opts.output, "w") as f:
            f.write(text + "\n")
        print(f"trend table: {len(reports)} report(s), {len(grouped)} "
              f"bench(es) -> {opts.output}")
    else:
        print(text)


if __name__ == "__main__":
    main()
