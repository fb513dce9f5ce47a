#!/usr/bin/env python3
"""Realistic-size benchmark of the ASMCap reproduction (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the library, the
asmcap_search / asmcap_testgen tools and the in-process probe into
.bench_build/, generates the workload's inputs from --seed, measures for
about --seconds, checks the outputs, prints every metric by name with its
unit and, as the last line of stdout, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
in-process pass and reports the per-layer metrics. Exits 1 when an output
check fails and 2 on a usage or build error.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build")
BASELINE = HERE / "baseline.json"

# Workload definitions. Sizes target a few seconds per CLI invocation so a
# run repeats it several times and reports medians (README.md "Workloads").
# `live` is the open-loop churn schedule: the whole of live_churn, and a
# short probe against the same database geometry on the CLI workloads.
WORKLOADS = {
    "ingest_large": dict(
        cli=True, width=128, threshold=8, shards=4, workers=4,
        records=8, tiles=2000, reads=6000, circuit=False, noisy=False,
        prune=False, f1_floor=0.8,
        live=dict(share=0.6, ticket_rate=25.0, mutation_rate=0.75,
                  phased=False)),
    "search_bulk": dict(
        cli=True, width=256, threshold=12, shards=4, workers=4,
        records=4, tiles=2000, reads=30000, circuit=False, noisy=False,
        prune=False, f1_floor=0.8,
        live=dict(share=0.6, ticket_rate=50.0, mutation_rate=0.75,
                  phased=False)),
    "live_churn": dict(
        cli=False, width=128, threshold=4, shards=4, workers=4,
        records=2, tiles=1250, reads=2048, circuit=False, noisy=False,
        prune=True, f1_floor=0.8,
        live=dict(share=1.0, ticket_rate=25.0, mutation_rate=5.0,
                  phased=False)),
    "circuit_noisy": dict(
        cli=True, width=128, threshold=8, shards=4, workers=4,
        records=4, tiles=2000, reads=600, circuit=True, noisy=True,
        prune=False, f1_floor=0.5,
        live=dict(share=0.4, ticket_rate=5.0, mutation_rate=5.0,
                  phased=True)),
}

TRUTH_READS = 128    # F1 subsample: the first reads of the read file.
WORKERS_READS = 64   # --workers 1 vs --workers N comparison sample.
MIN_CLI_REPS = 3
SETUPS = 9           # In-process set-ups per live_churn run (median).


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class BenchError(Exception):
    """A build or input problem: exit 2, print no result."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        raise BenchError("run from the root of a source checkout "
                         "(CMakeLists.txt and src/ not found)")
    bdir = BUILD / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
           "--target", "perfbench_probe", "asmcap_search", "asmcap_testgen"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return {"probe": bdir / "perfbench_probe",
            "search": bdir / "asmcap" / "asmcap_search",
            "testgen": bdir / "asmcap" / "asmcap_testgen"}


def run_checked(cmd, **kwargs):
    proc = subprocess.run([str(c) for c in cmd], text=True,
                          stdout=subprocess.PIPE, **kwargs)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(str(cmd[0])).name} exited "
                           f"{proc.returncode}")
    return proc.stdout


def generate(bins, wl, seed, work):
    ref, reads = work / "ref.fa", work / "reads.fq"
    run_checked([bins["testgen"], ref, reads, "--width", wl["width"],
                 "--records", wl["records"], "--tiles", wl["tiles"],
                 "--reads", wl["reads"], "--seed", seed],
                stderr=subprocess.DEVNULL)
    lines = reads.read_text().splitlines(keepends=True)
    for name, n in (("truth.fq", TRUTH_READS), ("workers.fq", WORKERS_READS)):
        (work / name).write_text("".join(lines[:4 * n]))
    return ref, reads


def geometry(wl, workers=None):
    args = ["--width", wl["width"], "--threshold", wl["threshold"],
            "--shards", wl["shards"],
            "--workers", workers if workers is not None else wl["workers"]]
    if wl["noisy"]:
        args.append("--noisy")
    if wl["prune"]:
        args.append("--prune")
    return [str(a) for a in args]


def cli_args(wl, ref, reads, out, workers=None):
    args = ["--reference", ref, "--reads", reads, "--output", out,
            "--max-hits", "1000000"] + geometry(wl, workers)
    if wl["circuit"]:
        args += ["--backend", "circuit"]
    return [str(a) for a in args]


def timed_cli(bins, args):
    """One asmcap_search process: (setup_s, run_s, peak_rss_mb).

    Both times are read off its stderr as the lines arrive: set-up ends at
    the `reference ...: N records` line, the run at the closing summary
    line, which the CLI prints once the last row is emitted (so process
    teardown is not counted)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(bins["search"])] + args, text=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    setup = run = None
    tail = []
    for line in proc.stderr:
        if setup is None and ": reference " in line:
            setup = time.perf_counter() - t0
        elif setup is not None and " done (" in line:
            run = time.perf_counter() - t0
        tail = (tail + [line])[-5:]
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or setup is None or run is None:
        raise RuntimeError("asmcap_search failed: " + "".join(tail))
    return setup, run, usage.ru_maxrss / 1024.0


def read_rows(path):
    """CLI TSV rows (header dropped) as lists of columns."""
    lines = Path(path).read_text().splitlines()
    return [line.split("\t") for line in lines[1:]]


def digest_of(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def read_truth(text):
    truth = {}
    for line in text.splitlines()[:-1]:
        read, labels = line.split("\t")
        truth[read] = set() if labels == "-" else set(labels.split(","))
    return truth


def f1_score(truth, hits):
    """Paper Eq. 3/4 F1 over (read, segment) pairs of the truth subsample."""
    tp = fp = fn = 0
    for read, want in truth.items():
        got = hits.get(read, set())
        tp += len(got & want)
        fp += len(got - want)
        fn += len(want - got)
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def recorded_digest(workload, seed, seconds):
    """The digest recorded for this workload, when run with the recorded
    seed and length (live_churn's schedule length sets its mutations)."""
    data = json.loads(BASELINE.read_text())["digests"]
    if seed != data["seed"] or seconds != data["seconds"]:
        return None
    return data["sha256"].get(workload)


def probe(bins, mode, wl, ref, reads, work, seconds, seed, extra=()):
    live = wl["live"]
    cmd = [bins["probe"], mode, "--reference", ref, "--reads", reads,
           "--seed", seed, "--seconds", f"{seconds:.3f}",
           "--ticket-rate", live["ticket_rate"],
           "--mutation-rate", live["mutation_rate"]] + geometry(wl)
    if wl["circuit"]:
        cmd.append("--circuit")
    if live["phased"]:
        cmd.append("--phased")
    out = run_checked(list(cmd) + list(extra))
    return json.loads(out.strip().splitlines()[-1])


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
            log("CHECK FAILED:", message)


def measure_cli(bins, name, wl, seed, seconds, work, checks):
    ref, reads = generate(bins, wl, seed, work)
    truth = read_truth(run_checked(
        [bins["probe"], "truth", "--reference", ref,
         "--reads", work / "truth.fq"] + geometry(wl)))

    # The file-driven end-to-end numbers: asmcap_search, repeated.
    cli_seconds = seconds * (1.0 - wl["live"]["share"])
    setups, runs, rates, rss = [], [], [], []
    first_rows = None
    start = time.perf_counter()
    # The probe's own set-up (about one CLI set-up) comes out of the window.
    while (len(runs) < MIN_CLI_REPS or time.perf_counter() - start
           < cli_seconds - statistics.median(setups)):
        out = work / f"rows{len(runs) % 2}.tsv"
        setup, run, peak = timed_cli(bins, cli_args(wl, ref, reads, out))
        setups.append(setup)
        runs.append(run)
        rss.append(peak)
        rows = read_rows(out)
        rates.append(len(rows) / (run - setup))
        if first_rows is None:
            first_rows = rows
        else:
            checks.expect(rows == first_rows,
                          "asmcap_search rows differ between repetitions")

    # Outputs of the first repetition: digest, F1, energy, failures.
    ok = [r for r in first_rows if r[1] == "ok"]
    failed = len(runs) * (wl["reads"] - len(ok))
    hits = {r[0]: (set() if r[3] == "-" else set(r[3].split(",")))
            for r in first_rows if r[0] in truth}
    f1 = f1_score(truth, hits)
    energy = sum(float(r[5]) for r in ok) / max(1, len(ok))
    digest = digest_of(["\t".join(r[:4]) for r in first_rows])

    # --workers 1 must reproduce the first rows exactly.
    out1 = work / "workers1.tsv"
    run_checked([bins["search"]] + cli_args(wl, ref, work / "workers.fq",
                                            out1, workers=1),
                stderr=subprocess.DEVNULL)
    checks.expect(read_rows(out1) == first_rows[:WORKERS_READS],
                  "rows differ between --workers 1 and --workers "
                  f"{wl['workers']}")

    # Interactive latency against the same database geometry, in-process.
    live = probe(bins, "live", wl, ref, reads, work,
                 seconds * wl["live"]["share"], seed,
                 ["--sample", "0"])
    failed += int(live["failed"])
    attempted = len(runs) * wl["reads"] + int(live["tickets"]) * 16 + \
        int(live["mutations"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "search_reads_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
        "query_latency_p50_ms": live["query_latency_p50_ms"],
        "mutation_latency_p50_ms": live["mutation_latency_p50_ms"],
        "f1": f1,
        "model_energy_nj_per_read": energy * 1e9,
    }
    info = {"cli_runs": " ".join(f"{r:.3f}" for r in runs),
            "query_latency_p99_ms": live["query_latency_p99_ms"],
            "mutation_latency_p95_ms": live["mutation_latency_p95_ms"],
            "tickets": live["tickets"],
            "mutations": live["mutations"],
            "generator_lag_p99_ms": live["generator_lag_p99_ms"]}
    return metrics, attempted, failed, digest, info


def measure_live(bins, name, wl, seed, seconds, work, checks):
    ref, reads = generate(bins, wl, seed, work)
    rows = work / "final.tsv"
    live = probe(bins, "live", wl, ref, reads, work, seconds, seed,
                 ["--setups", SETUPS, "--sample", TRUTH_READS, "--rows", rows])
    checks.expect(live["fresh_equal"] == 1,
                  "final epoch differs from a fresh load_reference of its "
                  "live segments")
    checks.expect(live["tickets"] >= 1000 and live["mutations"] >= 200,
                  "live_churn needs >= 1000 tickets and >= 200 mutations")
    metrics = {
        "setup_s": statistics.median(live["setup_s"]),
        "run_s": live["run_s"],
        "search_reads_per_s": live["reads_done"] / live["run_s"],
        "peak_rss_mb": live["peak_rss_mb"],
        "query_latency_p50_ms": live["query_latency_p50_ms"],
        "mutation_latency_p50_ms": live["mutation_latency_p50_ms"],
        "f1": live["f1"],
        "model_energy_nj_per_read": live["energy_per_read_j"] * 1e9,
    }
    attempted = int(live["tickets"]) * 16 + int(live["mutations"])
    digest = digest_of(rows.read_text().splitlines())
    info = {"query_latency_p99_ms": live["query_latency_p99_ms"],
            "mutation_latency_p95_ms": live["mutation_latency_p95_ms"],
            "tickets": live["tickets"], "mutations": live["mutations"],
            "epochs": live["epochs"],
            "generator_lag_p99_ms": live["generator_lag_p99_ms"]}
    return metrics, attempted, int(live["failed"]), digest, info


def measure_trace(bins, name, wl, seed, seconds, work, checks):
    ref, reads = generate(bins, wl, seed, work)
    rows = work / "pump.tsv"
    out = probe(bins, "trace", wl, ref, reads, work,
                seconds * wl["live"]["share"], seed,
                ["--rows", rows, "--spans", work / "spans.jsonl"]
)
    tier = out.pop("kernel_tier")
    failed = int(out.pop("failed"))
    attempted = int(out.pop("attempted"))
    log(f"kernel tier {tier}; spans in {work / 'spans.jsonl'}")
    digest = digest_of(rows.read_text().splitlines())
    if not wl["cli"]:
        digest = None  # live_churn's digest is over its final epoch.
    return out, attempted, failed, digest, {"kernel_tier": tier}


def run_workload(bins, name, seed, seconds, trace):
    wl = WORKLOADS[name]
    work = BUILD / "runs" / f"{name}-seed{seed}-trace{trace}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    if trace:
        fn = measure_trace
    else:
        fn = measure_cli if wl["cli"] else measure_live
    metrics, attempted, failed, digest, info = fn(
        bins, name, wl, seed, seconds, work, checks)

    checks.expect(failed == 0, f"{failed} of {attempted} operations failed")
    if not trace:
        checks.expect(metrics["f1"] >= wl["f1_floor"],
                      f"f1 {metrics['f1']:.4f} below the floor "
                      f"{wl['f1_floor']}")
    want = recorded_digest(name, seed, seconds)
    if want is not None and digest is not None:
        checks.expect(digest == want,
                      f"decision digest {digest[:16]} != recorded "
                      f"{want[:16]} for seed {seed}")
    units = declared_metrics(trace)
    checks.expect(set(metrics) == set(units),
                  "metrics differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(units))}")

    print(f"# workload {name} seed {seed} trace {trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  {'ops_failed_frac':32s} {failed / max(1, attempted):.6g} ratio"
          f" ({failed} of {attempted})")
    if digest is not None:
        print(f"  {'decision_digest':32s} {digest}")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:.6g} {units.get(key, '?')}")
    return {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, v in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        bins = build()
        names = (sorted(WORKLOADS) if args.workload == "all"
                 else [args.workload])
        results = {n: run_workload(bins, n, args.seed, args.seconds,
                                   args.trace) for n in names}
    except BenchError as e:
        log("error:", e)
        return 2
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("error:", e)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
