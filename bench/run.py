"""The balprice benchmark: batches of real CLI jobs per workload.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 bench/run.py --record-golden

Untraced (``--trace 0``), the run repeats the workload's batch in fresh worker
processes until ``--seconds`` are used (at least once) and reports the median
over batches of each end-to-end metric.  Traced (``--trace 1``), it runs one
untraced batch and then two traced batches of the same seed, checks that the
two traced batches did identical work, and reports the per-layer metrics.
Each run prints one line per metric and, last, one JSON object.
``--record-golden`` rewrites ``golden/<workload>.json`` from the program as
it is; run it only on the commit that defines the expected outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(deadline: float, *args: str) -> dict:
    """Run worker.py with ``args`` and return the JSON it wrote."""
    os.makedirs(WORK_DIR, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="batch-", suffix=".json", dir=WORK_DIR)
    os.close(fd)
    try:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the batch started")
        proc = subprocess.run(
            [sys.executable, WORKER, *args, "--out", path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stdout}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran out of time") from exc
    finally:
        os.remove(path)


def batch(workload: str, seed: int, trace: int, deadline: float) -> dict:
    return run_worker(deadline, "--workload", workload, "--seed", str(seed), "--trace", str(trace))


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report_failures(batches, attempted: int, failed: int) -> None:
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    shown = [f for b in batches for f in b["failures"]][:5]
    for f in shown:
        print(f"  failed: {json.dumps(f)[:400]}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, deadline: float, end_to_end) -> dict:
    start = time.monotonic()
    batches = [batch(workload, seed, 0, deadline)]
    while True:
        per_batch = (time.monotonic() - start) / len(batches)
        if time.monotonic() - start + per_batch > seconds:
            break
        batches.append(batch(workload, seed, 0, deadline))

    jobs = len(batches[0]["latencies"])
    print(f"workload {workload} seed {seed}: {len(batches)} batches of {jobs} jobs, "
          f"closed loop, one client, one thread")
    # every batch runs the same jobs in the same order; a job's latency is its
    # median over the batches, which damps the host's noise on short jobs
    job_latency = [statistics.median(lat) for lat in zip(*(b["latencies"] for b in batches))]
    percentiles = {"job_p50_s": 50, "job_p90_s": 90}
    metrics = {}
    for name, unit in end_to_end:
        if name in percentiles:
            value = percentile(job_latency, percentiles[name])
            how = f"over {jobs} jobs, each the median of {len(batches)} batches"
        else:
            values = [b[name] for b in batches]
            value = statistics.median(values)
            q1, q3 = quartiles(values)
            how = f"median of {len(values)} batches, q1 {q1:.6g}, q3 {q3:.6g}"
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} ({how})")
    raw = statistics.median(b["raw_wall_s"] for b in batches)
    print(f"(raw wall time, not scaled to the reference speed: median {raw:.6g} s)")
    attempted = jobs * len(batches)
    failed = sum(len(b["failures"]) for b in batches)
    report_failures(batches, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def exact_counts(job_counts) -> dict:
    totals = {"cli.jobs": len(job_counts)}
    for counts in job_counts:
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def measure_traced(workload: str, seed: int, deadline: float, per_layer) -> dict:
    plain = batch(workload, seed, 0, deadline)
    traced = [batch(workload, seed, 1, deadline) for _ in range(2)]
    jobs = traced[0]["jobs"]

    # determinism: both traced batches must do identical work, job by job
    diverged = [
        job for job, a, b in zip(jobs, traced[0]["job_counts"], traced[1]["job_counts"]) if a != b
    ]
    for job in diverged[:5]:
        print(f"  counts differ between two traced runs: {job}", file=sys.stderr)

    counts = exact_counts(traced[0]["job_counts"])
    calls = counts["pricing.price.calls"]
    derived = {
        "pricing.price.hit_ratio": 1.0 - counts["pricing.price.misses"] / calls if calls else 0.0,
        "trace_overhead": statistics.mean(t["wall_s"] for t in traced) / plain["wall_s"],
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            return statistics.mean(t["self_s"].get(span, 0.0) for t in traced)
        return counts.get(name, 0)  # a span that never ran has no count

    print(f"workload {workload} seed {seed}: one untraced and two traced batches of "
          f"{len(jobs)} jobs; self times are means of the two traced batches")
    metrics = {}
    for name, unit in per_layer:
        metrics[name] = {"value": value(name), "unit": unit}
        print(f"{name} {metrics[name]['value']:.6g} {unit}")
    shares = {
        layer: statistics.mean(t["layer_shares"][layer] for t in traced)
        for layer in traced[0]["layer_shares"]
    }
    print("share of blocking time by layer: "
          + ", ".join(f"{layer} {share:.3f}" for layer, share in shares.items()))
    print(f"determinism: {'identical' if not diverged else f'{len(diverged)} jobs differ'} "
          "counts across the two traced batches")
    batches = [plain, *traced]
    attempted = sum(len(b["latencies"]) for b in batches)
    failed = sum(len(b["failures"]) for b in batches) + len(diverged)
    report_failures(batches, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_golden(workloads, deadline: float) -> None:
    os.makedirs(os.path.join(BENCH_DIR, "golden"), exist_ok=True)
    for workload in workloads:
        golden = run_worker(deadline, "--workload", workload, "--record")
        path = os.path.join(BENCH_DIR, "golden", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(golden)} golden outputs in {path}")


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    parser = argparse.ArgumentParser(description="balprice benchmark")
    parser.add_argument("--workload", choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_golden:
            record_golden(workloads, time.monotonic() + 3600)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            if args.trace:
                results[name] = measure_traced(name, args.seed, deadline, per_layer)
            else:
                results[name] = measure(name, args.seed, args.seconds, deadline, end_to_end)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
