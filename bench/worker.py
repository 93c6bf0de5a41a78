"""One batch of one workload, in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N --trace 0|1 --out FILE
       python3 bench/worker.py --workload NAME --record --out FILE

The worker imports ``balprice`` from the checkout's ``src``, writes the
batch's instance files (this is the set-up), runs every job as
``balprice.cli.main(argv)`` one after another on one thread, and then checks
each job's exit code and output against the golden copy.  With ``--trace 1``
the layer spans of ``tracer.py`` are recorded around the jobs.  The batch's
figures go to ``--out`` as JSON.  ``--record`` instead runs every pool entry
of the workload once and writes the golden outputs.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import sys
import traceback

from speed import Speedometer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
OUT_DIR = os.path.join(BENCH_DIR, "_out")

# the fields of a ratio CSV row that carry results (the others echo flags)
CSV_FIELDS = ("trials", "seed", "welfare", "opt", "ratio", "ci95_halfwidth")


def import_balprice():
    sys.path.insert(0, SRC)
    import balprice
    import balprice.cli

    where = os.path.dirname(os.path.abspath(balprice.__file__))
    if where != os.path.join(SRC, "balprice"):
        raise ImportError(f"balprice was imported from {where}, not from {SRC}")
    return balprice.cli


def run_job(cli, argv):
    """Exit code of one CLI invocation; an exception is reported as a string,
    which matches no golden exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        return "exception: " + traceback.format_exc(limit=-3)


def read_output(job) -> object:
    """The job's result in canonical form: the report's ``result`` block as
    sorted compact JSON, or the ratio CSV's result fields as written."""
    if not os.path.exists(job.output_path):
        return None
    with open(job.output_path, encoding="utf-8", newline="") as fh:
        if job.output_kind == "csv":
            rows = list(csv.DictReader(fh))
            return [{k: row[k] for k in CSV_FIELDS} for row in rows]
        doc = json.load(fh)
    return json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))


def golden_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "golden", f"{workload}.json")


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def outcome(job, code) -> dict:
    return {"input": file_digest(job.instance_path), "exit": code, "result": read_output(job)}


def check(jobs, codes, golden) -> list:
    failures = []
    for job, code in zip(jobs, codes):
        expected = golden.get(job.key)
        if expected is None:
            failures.append({"job": job.key, "reason": "no golden output"})
            continue
        got = outcome(job, code)
        for field in ("input", "exit", "result"):
            if got[field] != expected[field]:
                failures.append({"job": job.key, "reason": f"{field} differs",
                                 "expected": expected[field], "got": got[field]})
                break
    return failures


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup(workload: str, seed: int, workdir: str):
    cli = import_balprice()
    import workloads

    return cli, workloads.generate(workload, seed, workdir)


def batch(args) -> dict:
    workdir = fresh_dir(os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}"))
    # in a traced batch a tick would run inside whichever span is open
    meter = Speedometer(tick=not args.trace)
    try:
        (cli, jobs), _ = meter.timed(lambda: setup(args.workload, args.seed, workdir))

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        codes = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for idx, job in enumerate(jobs):
                if tracer:
                    tracer.begin_job(idx)
                code, _ = meter.timed(lambda: run_job(cli, job.argv))
                if tracer:
                    tracer.end_job()
                codes.append(code)
    finally:
        meter.stop()
    raw_setup_s, *raw_latencies = (raw for _, _, raw in meter.sections)
    setup_s, *latencies = meter.reference_times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    with open(golden_path(args.workload), encoding="utf-8") as fh:
        golden = json.load(fh)
    failures = check(jobs, codes, golden)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": [job.key for job in jobs],
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw_latencies),
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
    }
    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.npz"))
        job_scale = [ref / raw for ref, raw in zip(latencies, raw_latencies)]
        out["self_s"] = tracer.self_times(job_scale)
        out["layer_shares"] = tracer.layer_shares(job_scale)
        out["job_counts"] = tracer.job_counts()
    shutil.rmtree(workdir)
    return out


def record(args) -> dict:
    """Golden outputs of every pool entry of the workload."""
    cli = import_balprice()
    import workloads

    workdir = fresh_dir(os.path.join(WORK_DIR, f"record-{args.workload}-{os.getpid()}"))
    golden = {}
    for job in workloads.pool_jobs(args.workload, workdir):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = run_job(cli, job.argv)
        if not isinstance(code, int):
            raise RuntimeError(f"{job.key} raised instead of exiting: {code}")
        golden[job.key] = outcome(job, code)
    shutil.rmtree(workdir)
    return golden


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    # the program's own cap default applies; an inherited override would change outputs
    os.environ.pop("BALPRICE_CAP", None)
    result = record(args) if args.record else batch(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
