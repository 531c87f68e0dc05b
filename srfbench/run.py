"""End-to-end and per-layer benchmark of srflimits.

Run from the root of a srflimits checkout:

    python3 srfbench/run.py --workload spectra --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones. Times are in ``ref``: the mean wall time of the frozen calibration
op below, run between the jobs, so that a slower or busier machine moves
job and unit together. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_STARTS = 3


def calibration_op():
    """The unit of time, ``ref``: 23 to 34 ms of pure-Python mpmath at 256
    bits on a shared 2-CPU VM. Frozen: changing it changes the unit of
    every recorded figure."""
    from mpmath import mp, mpf, workprec

    with workprec(256):
        x = mpf(2) / 3
        acc = mpf(0)
        for i in range(1, 1501):
            t = x * i + 1
            acc += mp.sqrt(t) / t
        return mp.sin(acc) * acc


def timed(fn):
    """Run fn and time it. A full garbage collection first keeps one job's
    leftover garbage from being collected, and timed, inside the next."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def git_sha(root):
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    import mpmath

    return {
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
    }


def first_of_each_kind(job_list):
    seen = {}
    for job in job_list:
        seen.setdefault(job.kind, job)
    return list(seen.values())


def cold_start(workload, seed):
    """Child process: import srflimits and run the first job of each kind
    with every cache empty. Prints the elapsed seconds and the outputs."""
    t0 = time.perf_counter()
    import jobs

    outputs, failed = {}, []
    for job in first_of_each_kind(jobs.BUILDERS[workload](random.Random(seed))):
        try:
            outputs[job.name] = job.canon(job.run())
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            print(f"failed: {job.name}: {exc!r}", file=sys.stderr)
            failed.append(job.name)
    print(json.dumps({"seconds": time.perf_counter() - t0, "outputs": outputs,
                      "failed": failed}))
    return 0


def measure_setup(args, root):
    """COLD_STARTS fresh interpreters: their seconds, their outputs and the
    number of jobs that failed in them."""
    seconds, outputs, failed = [], [], 0
    cmd = [sys.executable, os.path.abspath(__file__), "--cold", "--workload",
           args.workload, "--seed", str(args.seed)]
    for _ in range(COLD_STARTS):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return [], [], 0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds.append(result["seconds"])
        outputs.append(result["outputs"])
        failed += len(result["failed"])
    return seconds, outputs, failed


def run_workload(args, root):
    import jobs
    import tracing

    rng = random.Random(args.seed)
    job_list = jobs.BUILDERS[args.workload](rng)
    kinds = len(first_of_each_kind(job_list))
    attempted = failed = 0
    correct = True
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(root)}

    setup = None
    if not args.trace:
        setup, cold_outputs, cold_failed = measure_setup(args, root)
        if not setup:
            print("error: a cold start exited with an error", file=sys.stderr)
            return 1
        attempted += COLD_STARTS * kinds
        failed += cold_failed
        info["setup_s"] = setup

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # warm-up pass: fills the caches a user's later calls find full; every
    # output is checked independently, and later repeats must equal it
    canon = {}
    for job in job_list:
        attempted += 1
        try:
            out = job.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            print(f"failed: {job.name}: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        canon[job.name] = job.canon(out)
        try:
            ok = job.check(out)
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            print(f"check raised on {job.name}: {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"incorrect: {job.name}", file=sys.stderr)
            correct = False
    if setup is not None:
        for outputs in cold_outputs:
            for name, text in outputs.items():
                if name in canon and canon[name] != text:
                    print(f"cold start differs: {name}", file=sys.stderr)
                    correct = False
    counts = dict(tracer.counts) if tracer else None

    # timed rounds: every job `reps` times per round in a seeded shuffled
    # order, with calibration ops before the first job and after each job.
    # The machine's speed drifts over minutes and wobbles over ~0.1 s. A job
    # averages over the wobble, so a time in ref is seconds over the mean
    # calibration op of the whole run.
    rounds = []
    order = [job for job in job_list for _ in range(job.reps)]
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rng.shuffle(order)
        record = {"cal_s": [timed(calibration_op)[1]], "job_s": [], "self_s": []}
        for job in order:
            attempted += 1
            secs = 0.0
            if tracer:
                tracer.reset()
            try:
                out, secs = timed(job.run)
            except Exception as exc:  # noqa: BLE001
                print(f"failed: {job.name}: {exc!r}", file=sys.stderr)
                failed += 1
            else:
                record["job_s"].append((job.name, secs))
                if tracer:
                    record["self_s"].append((job.name, dict(tracer.self_s)))
                if canon.get(job.name) != job.canon(out):
                    print(f"repeat differs: {job.name}", file=sys.stderr)
                    correct = False
            # one op after each job and one more per further 0.3 s of it, so
            # that about a tenth of every run goes to measuring the unit
            for _ in range(1 + int(secs / 0.3)):
                record["cal_s"].append(timed(calibration_op)[1])
        rounds.append(record)

    ref = statistics.fmean(c for r in rounds for c in r["cal_s"])
    job_s = {}
    for r in rounds:
        for name, secs in r["job_s"]:
            job_s.setdefault(name, []).append(secs)
    if not job_s:
        print("error: every job failed", file=sys.stderr)
        return 1
    per_job = {name: statistics.median(vals) / ref for name, vals in job_s.items()}
    sweep_ref = sum(per_job.values())
    info.update({"rounds": len(rounds), "ref_s": ref, "sweep_ref": sweep_ref,
                 "per_job_ref": per_job})

    if tracer:
        metrics = {}
        for name, unit in tracing.COUNTS.items():
            metrics[name] = {"value": counts.get(name, 0), "unit": unit}
        # like sweep_ref: per job the median over its runs, summed over jobs
        self_s = {}
        for r in rounds:
            for name, buckets in r["self_s"]:
                self_s.setdefault(name, []).append(buckets)
        for bucket in tracing.SELF_TIMES:
            value = sum(statistics.median(b.get(bucket, 0.0) for b in runs)
                        for runs in self_s.values()) / ref
            metrics[f"{bucket}.self_ref"] = {"value": value, "unit": "ref"}
    else:
        metrics = {
            "sweep_ref": {"value": sweep_ref, "unit": "ref"},
            "job_ref_p50": {"value": statistics.median(per_job.values()), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"info": info, "rounds": rounds, "metrics": metrics}, fh, indent=1)
    print(json.dumps({k: v for k, v in info.items() if k != "per_job_ref"}))
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("spectra", "enumerate", "quadrature"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "srflimits", "__init__.py")):
        print(f"error: {root} is not the root of a srflimits checkout "
              "(src/srflimits is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.cold:
        return cold_start(args.workload, args.seed)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
