#!/usr/bin/env python3
"""banachlim benchmark: seeded workloads, job-level metrics, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload maps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Each workload (``maps``, ``stages``, ``determine``; one module each) is a
fixed round of job cells.  The seed draws only the random entries of each
job, so every seed yields the same job counts per kind, stage count and
dimension.  One client runs the jobs one at a time in a closed loop, whole
rounds at a time, until ``--seconds`` of job time have passed; every output
is then checked by code that does not use the path under test.

Times are CPU seconds of the benchmark process (and of any child process it
has waited for), not wall-clock seconds: the program runs in one thread, so
on an idle host the two agree, while on a shared host the wall clock also
counts the time the process waited for a core, which moves by more than the
benchmark's bounds from one minute to the next.  The speed of a CPU second
moves too, so every time is scaled to a reference speed by a calibration
kernel run beside the jobs (see ``calibrate.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
timed loop, then replays round 0 twice, plain and with every layer's
public entry points wrapped (see ``tracer.py``), and prints the per-layer
metrics over that fixed set of jobs, so their counts repeat exactly for a
seed, with the tracing overhead between the two replays.  The traced
outputs are checked after the wrappers are removed, so the checks' own
calls into the package are not counted.

The last stdout line is the result object; the line before it holds the
run manifest.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("maps", "stages", "determine")
SETUP_REPS = 3           # this process plus two fresh set-up processes
SETUP_TIMEOUT = 120
TAIL_BEYOND = 10         # jobs a run must have beyond its tail percentile
SETUP_CAL_REPS = 10      # kernel repetitions before and after a set-up
CAL_MIN_REPS = 2         # kernel repetitions after each job, at least ...
CAL_FRAC = 0.1           # ... and about this share of the job's time
CAL_SPAN_REPS = 20       # kernel repetitions that scale one job, at least

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB")]


def _layer(name, *fields):
    return [(f"{name}.{f}", "s" if f == "self_s" else "count")
            for f in fields]


PER_LAYER = (
    _layer("simplex.solve", "calls", "cells", "infeasible", "self_s")
    + _layer("space.norm_eval", "calls.l1", "calls.l2", "calls.linf",
             "calls.hpoly", "calls.vpoly", "self_s")
    + _layer("space.extreme_points", "calls", "points", "self_s")
    + _layer("space.build", "calls", "self_s")
    + _layer("linmap.operator_norm", "calls", "self_s")
    + _layer("linmap.min_norm_preimage", "calls", "self_s")
    + _layer("linmap.verdict", "calls", "self_s")
    + _layer("linalg.mat_vec", "calls", "mults", "self_s")
    + _layer("linalg.mat_mul", "mults")
    + _layer("linalg.elim", "calls", "self_s")
    + _layer("systems.compatible_from_tail", "calls", "stages", "self_s")
    + _layer("systems.compatible_vector", "calls", "self_s")
    + _layer("systems.stage_norms", "calls", "self_s")
    + _layer("systems.generator", "calls", "self_s")
    + _layer("curves.scale_gap", "calls", "self_s")
    + _layer("curves.difference_quotient", "calls", "self_s")
    + _layer("determining.search", "calls", "evaluations", "self_s")
    + _layer("determining.certify", "calls", "points", "refinements",
             "self_s")
    + _layer("determining.verify_pair", "calls", "hits", "self_s")
    + _layer("determining.diagnostics", "calls", "self_s")
    + _layer("scalar.sqrt_bracket", "calls", "self_s")
    + _layer("scalar.io", "calls", "self_s")
    + _layer("cli.main", "calls", "self_s")
    + _layer("cli", "exit.0", "exit.1", "exit.2", "exit.3")
    + [("trace.overhead_frac", "ratio"), ("jobs.fail_frac", "ratio"),
       ("jobs.undecided_frac", "ratio")]
)


def _check_checkout():
    missing = [p for p in ("src/banachlim/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
                 "run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed, warm-ups, job files

def cpu_seconds():
    """CPU time of this process since it started, plus that of its
    waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


Job = collections.namedtuple("Job", "id cell payload")


def build_rounds(wl, seed, workdir, rounds):
    ctx = wl.setup(workdir)
    out = []
    for r in range(rounds):
        rng = random.Random(f"{wl.NAME}:{seed}:{r}")
        out.append([Job(f"{r}.{slot}", cell, wl.make_job(rng, cell, ctx))
                    for slot, cell in enumerate(wl.ROUND)])
    return out


def timed_setup(args, workdir):
    """Import the workload and build its job pool.  Returns the workload,
    the rounds and the set-up time: CPU seconds since the interpreter
    started, less the calibration, scaled by the kernel runs just before
    the import and just after the pool is built."""
    before = calibrate.measure(SETUP_CAL_REPS)
    wl = importlib.import_module(args.workload)
    n_rounds = 1 if args.short else wl.POOL_ROUNDS
    rounds = build_rounds(wl, args.seed, workdir, n_rounds)
    setup_cpu = cpu_seconds() - before
    per_rep = (before + calibrate.measure(SETUP_CAL_REPS)) / (
        2 * SETUP_CAL_REPS)
    return wl, rounds, setup_cpu * calibrate.REF_REP_S / per_rep


def _setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.short:
        cmd.append("--short")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# The closed loop

def execute(wl, job):
    """Run one job; returns (output, error text or None, CPU seconds)."""
    t0 = cpu_seconds()
    try:
        out, err = wl.run(job.cell, job.payload), None
    except (Exception, SystemExit):
        out, err = None, traceback.format_exc(limit=3)
    return out, err, cpu_seconds() - t0


def judge(wl, job, out, err):
    """'ok', 'undecided', or why the job failed."""
    if err is not None:
        return "raised: " + err.strip().splitlines()[-1]
    try:
        return wl.check(job.cell, job.payload, out)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=2)


def run_job(wl, job):
    """Time one job, then check its output off the clock.  Returns
    [job, outcome, seconds]; the output itself is dropped, so the loop's
    live heap (and the collector's work) does not grow with the run."""
    out, err, secs = execute(wl, job)
    return [job, judge(wl, job, out, err), secs]


def _tail_index(wl, n):
    """0-based nearest-rank index of the workload's tail percentile."""
    return max(1, math.ceil(wl.TAIL_PCT / 100 * n)) - 1


def timed_loop(wl, rounds, seconds, short):
    """Whole rounds until ``seconds`` of scaled job time have passed and at
    least TAIL_BEYOND jobs lie beyond the tail percentile.  The kernel runs
    before the first job and right after every job, for about CAL_FRAC of
    the job's time.  Returns the records with scaled times, the rounds run
    and the host speed."""
    records = []
    cal = [kernel_after(0.0, None)]
    busy = 0.0
    r = 0
    while True:
        jobs = rounds[r % len(rounds)]
        for job in jobs[:wl.SHORT] if short else jobs:
            out, err, secs = execute(wl, job)
            cal.append(kernel_after(secs, cal[-1]))
            busy += secs * calibrate.REF_REP_S * cal[-1][0] / cal[-1][1]
            records.append([job, judge(wl, job, out, err), secs])
            del out
        r += 1
        enough = len(records) - _tail_index(wl, len(records)) - 1
        if short or (busy >= seconds and enough >= TAIL_BEYOND):
            return records, r, scale_to_reference(records, cal)


def kernel_after(secs, last):
    """Run the kernel for about CAL_FRAC of a job of ``secs`` seconds, at
    the speed of the ``last`` (repetitions, seconds) kernel run; returns
    this run's (repetitions, seconds)."""
    reps = CAL_MIN_REPS
    if last is not None:
        reps = max(reps, math.ceil(CAL_FRAC * secs * last[0] / last[1]))
    return reps, calibrate.measure(reps)


def scale_to_reference(records, cal):
    """Scale each record's time by REF_REP_S over the kernel's time per
    repetition around it: the kernel runs just before and just after the
    job (``cal[i]`` and ``cal[i + 1]``), widened evenly on both sides
    until they hold CAL_SPAN_REPS repetitions.  Returns the host speed
    (reference = 1) and the unscaled job rate."""
    raw_s = sum(rec[2] for rec in records)
    for i, rec in enumerate(records):
        lo, hi = i, i + 2
        while (sum(n for n, _ in cal[lo:hi]) < CAL_SPAN_REPS
               and (lo > 0 or hi < len(cal))):
            lo, hi = max(0, lo - 1), hi + 1
        win = cal[lo:hi]
        per_rep = sum(c for _, c in win) / sum(n for n, _ in win)
        rec[2] *= calibrate.REF_REP_S / per_rep
    reps, secs = sum(n for n, _ in cal), sum(c for _, c in cal)
    return {"host_speed": calibrate.REF_REP_S * reps / secs,
            "unscaled_jobs_per_s": len(records) / raw_s,
            "calibration_s": secs}


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(wl, records, setup_s):
    times = sorted(r[2] for r in records)
    k = _tail_index(wl, len(times))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": setup_s, "jobs_per_s": len(times) / sum(times),
              "job_p50_s": statistics.median(times),
              "job_tail_s": times[k], "peak_rss_mb": peak_kb / 1024}
    tail = {"pct": wl.TAIL_PCT, "samples": len(times),
            "beyond": len(times) - k - 1}
    return values, tail


def per_layer(tracer, traced_s, untraced_s, outcomes):
    values = dict(tracer.counts)
    for name, secs in tracer.self_times().items():
        values[name + ".self_s"] = secs
    for code in range(4):
        values[f"cli.exit.{code}"] = values.get(f"cli.main.exit.{code}", 0)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["jobs.fail_frac"] = _frac(outcomes, _failed)
    values["jobs.undecided_frac"] = _frac(outcomes, _undecided)
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def _failed(outcome):
    return outcome not in ("ok", "undecided")


def _undecided(outcome):
    return outcome == "undecided"


def _frac(outcomes, pred):
    return sum(1 for o in outcomes if pred(o)) / len(outcomes)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def manifest(args, wl, rounds, n_rounds, records, extra):
    import numpy
    from banachlim.scalar import Q

    times = {}
    for job, _, secs in records:
        times.setdefault(wl.label(job.cell, job.payload), []).append(secs)
    outcomes = [r[1] for r in records]
    inputs = repr([{k: v for k, v in job.payload.items() if k != "argv"}
                   for job in rounds[0]])
    backend = type(Q(0))
    return {
        "workload": wl.NAME, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "short": args.short,
        "loop": "closed, one client, whole rounds",
        "backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "git_commit": _git_commit(),
        "round0_jobs": [wl.label(job.cell, job.payload) for job in rounds[0]],
        "rounds_run": n_rounds,
        "attempted_per_cell": {k: len(v) for k, v in times.items()},
        "cell_p50_s": {k: statistics.median(v) for k, v in times.items()},
        "inputs_sha256": hashlib.sha256(inputs.encode()).hexdigest(),
        "fail_frac": _frac(outcomes, _failed),
        "undecided_frac": _frac(outcomes, _undecided),
        "failures": _failures(wl, records),
        **extra,
    }


def _failures(wl, records):
    return [{"job": job.id, "cell": wl.label(job.cell, job.payload),
             "why": outcome}
            for job, outcome, _ in records if _failed(outcome)]


# ---------------------------------------------------------------------------
# Entry points

def bench(args):
    _check_checkout()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        wl, rounds, setup_s = timed_setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [_setup_in_fresh_process(args)
                              for _ in range(SETUP_REPS - 1)]
        # The job pool is the benchmark's, not the program's: keep the
        # collector from re-scanning it during every timed job.
        gc.collect()
        gc.freeze()
        records, loops, host = timed_loop(wl, rounds, args.seconds,
                                          args.short)
        values, tail = end_to_end(wl, records, statistics.median(setups))
        extra = {"setup_samples_s": setups, "job_tail": tail, **host}
        if args.trace:
            values, traced, extra["traced"] = traced_replay(args, wl, rounds)
            records_all = records + traced
        else:
            records_all = records
        print(json.dumps({"manifest": manifest(args, wl, rounds, loops,
                                               records, extra)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass        # another run still holds a work directory
    units = dict(PER_LAYER if args.trace else END_TO_END)
    failed = sum(1 for _, outcome, _ in records_all if _failed(outcome))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records_all),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


def traced_replay(args, wl, rounds):
    """Replay the jobs of round 0 once plain, to time them warm, and once
    with the layers wrapped, both timed with the kernel beside them (the
    kernel calls no wrapped code); returns the per-layer metrics, the
    traced records and a manifest entry."""
    from tracer import Tracer

    jobs = rounds[0][:wl.SHORT] if args.short else rounds[0]
    untraced, cal = [], [kernel_after(0.0, None)]
    for job in jobs:
        untraced.append(run_job(wl, job))
        cal.append(kernel_after(untraced[-1][2], cal[-1]))
    scale_to_reference(untraced, cal)
    tracer = Tracer()
    runs, cal = [], [kernel_after(0.0, None)]
    tracer.install()
    try:
        for job in jobs:
            tracer.job = job.id
            runs.append((job, *execute(wl, job)))
            cal.append(kernel_after(runs[-1][3], cal[-1]))
    finally:
        tracer.uninstall()
    traced = [[job, judge(wl, job, out, err), secs]
              for job, out, err, secs in runs]
    scale_to_reference(traced, cal)
    values = per_layer(tracer, sum(r[2] for r in traced),
                       sum(r[2] for r in untraced), [r[1] for r in traced])
    return values, traced, {"jobs": len(jobs), "spans": len(tracer.spans),
                            "failures": _failures(wl, traced)}


def _run_child(workload, seed, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd[1:])} failed: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["manifest"], json.loads(lines[-1])


def self_check():
    """Short mode of every workload: metric names and units match
    BENCHMARK.json, counts repeat across two traced runs of one seed, and a
    second seed keeps the job plan (each job's kind, M and dimension, read
    from its generated inputs) while changing the inputs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        man0, res0 = _run_child(w, 1, 0)
        man1, res1 = _run_child(w, 1, 1)
        man2, res2 = _run_child(w, 1, 1)
        man3, _ = _run_child(w, 2, 0)
        for trace, res in ((0, res0), (1, res1)):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace],
                   f"{w}: --trace {trace} emits every metric with its unit")
        expect(all(r["correct"] for r in (res0, res1, res2)),
               f"{w}: outputs correct")
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in (res1, res2)]
        expect(counts[0] == counts[1],
               f"{w}: traced counts repeat exactly on one seed")
        expect(man0["round0_jobs"] == man3["round0_jobs"],
               f"{w}: seed 2 keeps the job counts per kind, M and dimension")
        expect(man0["inputs_sha256"] != man3["inputs_sha256"],
               f"{w}: seed 2 changes the random entries")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="run only the first jobs of round 0, once")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
