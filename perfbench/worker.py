"""One workload process: set up, time CLI jobs, then check their outputs.

Started by ``run.py``; not meant to be run by hand.  The process imports
polysum and the lazy ``scipy.spatial`` dependency and writes the workload's
input files, then prints ``ready``.  ``--role setup`` exits soon after, so
the parent can time set-up several times.  ``--role run`` goes on to call
``polysum.cli.main`` on the same inputs as many times as fit in
``--seconds``.  Then, untimed, it checks the first job's outputs with the
workload's gate and compares every later job's output bytes with the first.
It prints one JSON line last.

With ``--trace 1`` untraced and traced jobs alternate; the traced ones give
the per-layer metrics and must write the same bytes as the untraced ones.
The spans of the last traced job go to ``spans.jsonl`` in the work directory.

Host speed: on a shared host the speed of a vCPU drifts by tens of percent
over seconds to minutes, and CPU time drifts with it, so raw wall times of the
same job spread too widely between runs.  The worker therefore times a fixed
NumPy kernel (``reference_s``) before the first job and after every job.
``wall_s`` is the median over the run's untraced jobs of the job's wall time
divided by the mean of the two reference times around it, times the nominal
reference time ``REF_S``: the job's wall time at the host speed at which the
kernel takes ``REF_S``.  The raw wall times and reference times of every job
go into the record as well.  Just after ``ready`` every worker times the
kernel too and reports ``REF_S`` over that time, the factor by which
``run.py`` scales the set-up time it measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.spatial  # noqa: E402,F401  (polysum imports it lazily; pay that here)

from polysum import cli  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Nominal time of ``reference_s``, a fixed constant.  On a shared 2-vCPU Intel
# Xeon VM with one OpenBLAS thread the kernel's median over a run ranged from
# 0.013 to 0.023 s between runs, so ``wall_s`` is the job's wall time at the
# faster end of that host's usual speeds.
REF_S = 0.014
_REF_X = numpy.random.default_rng(0).standard_normal(200)
_REF_PHASES = numpy.random.default_rng(1).standard_normal(100_000)


def reference_s() -> float:
    """Wall time of a fixed kernel with the program's two kinds of work:
    small NumPy operations driven from a Python loop, as in the variation DP,
    and complex exponentials over a long array, as in the phase evaluation.
    As the host's speed drifts, the mix slows down with the jobs more closely
    than either kind alone does."""
    start = time.perf_counter()
    for _ in range(4):
        d = numpy.abs(_REF_X[None, :] - _REF_X[:, None]) ** 3.0
        w = numpy.zeros(_REF_X.shape[0])
        for j in range(1, w.shape[0]):
            w[j] = numpy.max(w[:j] + d[:j, j])
    for _ in range(2):
        numpy.exp(1j * _REF_PHASES).sum()
    return time.perf_counter() - start


def _run_job(workload, argv, trace: bool):
    """One CLI job; returns (wall seconds, tracer or None, error text or None)."""
    tr = tracer.LayerTracer() if trace else contextlib.nullcontext()
    sink = io.StringIO()
    error = None
    with tr, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a failed job is counted, not fatal
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
    if error is None and rc not in workload.exit_codes:
        error = f"exit status {rc}"
    return wall, (tr if trace else None), error


def _tail(samples: list) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    q = 100 * (n - 10) // n
    return {"percentile": q, "value": float(numpy.percentile(samples, q))}


def _versions() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(args.seed, workdir)
    print("ready", flush=True)
    # the host speed just after set-up, by which the parent scales set-up time
    setup_reference_s = statistics.median(reference_s() for _ in range(5))
    setup_scale = {"setup_reference_s": setup_reference_s, "setup_scale": REF_S / setup_reference_s}
    if args.role == "setup":
        print(json.dumps(setup_scale))
        return 0

    argv = workload.argv(args.seed, workdir)
    walls = {False: [], True: []}
    scaled = {False: [], True: []}  # wall times scaled to the nominal host speed
    ref_times = [reference_s()]
    layer_runs = []
    reference = None  # output bytes of the first job that completed
    last_trace = None
    bad_jobs, notes = 0, []
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        wall, tr, error = _run_job(workload, argv, traced)
        ref_times.append(reference_s())
        walls[traced].append(wall)
        scaled[traced].append(wall * REF_S / (0.5 * (ref_times[-2] + ref_times[-1])))
        if error is None:
            outputs = {name: (workdir / name).read_bytes() for name in workload.outputs}
            if reference is None:
                reference = outputs
            elif outputs != reference:
                error = "output bytes differ from the first job"
        if traced:
            left = tracer.leftover_wrappers()
            if left:
                error = f"wrappers left bound: {left}"
            layer_runs.append(tracer.layer_metrics(tr, wall))
            last_trace = tr
        if error is not None:
            bad_jobs += 1
            kind = "traced job" if traced else "job"
            notes.append(f"{kind} {len(walls[False]) + len(walls[True])}: {error}")
        if args.trace and not traced:
            continue  # jobs come in untraced/traced pairs
        # start another job (or pair) only if it is expected to end in time
        expected = sum(statistics.median(w) for w in walls.values() if w)
        if time.perf_counter() - begin + expected > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if last_trace is not None:
        tracer.write_spans(last_trace.spans, workdir / "spans.jsonl")

    jobs = len(walls[False]) + len(walls[True])
    gate_start = time.perf_counter()
    if reference is None:
        ops, failed = jobs, jobs
    else:
        try:
            per_job, per_job_failed, gate_notes = workload.gate(
                args.seed, workdir, {name: data.decode() for name, data in reference.items()}
            )
        except Exception:  # a gate that cannot read the output fails the job
            per_job, per_job_failed, gate_notes = 1, 1, [traceback.format_exc()]
        notes += gate_notes
        ops = per_job * jobs
        failed = per_job_failed * (jobs - bad_jobs) + per_job * bad_jobs

    untraced = statistics.median(scaled[False])
    result = {
        "jobs": jobs,
        "attempted": ops,
        "failed": failed,
        "wall_s_tail": _tail(scaled[False]),
        "raw_wall_s_median": statistics.median(walls[False]),
        "raw_wall_s_min": min(walls[False]),
        "wall_s_samples": walls[False],
        "reference_s_samples": ref_times,
        "reference_s_median": statistics.median(ref_times),
        **setup_scale,
        "notes": notes,
        "gate_s": time.perf_counter() - gate_start,
        "versions": _versions(),
    }
    if args.trace:
        metrics = {
            key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]
        }
        metrics["trace.overhead_s"] = statistics.median(scaled[True]) - untraced
        result["per_layer"] = metrics
        result["traced_wall_s_samples"] = walls[True]
    else:
        result["wall_s"] = untraced
        result["peak_rss_mb"] = peak_rss_mb
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
