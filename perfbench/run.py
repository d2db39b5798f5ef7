"""polysum benchmark: time CLI jobs from outside, check outputs, report JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload field-polygon --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics named in
``BENCHMARK.json`` (``wall_s``, ``setup_s``, ``peak_rss_mb``, ``ok_share``,
which is one minus the error rate); with ``--trace 1`` it holds the
per-layer metrics of the traced jobs.  Before it, one JSON record per
workload gives the environment, every sample, the error rate and the gate's
notes.  Each metric is also printed with its unit on standard error.  Nothing besides
the checkout's ``src/`` tree and this directory is needed; scratch files go
to ``.perfbench-work/`` in the checkout.

Load model: one process per run with a closed loop of one client: each CLI
job starts when the previous one has returned.  The process uses one
OpenBLAS thread (``THREAD_ENV``).

Statistic: ``wall_s`` is the median over a run's jobs of each job's wall time
scaled to a nominal host speed, and ``setup_s`` the median of the run's
set-up times scaled the same way; ``worker.py`` says how.  The record gives
the job count, the highest percentile of scaled job times with ten jobs above
it, and every raw sample with the reference times it was scaled by.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_REPS = 9  # set-up is timed this many times per run; the median is reported
DEADLINE_S = 170.0  # a run ends within this, or fails
# One BLAS thread: with OpenBLAS's default of one thread per core, its idle
# worker spins between the many small matmuls and doubles the CPU a job uses.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def _git_commit() -> str | None:
    """HEAD commit read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int, versions: dict) -> dict:
    threads = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    threads.update(THREAD_ENV)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **versions,
        "thread_env": threads,
        "seed": seed,
        "git_commit": _git_commit(),
    }


@contextlib.contextmanager
def _worker(role: str, args, workdir: pathlib.Path, deadline: float):
    """Start a worker and wait for its ``ready`` line.

    Yields (process, set-up seconds); the process is killed on the way out if
    it is still running, and always waited for.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=dict(os.environ, **THREAD_ENV)
    )
    try:
        waiting, _, _ = select.select([proc.stdout], [], [], max(deadline - start, 0.0))
        line = proc.stdout.readline() if waiting else ""
        ready = time.perf_counter()
        if line.strip() != "ready":
            raise RunFailed(f"{role} worker did not get ready")
        yield proc, ready - start
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _rest_of_output(proc, deadline: float) -> str:
    """Wait for a worker to exit and return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker missed the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with status {proc.returncode}")
    return out


def run_workload(args) -> tuple[dict, dict]:
    """One measured run of one workload; returns (record, contract result)."""
    deadline = time.perf_counter() + DEADLINE_S
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups, scales = [], []

    def time_setups(count: int) -> None:
        for _ in range(count):
            with _worker("setup", args, workdir / "setup", deadline) as (proc, seconds):
                out = _rest_of_output(proc, deadline)
            setups.append(seconds)
            scales.append(json.loads(out.splitlines()[-1])["setup_scale"])

    # a traced run reports no set-up metric, so it times set-up only once;
    # otherwise the set-ups are split around the run, so that they are
    # spread over time as the jobs are
    extra = SETUP_REPS - 1 if not args.trace else 0
    time_setups(extra // 2)
    with _worker("run", args, workdir / "run", deadline) as (proc, seconds):
        out = _rest_of_output(proc, deadline).strip()
    if not out:
        raise RunFailed("worker printed no result")
    result = json.loads(out.splitlines()[-1])
    setups.append(seconds)
    scales.append(result["setup_scale"])
    time_setups(extra - extra // 2)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values, spec = result["per_layer"], SPEC["per_layer"]
    else:
        values, spec = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(s * k for s, k in zip(setups, scales)),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": 1.0 - failed / attempted,
        }, SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": _environment(args.seed, result["versions"]),
        "jobs": result["jobs"],
        "wall_s_tail": result["wall_s_tail"],
        "raw_wall_s_median": result["raw_wall_s_median"],
        "raw_wall_s_min": result["raw_wall_s_min"],
        "wall_s_samples": result["wall_s_samples"],
        "traced_wall_s_samples": result.get("traced_wall_s_samples"),
        "reference_s_samples": result["reference_s_samples"],
        "reference_s_median": result["reference_s_median"],
        "setup_s_samples": setups,
        "setup_scales": scales,
        "computed_counts": list(tracer.COMPUTED) if args.trace else [],
        "error_rate": failed / attempted,
        "gate_s": result["gate_s"],
        "notes": result["notes"],
    }
    contract = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, contract


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "polysum" / "__init__.py").is_file():
        sys.stderr.write(f"error: no polysum source tree under {ROOT / 'src'}\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            record, contract = run_workload(args)
        except RunFailed as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        for note in record["notes"]:
            sys.stderr.write(f"{name}: {note}\n")
        sys.stderr.write(f"{name} error_rate = {record['error_rate']!r}\n")
        for key, metric in contract["metrics"].items():
            sys.stderr.write(f"{name} {key} = {metric['value']!r} {metric['unit']}\n")
        print(json.dumps(record), flush=True)
        results.append((name, contract))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(c["correct"] for _, c in results),
            "attempted": sum(c["attempted"] for _, c in results),
            "failed": sum(c["failed"] for _, c in results),
            "metrics": {
                f"{name}.{key}": metric
                for name, c in results
                for key, metric in c["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
