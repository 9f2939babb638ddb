"""ghlab benchmark: time to a verified verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload field-n3 --seed 1 --seconds 25 --trace 0

A point is one generated base point taken through the workload's bundle of
acceptance checks (see workloads.py).  The load is a closed loop with one
caller: the next point starts when the previous one has finished.

``--trace 0`` starts the set-up twice on its own (``--setup-only``) and
then the measured workload process, each a fresh process, one after the
other, and prints the end-to-end metrics:

- points_per_s: verified points per second of point time;
- setup_s: median over the three processes of the time from process start
  to the start of timing (imports, input generation, one warm-up point);
- peak_rss_mb: peak resident memory of the measured process;
- verified_frac: verified points over points attempted.

Both timings are scaled to the speed of reference.py's machine: the
measured value is multiplied (points_per_s) or divided (setup_s) by the
run's slowness, its mean reference loop time over ``REF_S``.  The record
keeps the measured values and the slowness next to the scaled ones.

``--trace 1`` runs one process that makes an untraced and a traced pass
over the same points and prints the per-layer metrics of tracing.py.

Every run prints its machine and run context and the worst value of each
check against its tolerance, writes a record (and, traced, the spans) to
``.perfbench_out/`` at the repository root, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  It exits 2 when the
repository has no ghlab source tree, and 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# a run must end within 180 s; leave margin for the parent itself
DEADLINE_S = 170.0
SETUP_PROBES = 2
# seconds of reference loop timed around each workload process
REF_PROBE_S = 0.2
THREAD_VARS = ("GHLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _slowness() -> float:
    """Mean reference loop time over REF_S, from a short timing."""
    n, t = time_reference(REF_PROBE_S)
    return t / n / REF_S


def _spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Start one workload process, wait for it, return its JSON result.

    The reference loop is timed just before and just after, and the
    result's ``setup_slowness`` is the mean of the two."""
    before = _slowness()
    launched = _now()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--launched", repr(launched), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"workload process passed the deadline: {exc}")
    if proc.returncode != 0:
        raise WorkerFailed(f"workload process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("workload process printed no result")
    res = json.loads(lines[-1])
    res["setup_slowness"] = 0.5 * (before + _slowness())
    return res


def _unit(name: str) -> str:
    if name.endswith("ns_per_node"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def _tally(res: dict) -> tuple[int, int]:
    attempted = sum(len(r["times"]) for r in res["runs"].values())
    failed = sum(len(r["failed_at"]) for r in res["runs"].values())
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = _now() + DEADLINE_S

    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot load the workloads: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, one caller",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": _loadavg(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            res = _spawn(args, deadline, "--spans",
                         str(OUT_DIR / f"spans-{tag}.json"))
            attempted, failed = _tally(res)
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in res["layers"].items()}
        else:
            probes = [_spawn(args, deadline, "--setup-only")
                      for _ in range(SETUP_PROBES)]
            res = _spawn(args, deadline)
            probes.append(res)
            timed = res["runs"]["timed"]
            verified = len(timed["times"]) - len(timed["failed_at"])
            attempted, failed = _tally(res)
            raw_rate = verified / sum(timed["times"])
            metrics = {
                "points_per_s": {"value": raw_rate * timed["slowness"],
                                 "unit": "1/s"},
                "setup_s": {"value": statistics.median(
                    p["setup_s"] / p["setup_slowness"] for p in probes),
                    "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
                "verified_frac": {"value": 1.0 - failed / attempted,
                                  "unit": "fraction"},
            }
            context["measured"] = {
                "points_per_s": raw_rate, "slowness": timed["slowness"],
                "setup_s": [p["setup_s"] for p in probes],
                "setup_slowness": [p["setup_slowness"] for p in probes]}
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    context["loadavg_end"] = _loadavg()
    for key in ("python", "numpy", "scipy"):
        context[key] = res[key]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump({"context": context, "result": result, "process": res}, fh)
    print("context " + json.dumps(context))
    for name, check in res["checks"].items():
        tol = check["tol"]
        print(f"check {name}: worst {check['worst']:.3e} against "
              f"{'exact' if tol == 0 else f'tol {tol:.0e}'}")
    for name, run in res["runs"].items():
        print(f"phase {name}: {len(run['times'])} points in "
              f"{run['elapsed']:.2f} s, failed {len(run['failed_at'])}, "
              f"refused {run['errors']}, pool used up: {run['pool_used_up']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
