"""One workload process: set-up, then a closed loop over the point pool.

Started by run.py, never by hand.  It prints one JSON object as its last
line of standard output.  ``--setup-only`` stops after set-up and reports
only the set-up time.  With ``--trace 1`` the run makes an untraced pass
and a traced pass over the same points, and reports per-layer numbers.

Set-up time runs from ``--launched`` (the parent's CLOCK_MONOTONIC reading
just before it started this process) to the start of timing, so it covers
interpreter start, imports, input generation and one warm-up point.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

from reference import REF_S, time_reference
from tracing import Tracer
from workloads import POINT_ERRORS, WORKLOADS, CheckLog

# share of each point's time spent on the reference loop right after it
REF_DUTY = 0.1


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def closed_loop(wl, log, first: int, seconds: float, min_points: int,
                tracer=None, ref_duty: float = REF_DUTY) -> dict:
    """Run points from pool index ``first`` on, one at a time, until
    ``seconds`` have passed and at least ``min_points`` are done, or the
    pool is used up.  Library refusals count as failed points.  After each
    point the reference loop runs for ``ref_duty`` of the point's time; the
    pass's ``slowness`` is its mean loop time over ``REF_S``."""
    ref_loops = 0
    ref_seconds = 0.0
    times: list[float] = []
    failed_at: list[int] = []
    errors: list[tuple[int, str]] = []
    i = first
    t_start = _now()
    while i < wl.pool_size and (
            len(times) < min_points or _now() - t_start < seconds):
        if tracer is not None:
            tracer.point = i
        t0 = _now()
        try:
            ok = wl.run_point(i, log)
        except POINT_ERRORS as exc:
            ok = False
            errors.append((i, type(exc).__name__))
        times.append(_now() - t0)
        if not ok:
            failed_at.append(i)
        i += 1
        if tracer is not None:
            tracer.point = -1
        n, t = time_reference(ref_duty * times[-1])
        ref_loops += n
        ref_seconds += t
    return {"times": times, "elapsed": _now() - t_start,
            "slowness": ref_seconds / ref_loops / REF_S,
            "failed_at": failed_at, "errors": errors,
            "pool_used_up": i >= wl.pool_size}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed)
    log = CheckLog()
    warm = closed_loop(wl, log, 0, 0.0, 1, tracer, ref_duty=0.0)
    setup_s = _now() - args.launched
    if tracer is not None:
        tracer.uninstall()
    out = {"setup_s": setup_s, "numpy": numpy.__version__,
           "scipy": scipy.__version__, "python": sys.version.split()[0]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    runs = {"warmup": warm}
    if tracer is None:
        runs["timed"] = closed_loop(wl, log, 1, args.seconds, 1)
    else:
        k = wl.traced_points
        runs["untraced"] = closed_loop(wl, log, 1, args.seconds / 2, k)
        tracer.install()
        runs["traced"] = closed_loop(wl, log, 1, args.seconds / 2, k, tracer)
        tracer.uninstall()
        first_k = set(range(1, 1 + k))
        layers = tracer.layer_metrics(first_k)
        # set-up is input generation (point -1) plus the warm-up point 0
        setup_layers = tracer.layer_metrics({-1, 0})
        layers["setup.locus.calls"] = setup_layers["locus.calls"]
        layers["setup.locus.self_s"] = setup_layers["locus.self_s"]
        traced = runs["traced"]
        refusals = [name for i, name in traced["errors"] if i in first_k]
        layers["quadrature.refused"] = refusals.count("SingularityProximity")
        layers["quadrature.over_budget"] = refusals.count("QuadratureError")
        untraced = runs["untraced"]
        n = min(len(traced["times"]), len(untraced["times"]))
        # both passes scaled to the reference speed, so drift of the
        # machine between them does not read as tracing cost
        layers["trace_overhead_frac"] = (
            sum(traced["times"][:n]) / traced["slowness"]
            / (sum(untraced["times"][:n]) / untraced["slowness"]) - 1.0)
        layers["point_s"] = sum(traced["times"][:k])
        layers["traced_points"] = k
        out["layers"] = layers
        if args.spans is not None:
            tracer.dump(args.spans)
    out["runs"] = runs
    out["checks"] = log.summary()
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          * 1024 / 1e6)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
