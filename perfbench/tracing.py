"""Span tracing of ghlab's layers, from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper at
every import site the library calls it through (the module attribute, or
the class attribute for the field jets); ``uninstall`` puts the originals
back.  No library code changes.  A span records its name, start, end, its
parent span, the pool index of the point it belongs to (-1 during set-up),
and a work count taken from the call: grid nodes for a quadrature call,
rows for a kernel call, points for a field jet.  Spans stay in memory and
are written out once the run ends.  A layer's self time is the time of its
spans minus the time of their direct child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (layer, function, owner of the original, import sites patched).  An
# owner "module:Class" names a method, patched on the class itself.
SITES = [
    ("quadrature", "power_kernel_integral", "ghlab.quadrature",
     ["ghlab.kernels", "ghlab.holo"]),
    ("kernels", "alpha", "ghlab.kernels", ["ghlab.kernels"]),
    ("kernels", "alpha_grad", "ghlab.kernels", ["ghlab.kernels", "ghlab.holo"]),
    ("kernels", "alpha_batch", "ghlab.kernels",
     ["ghlab.kernels", "ghlab.ansatz"]),
    ("ansatz", "jet", "ghlab.ansatz:FirstOrderField",
     ["ghlab.ansatz:FirstOrderField"]),
    ("ansatz", "jet", "ghlab.ansatz:RestrictedField",
     ["ghlab.ansatz:RestrictedField"]),
    ("frame", "integrability_residual", "ghlab.frame", ["ghlab.frame"]),
    ("holo", "gamma", "ghlab.holo", ["ghlab.holo"]),
    ("holo", "gamma_sum_check", "ghlab.holo", ["ghlab.holo"]),
    ("holo", "log_z", "ghlab.holo", ["ghlab.holo"]),
    ("locus", "region_membership", "ghlab.locus", ["ghlab.locus"]),
    ("locus", "dist_closed_stratum", "ghlab.locus",
     ["ghlab.locus", "ghlab.ansatz"]),
    ("locus", "dist_boundary", "ghlab.locus", ["ghlab.locus"]),
    ("locus", "dist_locus", "ghlab.locus", ["ghlab.locus"]),
    ("locus", "project", "ghlab.locus", ["ghlab.locus"]),
    ("geometry", "schur_complement", "ghlab.geometry",
     ["ghlab.geometry", "ghlab.locus", "ghlab.kernels", "ghlab.holo"]),
    ("glue", "glue_weight", "ghlab.glue", ["ghlab.glue"]),
]

LAYERS = ["quadrature", "kernels", "ansatz", "frame", "holo", "locus",
          "geometry", "glue"]


def _resolve(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _work(name: str, args: tuple, kwargs: dict, result) -> tuple[int, bool]:
    """Work count of one call and whether it was a converged result."""
    if name == "power_kernel_integral":
        return int(result.evals), bool(result.converged)
    if name == "alpha_batch":
        return len(kwargs.get("points", args[2] if len(args) > 2 else ())), True
    if name in ("alpha", "alpha_grad"):
        return 1, True
    if name == "jet":
        return len(kwargs.get("points", args[1] if len(args) > 1 else ())), True
    return 0, True


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []     # (layer, span name)
        # (name id, start, end, parent span, point, work, converged)
        self.spans: list[tuple | None] = []
        self.point = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[str, str], object] = {}

    def _wrap(self, layer: str, label: str, fn):
        nid = len(self.names)
        self.names.append((layer, label))
        name = fn.__name__
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.point, 0, True)
            work, ok = _work(name, args, kwargs, result)
            if work or not ok:
                spans[idx] = (nid, t0, t1, parent, self.point, work, ok)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, func, owner, sites in SITES:
            original = getattr(_resolve(owner), func)
            if (owner, func) not in self._wrappers:
                label = (f"{owner.partition(':')[2]}.{func}" if ":" in owner
                         else func)
                self._wrappers[owner, func] = self._wrap(layer, label, original)
            wrapper = self._wrappers[owner, func]
            for site in sites:
                target = _resolve(site)
                if getattr(target, func) is not original:
                    raise RuntimeError(f"{site}.{func} is not {owner}.{func}")
                self._saved.append((target, func, original))
                setattr(target, func, wrapper)

    def uninstall(self) -> None:
        for target, func, original in reversed(self._saved):
            setattr(target, func, original)
        self._saved.clear()

    def layer_metrics(self, points: set[int]) -> dict[str, float]:
        """Per-layer counts and self times over the spans of ``points``."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self_s = defaultdict(float)
        layer_calls = defaultdict(int)
        label_calls = defaultdict(int)
        work = defaultdict(int)
        unconverged = 0
        for idx, span in enumerate(self.spans):
            if span is None or span[4] not in points:
                continue
            layer, label = self.names[span[0]]
            self_s[layer] += span[2] - span[1] - child_time[idx]
            layer_calls[layer] += 1
            label_calls[label] += 1
            work[layer] += span[5]
            unconverged += not span[6]
        n_q = layer_calls["quadrature"]
        nodes = work["quadrature"]
        n_k = layer_calls["kernels"]
        n_j = layer_calls["ansatz"]
        n_s = layer_calls["geometry"]
        out = {
            "quadrature.calls": n_q,
            "quadrature.nodes": nodes,
            "quadrature.nodes_per_call": nodes / n_q if n_q else 0.0,
            "quadrature.ns_per_node": (1e9 * self_s["quadrature"] / nodes
                                       if nodes else 0.0),
            "quadrature.unconverged": unconverged,
            "kernels.calls": n_k,
            "kernels.rows_per_call": work["kernels"] / n_k if n_k else 0.0,
            "ansatz.jet_calls": n_j,
            "ansatz.points_per_jet": work["ansatz"] / n_j if n_j else 0.0,
            "frame.calls": layer_calls["frame"],
            "holo.gamma_calls": label_calls["gamma"],
            "holo.log_z_calls": label_calls["log_z"],
            "locus.calls": layer_calls["locus"],
            "geometry.schur_calls": n_s,
            "geometry.schur_per_point": n_s / len(points) if points else 0.0,
            "glue.calls": layer_calls["glue"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [list(s) for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"names": [list(n) for n in self.names],
                       "fields": ["name", "start", "end", "parent", "point",
                                  "work", "converged"],
                       "spans": rows}, fh)
