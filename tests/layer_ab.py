"""In-process A/B timing of ghlab's layers: this checkout against another tree.

    python -m tests.layer_ab PATH/TO/OTHER/src [LAYER ...]

imports this checkout's ``src/ghlab`` and the other tree's as two packages
side by side (ghlab imports itself relatively, so a copy loads under any
name), times each layer on both trees alternately, round by round, and
prints per layer each tree's min and median time per call, the ratio of
the other's median to this one's, and whether the two trees' outputs are
bitwise equal; it exits 1 if any layer's are not.  Without LAYER names
every layer runs.  Speed from one run to the next on a shared box swings
by more than a small change's effect; two timings taken a moment apart in
one process do not.

Layers: ``field-n3`` and ``holo-n2`` are perfbench's point bundles on fresh
forms (each round draws new ``QuadForm`` objects of the same entries, so a
point pays for its form's derived data, as in the benchmark); ``wedge`` is
one N = 3 kernel's engine call for the powers p and p + 2, asked in each
tree's own terms, ``alpha_grad``, ``alpha_hessian`` (the whole family, its
gradients and Hessians) and ``integrability_residual`` are one-row calls
on a form whose derived data is built, and ``levels`` is
``kernels._levels`` on a fresh N = 3 form.  ``criterion-12`` is
``checks.integrability_gap`` at N = 4, the swept path that no benchmark
workload reaches, on a fixed random form (fresh each round) and 10
off-locus points.  ``strata-n4`` is perfbench's
point bundle: ``region_membership`` on a shared N = 4 form and on a fresh
N = 3 form that the point builds from its entries, then two criterion 10
``glue_weight`` calls on the identity form (the shared forms are new each
round, their derived data built before the timing, as a benchmark run
builds it on its first point); ``region_membership`` and ``glue_weight``
are those one-point calls on a form whose derived data is built, and
``table`` is ``locus._table`` on a fresh N = 3 form.  A region report
compares by its strata's members, not by its ``IndexSet`` objects.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1] / "src"

# rounds per layer, each timing both trees once, in alternating order
ROUNDS = 7


def load(src: Path, name: str):
    """The ghlab package under ``src`` imported as the top-level ``name``."""
    init = Path(src) / "ghlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(0.5, 2.5, n)) @ q.T


def _points(rng: np.random.Generator, N: int, count: int) -> list[tuple]:
    out = []
    for _ in range(count):
        r, th = rng.uniform(0.3, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        out.append((rng.uniform(-2.0, 2.0, N), r * complex(math.cos(th), math.sin(th))))
    return out


def _field_n3(g, count: int):
    """``count`` perfbench field-n3 points: criterion 12's residual and six
    one-row gradients, each point on a fresh form."""
    rng = np.random.default_rng(4311)
    forms, points = [], []
    while len(forms) < count:
        A = g.QuadForm(_spd(rng, 3))
        (mu, eta), = _points(rng, 3, 1)
        p = g.BasePoint(mu, eta)
        if g.dist_locus(A, p) > 0.5:
            forms.append(A.entries)
            points.append(p)
    quad, labels = g.QuadratureSpec(), [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def prepare():
        return [g.QuadForm(a) for a in forms]

    def run(fresh):
        out = []
        for A, p in zip(fresh, points):
            res = g.integrability_residual(g.FirstOrderField(A, quad), p)
            out.append([res.first, res.second, res.first_scale, res.second_scale])
            out += [g.alpha_grad(g.KernelSpec(A, ij), quad, p).gradient for ij in labels]
        return out
    return prepare, run, count


def _holo_n2(g, count: int):
    """``count`` perfbench holo-n2 points: both gamma sums and one log_z
    path, each point on a fresh form."""
    rng = np.random.default_rng(4242)
    forms = [_spd(rng, 2) for _ in range(count)]
    points = [g.BasePoint(*pt) for pt in _points(rng, 2, count)]
    quad = g.QuadratureSpec(abs_tol=1e-11)
    I1, I2 = g.IndexSet((0, 1)), g.IndexSet((0, 1, 2))

    def prepare():
        return [g.QuadForm(a) for a in forms]

    def run(fresh):
        out = []
        for A, p in zip(fresh, points):
            out += [g.gamma_sum_check(g.GammaSpec(A, I, quad), p).scaled_gap for I in (I1, I2)]
            ref = g.BasePoint(np.array([2.0 + abs(p.mu[0]), p.mu[1]]), p.eta)
            out.append(g.log_z(A, I1, quad, p, [ref, p], np.zeros(2)).values)
        return out
    return prepare, run, count


def _warm_n3(g):
    """A fixed N = 3 form with its derived data built, and a point off its locus."""
    A = g.QuadForm(np.array([[1.5, 0.2, 0.1], [0.2, 1.2, -0.3], [0.1, -0.3, 0.9]]))
    p = g.BasePoint(np.array([0.8, -0.5, 0.4]), 0.6 + 0.2j)
    g.integrability_residual(g.FirstOrderField(A, g.QuadratureSpec()), p)
    return A, p, g.QuadratureSpec()


def _repeat(call, reps: int):
    def prepare():
        return None

    def run(_):
        return [call() for _ in range(reps)][-1]
    return prepare, run, reps


def _wedge(g, reps: int):
    A, p, quad = _warm_n3(g)
    fam = g.kernels._family(A, (1, 2))
    mu, eta = p.mu[None], np.array([p.eta])

    # a tree whose engine takes a flag for p + 2, not a count of powers
    flag = "plus_two" in g.quadrature.QuadResult.__dataclass_fields__

    def call():
        res = g.kernels._engine_batch(fam, mu, eta, quad, True if flag else 2)
        return [res.value, res.plus_two if flag else res.higher[0], res.faces]
    return _repeat(call, reps)


def _alpha_grad(g, reps: int):
    A, p, quad = _warm_n3(g)
    spec = g.KernelSpec(A, (1, 2))
    return _repeat(lambda: g.alpha_grad(spec, quad, p).gradient, reps)


def _alpha_hessian(g, reps: int):
    A, p, quad = _warm_n3(g)
    mu, eta = p.mu[None], np.array([p.eta])
    return _repeat(lambda: g.kernels.alpha_hessian(A, quad, mu, eta)[-2:], reps)


def _residual(g, reps: int):
    A, p, quad = _warm_n3(g)
    field = g.FirstOrderField(A, quad)
    return _repeat(lambda: vars(g.integrability_residual(field, p)), reps)


def _criterion_12(g, count: int):
    """``count`` calls of criterion 12's residuals at N = 4, each on a
    fresh form of the same entries and the same 10 off-locus points."""
    checks = importlib.import_module(f"{g.__name__}.checks")
    rng = np.random.default_rng(4612)
    A = checks.random_spd(rng, 4)
    points = [checks.off_locus_point(rng, A) for _ in range(10)]

    def prepare():
        return [g.QuadForm(A.entries) for _ in range(count)]

    def run(fresh):
        return [checks.integrability_gap(B, points) for B in fresh]
    return prepare, run, count


def _levels(g, count: int):
    rng = np.random.default_rng(7)
    forms = [_spd(rng, 3) for _ in range(count)]

    def prepare():
        return [g.QuadForm(a) for a in forms]

    def run(fresh):
        return [[(lvl[1], lvl[2]) for lvl in g.kernels._levels(A)[:2]] for A in fresh]
    return prepare, run, count


def _region_points(rng: np.random.Generator, N: int, count: int) -> list[tuple]:
    """perfbench's region covering sampler: a log-uniform scale."""
    out = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-1, 3)
        out.append((rng.normal(size=N) * scale, complex(*rng.normal(size=2)) * scale))
    return out


def _plateau_points(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[tuple]:
    """perfbench's criterion 10 sampler: hull distance nu U(lo, hi) from the
    stratum (0, 1, 2) at N = 3."""
    out = []
    for _ in range(count):
        nu = 10.0 ** rng.uniform(5.3, 6.3)
        d = nu * rng.uniform(lo, hi)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        out.append((np.array([d * u[0], d * u[1], nu]), complex(d * u[2], 0.0)))
    return out


def _report(rep) -> list:
    """A region report's numbers: each stratum by its members."""
    return [[J.members for J in rep.near], [J.members for J in rep.near_core],
            rep.generic, rep.far_levels]


def _criterion_10(g, count: int):
    """The identity form at N = 3, the stratum (0, 1, 2), and ``count`` core
    and ``count`` outer plateau points of criterion 10."""
    consts = g.RegionConstants()
    chat, c0 = consts.chat(g.QuadForm.identity(3)), consts.c0
    rng = np.random.default_rng(4510)
    core = _plateau_points(rng, count, 0.05 / (4 * chat * c0), 0.9 / (4 * chat * c0))
    outer = _plateau_points(rng, count, 1.0 / (2 * c0), 0.98 / c0)
    return consts, g.IndexSet((0, 1, 2)), [g.BasePoint(*pt) for pt in core + outer]


def _strata_n4(g, count: int):
    """``count`` perfbench strata-n4 points: a region report on a shared
    N = 4 form and on a fresh N = 3 form, then a core and an outer glue weight."""
    rng = np.random.default_rng(4501)
    a4, a3 = _spd(rng, 4), [_spd(rng, 3) for _ in range(count)]
    pts4 = [g.BasePoint(*pt) for pt in _region_points(rng, 4, count)]
    pts3 = [g.BasePoint(*pt) for pt in _region_points(rng, 3, count)]
    consts, I, plateau = _criterion_10(g, count)

    def prepare():
        A4, Aid = g.QuadForm(a4), g.QuadForm.identity(3)
        g.region_membership(A4, consts, pts4[0])
        g.glue_weight(Aid, I, consts, plateau[0])
        return A4, Aid

    def run(forms):
        A4, Aid = forms
        out = []
        for k in range(count):
            out.append(_report(g.region_membership(A4, consts, pts4[k])))
            out.append(_report(g.region_membership(g.QuadForm(a3[k]), consts, pts3[k])))
            for p in (plateau[k], plateau[count + k]):
                w = g.glue_weight(Aid, I, consts, p)
                out.append([w.value, w.in_domain])
        return out
    return prepare, run, count


def _region_membership(g, count: int):
    rng = np.random.default_rng(4502)
    A = g.QuadForm(_spd(rng, 4))
    pts = [g.BasePoint(*pt) for pt in _region_points(rng, 4, count)]
    consts = g.RegionConstants()
    g.region_membership(A, consts, pts[0])

    def prepare():
        return None

    def run(_):
        return [_report(g.region_membership(A, consts, p)) for p in pts]
    return prepare, run, count


def _glue_weight(g, count: int):
    consts, I, plateau = _criterion_10(g, count // 2)
    A = g.QuadForm.identity(3)
    g.glue_weight(A, I, consts, plateau[0])

    def prepare():
        return None

    def run(_):
        return [vars(g.glue_weight(A, I, consts, p)) for p in plateau]
    return prepare, run, len(plateau)


def _table(g, count: int):
    rng = np.random.default_rng(4503)
    forms = [_spd(rng, 3) for _ in range(count)]

    def prepare():
        return [g.QuadForm(a) for a in forms]

    def run(fresh):
        return [[T.M, T.pg] for T in map(g.locus._table, fresh)]
    return prepare, run, count


# name: (builder, calls per round)
LAYERS = {
    "field-n3": (_field_n3, 16),
    "holo-n2": (_holo_n2, 32),
    "wedge": (_wedge, 100),
    "alpha_grad": (_alpha_grad, 100),
    "alpha_hessian": (_alpha_hessian, 50),
    "integrability_residual": (_residual, 50),
    "criterion-12": (_criterion_12, 1),
    "levels": (_levels, 50),
    "strata-n4": (_strata_n4, 32),
    "region_membership": (_region_membership, 100),
    "glue_weight": (_glue_weight, 100),
    "table": (_table, 50),
}


def _bytes(out) -> bytes:
    """Every number of an output, as bytes, in order, each list led by its length."""
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        return b"".join([np.int64(len(out)).tobytes(), *map(_bytes, out)])
    return np.asarray(out).tobytes()


def probe(other: Path, layers=tuple(LAYERS), rounds: int = ROUNDS) -> dict[str, dict]:
    """Per layer: each tree's per-call times over the rounds (seconds), and
    whether the outputs are bitwise equal."""
    pkgs = [load(HERE, "_ab_this"), load(Path(other), "_ab_other")]
    report = {}
    for name in layers:
        build, calls = LAYERS[name]
        cases = [build(g, calls) for g in pkgs]
        times, outs = [[], []], [None, None]
        for r in range(rounds):
            for t in ((0, 1) if r % 2 == 0 else (1, 0)):
                prepare, run, n = cases[t]
                args = prepare()
                start = time.perf_counter()
                outs[t] = run(args)
                times[t].append((time.perf_counter() - start) / n)
        report[name] = {"this": times[0], "other": times[1],
                        "equal": _bytes(outs[0]) == _bytes(outs[1])}
    return report


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    layers = args[1:] or list(LAYERS)
    unknown = [name for name in layers if name not in LAYERS]
    if unknown:
        print(f"unknown layers {unknown}; layers are {list(LAYERS)}", file=sys.stderr)
        return 2
    print(f"{'layer':24} {'this min/med us':>20} {'other min/med us':>20} "
          f"{'other/this':>10}  bitwise")
    report = probe(Path(args[0]), layers)
    for name, rep in report.items():
        a, b = rep["this"], rep["other"]
        print(f"{name:24} {min(a) * 1e6:9.1f} {statistics.median(a) * 1e6:9.1f} "
              f"{min(b) * 1e6:10.1f} {statistics.median(b) * 1e6:9.1f} "
              f"{statistics.median(b) / statistics.median(a):10.3f}  "
              f"{'equal' if rep['equal'] else 'DIFFER'}")
    # outputs that differ fail the run, so the probe can gate a bitwise claim
    return 0 if all(rep["equal"] for rep in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
