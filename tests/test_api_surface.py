"""No orphan API: every name ``ghlab`` exports is reached by something other
than its own test, and every field of a result it exports is read.

A name is reached when a chain of references leads to it from a root: the
CLI (every top-level definition of ``ghlab.cli``, which runs the
experiments and, through ``ghlab.checks``, the acceptance criteria), the
benchmark under ``perfbench/``, or an entry of ``ORACLES``.  References are
read from the source: within a module a bare name resolves to that
module's definition or import, and ``module.name`` to the named module's
definition.  A definition counts whole, so a class reaches whatever its
methods use.  Nothing is imported or run but ``ghlab`` itself.

A field of a public dataclass or NamedTuple of a ``ghlab`` module is read
when ``.field`` is loaded in ``src/ghlab`` outside its class's own dunder
methods (a class's other methods and properties count, as callers reach
them), in ``perfbench/``, or it is named in ``KEPT_FIELDS``.  Loading a
field only to append to it or to store into it is no read.  Fields are
matched by name, so a field shares the reads of every field so named.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import ghlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ghlab"

# Exported names that only tests reach, each beside the test that holds a
# primary path against it.
ORACLES = (
    # the one-slot closed form of the folded gammas
    "gamma_closed_form",      # test_holo.py::test_gamma_against_closed_form_one_slot
    # the gammas by quadrature along the ray, not folded into the cone
    "gamma_via_ray",          # test_holo.py::test_gamma_two_routes_agree_two_slots
    # the glue scale that glue_weight reads through locus._rho
    "rho_IJ",                 # test_locus.py::test_rho_matches_direct_schur
    # the exact swap of label 0, inside the scipy oracle that the one-pass
    # stratum distances are held against
    "zero_swap",              # test_locus.py::test_closed_distance_against_scipy
    # the stratum split of the volume defect: the remainder of a stratum's
    # model field, and the depth weights, per stratum against one pass
    "restricted_remainders",  # test_ansatz.py::test_restricted_remainders_small_near_stratum
    "weight_ell",             # test_ansatz.py::TestWeightExponents::test_one_pass_equals_per_stratum_minimum
)

# Result fields that no library code or benchmark reads, each beside the
# test or ROADMAP item that reads it.
KEPT_FIELDS = (
    "FlatFieldResult.x",                      # test_ansatz.py::TestFlatModel::test_defining_polynomial
    "FlatFieldResult.z_squared",              # test_ansatz.py::TestFlatModel::test_moduli_squares_consistent
    "FlatFieldResult.on_locus",               # test_ansatz.py::TestFlatModel::test_on_locus_detection
    "SigmaExpansion.sigmas",                  # test_ansatz.py::TestSigmaExpansion::test_sigma1_is_trace_term
    "SigmaExpansion.relative_error_det_route",  # test_ansatz.py::TestSigmaExpansion::test_two_routes_agree
    "SigmaExpansion.det_identity_gap",        # test_ansatz.py::TestSigmaExpansion::test_two_routes_agree
    # the decay fit that ROADMAP item 9 extends into the model/remainder split
    "DecayFit.intercept",                     # ROADMAP item 9
    "DecayFit.max_residual",                  # ROADMAP item 9
    "DecayFit.radii",                         # ROADMAP item 9
    "DecayFit.scales",                        # ROADMAP item 9
    # read by asdict into every sidecar's config and config hash
    "ExperimentConfig.schema_version",        # test_cli.py::test_flat_cy_writes_csv_and_sidecar
    "GlueWeight.in_domain",                   # test_glue.py::TestGlueWeight::test_domain_flag_and_enforcement
    "Projection.interior",                    # test_locus.py::test_project_frozen_example
    "RegionReport.distances",                 # test_locus.py::test_table_shared_across_threads
    # node counts and sheet distances for the library counters
    "QuadResult.r_star",                      # ROADMAP item 5
    # the largest quad_error, for the CSV detail column
    "FieldJet.quad_error",                    # ROADMAP item 5
)


def _module_graph():
    """Per (module, name) of every top-level definition in ``src/ghlab``
    but ``__init__``, the (module, name) pairs it refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")
             if path.stem != "__init__"}
    graph = {}
    for mod, tree in trees.items():
        defs, names = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id != "__all__":
                        defs[t.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    # "from . import m" names a module, "from .m import x" a definition
                    names[a.asname or a.name] = (
                        (a.name, None) if node.module is None else (node.module, a.name))
        for name in defs:
            names[name] = (mod, name)

        def refs(node, names=names):
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    target = names[sub.id]
                    if target[1] is not None:
                        out.add(target)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    target = names.get(sub.value.id)
                    if target is not None and target[1] is None:   # module.name
                        out.add((target[0], sub.attr))
            return out

        for name, node in defs.items():
            graph[mod, name] = refs(node)
    return graph


def _benchmark_words():
    """Every identifier and string constant in ``perfbench/``, which patches
    library functions by name."""
    words = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.add((node.asname or node.name).split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.update(re.findall(r"\w+", node.value))
    return words


def _reached():
    graph = _module_graph()
    words = _benchmark_words() | set(ORACLES)
    todo = [key for key in graph if key[0] == "cli" or key[1] in words]
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(graph.get(key, ()))
    return seen


def test_every_export_is_reached():
    reached = _reached()
    exports = [name for name in ghlab.__all__
               if not isinstance(getattr(ghlab, name), type(ghlab))]
    orphans = [name for name in exports
               if (getattr(ghlab, name).__module__.rsplit(".", 1)[-1], name) not in reached]
    assert not orphans, f"exported, but reached only by tests: {orphans}"


def test_oracles_are_exported():
    assert set(ORACLES) <= set(ghlab.__all__)


def _reads(tree, imported=frozenset()):
    """Every attribute name that ``tree`` loads for its value, but from a
    name in ``imported`` (``sys.path`` reads no field)."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            up = parents.get(node)
            stored = isinstance(up, ast.Subscript) and not isinstance(up.ctx, ast.Load)
            appended = isinstance(up, ast.Attribute) and up.attr in ("append", "extend")
            of_import = isinstance(node.value, ast.Name) and node.value.id in imported
            if not (stored or appended or of_import):
                out.add(node.attr)
    return out


def _imported(tree):
    return frozenset(a.asname or a.name.split(".")[0] for node in tree.body
                     if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names)


def _result_fields():
    """(module, class, field) of every field of a public dataclass or
    NamedTuple of a ``ghlab`` module."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"ghlab.{path.stem}")
        for name, cls in vars(mod).items():
            if (name.startswith("_") or not isinstance(cls, type)
                    or cls.__module__ != mod.__name__):
                continue
            if dataclasses.is_dataclass(cls):
                out += [(path.stem, name, f.name) for f in dataclasses.fields(cls)]
            elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                out += [(path.stem, name, f) for f in cls._fields]
    return out


def test_every_result_field_is_read():
    reads = {}   # per (module, class) the reads of its dunder methods, else None
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            for part in node.body if isinstance(node, ast.ClassDef) else [node]:
                own = (isinstance(node, ast.ClassDef) and isinstance(part, ast.FunctionDef)
                       and part.name.startswith("__"))
                key = (path.stem, node.name) if own else None
                reads.setdefault(key, set()).update(_reads(part, _imported(tree)))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        reads[None] |= _reads(tree, _imported(tree))
    unread = [f"{cls}.{field}" for mod, cls, field in _result_fields()
              if f"{cls}.{field}" not in KEPT_FIELDS
              and not any(field in r for key, r in reads.items() if key != (mod, cls))]
    assert not unread, f"result fields that nothing reads: {unread}"


def test_kept_fields_exist():
    assert set(KEPT_FIELDS) <= {f"{cls}.{field}" for _, cls, field in _result_fields()}
