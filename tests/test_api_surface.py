"""No orphan API: every name ``ghlab`` exports is reached by something other
than its own test, and every field of a result it exports is read.

A name is reached when a chain of references leads to it from a root: the
CLI (every top-level definition of ``ghlab.cli``, which runs the
experiments and, through ``ghlab.checks``, the acceptance criteria) or the
benchmark under ``perfbench/``.  References are
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

A defaulted parameter of a public function or method, or a defaulted field
of a public dataclass or NamedTuple, is settable; it is passed when a call
in ``src/ghlab`` outside its own definition, or in ``perfbench/``, gives it
by keyword or by position, or it is named in ``KEPT_PARAMS``.  Calls are
matched by the name they call (a constructor by its class name, or ``cls``
within the class), so a parameter shares the calls of every function,
method or class so named; a starred argument may fill any later position
and a ``**`` argument any keyword.
"""

import ast
import dataclasses
import functools
import importlib
import math
import re
from collections import Counter
from pathlib import Path

import ghlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ghlab"

# Public methods of exported classes that only tests reach, each beside the
# test that holds a primary path against it.
ORACLE_METHODS = ()

# Result fields that no library code or benchmark reads, each beside the
# test or ROADMAP item that reads it.
KEPT_FIELDS = (
    "FlatFieldResult.x",                      # test_ansatz.py::TestFlatModel::test_defining_polynomial
    "FlatFieldResult.z_squared",              # test_ansatz.py::TestFlatModel::test_moduli_squares_consistent
    "FlatFieldResult.on_locus",               # test_ansatz.py::TestFlatModel::test_on_locus_detection
    "SigmaExpansion.sigmas",                  # test_ansatz.py::TestSigmaExpansion::test_sigma1_is_trace_term
    # the decay fit that ROADMAP item 30 extends into the model/remainder split
    "DecayFit.intercept",                     # ROADMAP item 30
    "DecayFit.max_residual",                  # ROADMAP item 30
    "DecayFit.scales",                        # ROADMAP item 30
    "GlueWeight.in_domain",                   # test_glue.py::TestGlueWeight::test_domain_flag_and_enforcement
    "Projection.interior",                    # test_locus.py::test_project_frozen_example
    # the inner regions B''_I and far levels F_s, pinned by the covering-tags digest
    "RegionReport.near_core",                 # test_locus.py::test_region_covering_and_tags
    "RegionReport.far_levels",                # test_locus.py::test_region_covering_and_tags
    # node counts and sheet distances for the library counters
    "QuadResult.r_star",                      # ROADMAP item 5
    # the largest quad_error, for the CSV detail column
    "FieldJet.quad_error",                    # ROADMAP item 5
)

# Settable values that no library code or benchmark passes, each beside the
# reason it stays settable.
KEPT_PARAMS = (
    # the console script calls main() and argparse reads sys.argv
    "main.argv",                              # test_cli.py::run
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
    words = _benchmark_words()
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


def _method_reads():
    """Every attribute name loaded in ``src/ghlab``, counted, and the same
    count within each method body, per (class, method)."""
    total, own = Counter(), {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        total.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                own[cls.name, fn.name] = Counter(
                    n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute))
    return total, own


def test_every_public_method_is_reached():
    # a public method (or property) of an exported class is reached when
    # ``.name`` is loaded in src/ghlab outside its own body, when the
    # benchmark names it, or when ORACLE_METHODS lists it
    total, own = _method_reads()
    words = _benchmark_words()
    exported = {name for name in ghlab.__all__ if isinstance(getattr(ghlab, name), type)}
    orphans = [f"{cls}.{fn}" for (cls, fn), mine in own.items()
               if cls in exported and not fn.startswith("_") and fn not in words
               and f"{cls}.{fn}" not in ORACLE_METHODS and total[fn] == mine[fn]]
    assert not orphans, f"public methods reached only by tests: {orphans}"


def _settables():
    """(callee, owner.param, position, excluded) of every defaulted
    parameter of a public function or method, and every defaulted field of
    a public dataclass or NamedTuple, in ``src/ghlab``.  ``callee`` is the
    name a call uses, ``position`` the index of a positional argument that
    sets it (None when keyword-only), ``excluded`` the definitions whose
    own calls do not count."""
    out = []
    for path, tree in _trees().items():
        if path.parent != SRC:
            continue
        mod = importlib.import_module(f"ghlab.{path.stem}")
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                out += [(node.name, f"{node.name}.{arg}", pos, {node})
                        for arg, pos in _defaulted(node.args)]
            elif isinstance(node, ast.ClassDef):
                dunders = {fn for fn in node.body if isinstance(fn, ast.FunctionDef)
                           and fn.name.startswith("__")}
                cls = getattr(mod, node.name)
                if dataclasses.is_dataclass(cls):
                    fields = [f for f in dataclasses.fields(cls) if f.init]
                    out += [(node.name, f"{node.name}.{f.name}", pos, dunders)
                            for pos, f in enumerate(fields)
                            if f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING]
                elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                    out += [(node.name, f"{node.name}.{f}", cls._fields.index(f), dunders)
                            for f in cls._field_defaults]
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                            fn.name == "__init__" or not fn.name.startswith("_")):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list)
                        callee = node.name if fn.name == "__init__" else fn.name
                        out += [(callee, f"{node.name}.{fn.name}.{arg}",
                                 None if pos is None else pos - (not static), {fn})
                                for arg, pos in _defaulted(fn.args)]
    return out


def _defaulted(args):
    """(name, position) of each defaulted parameter, position None for a
    keyword-only one."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


@functools.lru_cache(maxsize=None)
def _trees():
    """The parsed modules of ``src/ghlab`` and ``perfbench/``, parsed once
    so that a call's enclosing definitions are the settables' own nodes."""
    return {path: ast.parse(path.read_text())
            for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]}


def _calls():
    """(callee, positional count, keywords, enclosing definitions) of every
    call in ``src/ghlab`` and ``perfbench/``; a starred argument counts as
    every position, a ``**`` argument as the keyword ``**``."""
    out = []

    def visit(node, enclosing, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "cls" and cls is not None:
                    name = cls
                npos = (math.inf if any(isinstance(a, ast.Starred) for a in child.args)
                        else len(child.args))
                out.append((name, npos, {k.arg or "**" for k in child.keywords}, enclosing))
            inner = enclosing | {child} if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else enclosing
            visit(child, inner, child.name if isinstance(child, ast.ClassDef) else cls)

    for tree in _trees().values():
        visit(tree, frozenset(), None)
    return out


def test_every_settable_value_is_set():
    # a default that no caller but the tests ever overrides is a constant
    by_name = {}
    for name, npos, kws, enclosing in _calls():
        by_name.setdefault(name, []).append((npos, kws, enclosing))
    unset = [label for callee, label, pos, excluded in _settables()
             if label not in KEPT_PARAMS
             and not any(not (enclosing & excluded)
                         and (label.rsplit(".", 1)[-1] in kws or "**" in kws
                              or (pos is not None and npos > pos))
                         for npos, kws, enclosing in by_name.get(callee, ()))]
    assert not unset, f"settable values that only tests set: {unset}"


def test_kept_params_exist():
    assert set(KEPT_PARAMS) <= {label for _, label, _, _ in _settables()}


def test_numpy_internals_are_bound_in_geometry_alone():
    # geometry's small dense linear algebra section binds each private numpy
    # name once; every other module reads its bindings
    found = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py")) if path.name != "geometry.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "_umath_linalg" in line or "__wrapped__" in line]
    assert not found, f"numpy internals named outside geometry.py: {found}"
