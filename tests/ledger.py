"""The verdict ledger: every row of each experiment's acceptance run,
``ghlab <experiment>`` with no flags, as committed in ``ledger.json``.

Per experiment the file holds each row's case, its value, target and
tolerance as ``repr``, its verdict and its config hash.  The tests of
``test_acceptance.py`` hold the rows of the runs they make to it exactly,
so a moved value or a moved tolerance fails tier-1 by name.

After a change that moves rows on purpose, run from the repository root

    python -m tests.ledger --write

which runs every entry, rewrites the file and prints each moved field old
-> new with its relative change.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "ledger.json"
FIELDS = ("value", "target", "tol", "passed", "config_hash")
MOVED = "rows moved from tests/ledger.json (python -m tests.ledger --write rewrites it):\n"


def entry(rows) -> list[dict]:
    """The ledger rows of ``cli.ResultRow``s, in their order."""
    return [{"case": r.case, "value": repr(float(r.value)), "target": repr(float(r.target)),
             "tol": repr(float(r.tol)), "passed": bool(r.passed),
             "config_hash": r.config_hash} for r in rows]


@functools.lru_cache(maxsize=None)
def load() -> dict:
    """The committed ledger, read once."""
    return json.loads(LEDGER.read_text()) if LEDGER.is_file() else {}


def _rel(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
        return ""
    return f"{(b - a) / abs(a):+.2e}" if a else "inf"


def moves(key: str, old: list[dict] | None, new: list[dict]) -> list[str]:
    """One line per field that differs between two entries, old -> new."""
    if old is None:
        return [f"{key}: not in the ledger"]
    was = {r["case"]: r for r in old}
    now = {r["case"]: r for r in new}
    out = [f"{key}/{case}: row {'gone' if case in was else 'new'}"
           for case in sorted(set(was) ^ set(now))]
    for case in sorted(set(was) & set(now)):
        for f in FIELDS:
            a, b = was[case][f], now[case][f]
            if a != b:
                out.append(f"{key}/{case} {f}: {a} -> {b} {_rel(str(a), str(b))}".rstrip())
    return out


def collect() -> dict:
    """Every registered experiment's rows, run afresh as ``ghlab
    <experiment>`` with no flags runs them."""
    from ghlab.cli import EXPERIMENTS, ExperimentConfig, run

    return {exp: entry(run(ExperimentConfig.load(exp, None, None)))
            for exp in sorted(EXPERIMENTS)}


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print("usage: python -m tests.ledger --write", file=sys.stderr)
        return 2
    if str(HERE.parent / "src") not in sys.path:
        sys.path.insert(0, str(HERE.parent / "src"))
    old, new = load(), collect()
    moved = [line for key in sorted(set(old) | set(new))
             for line in (moves(key, old.get(key), new[key]) if key in new
                          else [f"{key}: entry gone"])]
    # one row a line, so that a diff of the file names the rows that moved
    LEDGER.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in rows) + "\n ]"
        for key, rows in new.items()) + "\n}\n")
    print("\n".join(moved) if moved else "no row moved")
    print(f"wrote {len(new)} entries, {sum(map(len, new.values()))} rows, to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
