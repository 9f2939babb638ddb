"""The benchmark's tracer wraps library functions at the import sites it
lists in ``perfbench/tracing.py``; every listed site must still hold the
owner's original, or the traced run refuses to install.  Nothing is
patched here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolve(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def test_traced_sites_hold_the_owners_originals():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)   # stdlib imports only
    for _, func, owner, sites in tracing.SITES:
        original = getattr(_resolve(owner), func)
        for site in sites:
            assert getattr(_resolve(site), func) is original, (site, func)
