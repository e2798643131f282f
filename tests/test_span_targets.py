"""perfbench traces the program by the names in ``perfbench/spans.py``.
A name that no longer resolves is skipped there and its metrics read 0, so
a change that moves or renames a traced function must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets whose code is gone: the module ``kernels`` and the Gram cache's
# column lookup.  Their metrics already read 0.
DEAD = {"kernels.givens_downdate", "core.gram.column"}


def _resolves(module, attr):
    """Whether ``larspath.<module>`` binds ``attr`` (``Owner.name`` for a
    method) the way perfbench looks it up: in the owner's own namespace."""
    try:
        owner = importlib.import_module(f"larspath.{module}")
    except ImportError:
        return False
    owner_name, _, leaf = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return owner is not None and leaf in vars(owner)


def test_every_perfbench_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = {name for name, (module, attr, *_) in spans.TARGETS.items()
                  if not _resolves(module, attr)}
    assert unresolved <= DEAD, sorted(unresolved - DEAD)
