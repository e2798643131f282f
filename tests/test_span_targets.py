"""perfbench traces the program by the names in ``perfbench/spans.py``.
A name that no longer resolves is skipped there and its metrics read 0, so
a change that moves or renames a traced function must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from larspath.core import fit_path
from larspath.datasets import load_diabetes
from larspath.model_select import run_simulation_study
from larspath.preprocess import quadratic_expand, standardize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets whose code is gone: the module ``kernels``, the Gram cache's
# column lookup and ``CholeskyFactor.from_gram`` (``linalg.refactor``, whose
# one metric, the refactors under ``cholesky_drop``, already read 0).
DEAD = {"kernels.givens_downdate", "core.gram.column", "linalg.refactor"}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
    unresolved = {name for name, (module, attr, *_) in _spans().TARGETS.items()
                  if not _resolves(module, attr)}
    assert unresolved <= DEAD, sorted(unresolved - DEAD)


def _stagewise_wide():
    r = np.random.default_rng(0)
    X = r.normal(size=(30, 80))
    fit_path(standardize(X, X @ r.normal(size=80) + r.normal(size=30)), "stagewise")


def _stagewise_diabetes_64():
    matrix, response, names = load_diabetes()
    expanded, labels = quadratic_expand(matrix, 1, names)
    fit_path(standardize(expanded, response, labels), "stagewise")


def _simulation_study():
    matrix, response, _ = load_diabetes()
    run_simulation_study(matrix, response, replications=2, n_steps=3)


# perfbench's must-count targets (``MUST_COUNT`` in its tests), each with a
# small run of the code that its workload calls it through.
@pytest.mark.parametrize("target, run", [
    ("core.gram.stack", _stagewise_wide),
    ("linalg.nnls_inner_loop", _stagewise_diabetes_64),
    ("oracles.forward_selection", _simulation_study),
], ids=["wide", "diabetes", "resample"])
def test_perfbench_must_count_targets_are_called(target, run):
    """perfbench's tracer counts calls of each target on a small run of its
    workload's code: a change that routes the work around a target would
    read 0 there, and fails here in tier-1."""
    tracer = _spans().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    assert tracer.name.count(target) > 0
