"""The equivalence corpus: a fixed list of seeded designs, each fitted with
every variant, in full and with ``stop_after=3``, and with
``forward_selection``.

    python tests/corpus.py --against <src dir> [--close] [--time] [--pairs N]

imports this checkout's ``src/larspath`` and the ``larspath`` package under
``<src dir>`` (as ``larspath_against``) side by side, fits the corpus with
both, and compares every fit.  Both trees fit the same design objects,
built by this checkout, so the corpus cannot see a change to
``preprocess``; measure one on designs each tree builds itself.

``exact`` (the default) compares the ``betas`` bytes, every recorded column
of the path, and for a fit that raises, the exception's type name and
message.  It prints each fit that differs with its first differing field,
and exits 1 if any does.

``--close`` compares to rounding, for a change that sums in another order.
A fit passes when its events are equal (``EVENT_FIELDS``), or its refusal
has the same type and message; when every beta is within ``CLOSE_RTOL`` of
the largest |beta| of the two paths; and when each of ``VALUE_FIELDS`` is
within ``CLOSE_RTOL`` of its column's largest magnitude.  It prints each
fit that fails, and the worst deviation over the corpus, and exits 1 if
any fit fails.

``--time`` then runs an interleaved A/B: on each timing design and variant,
``--pairs`` pairs of fits (31 by default), alternating which tree goes
first, with the arrays of one design object shared by both trees, since
where a design's arrays sit in memory moves a 100 x 1000 fit by up to 10%.
Each timed fit is cold: it gets a fresh ``dataclasses.replace(design)``,
built outside the timer, which shares those arrays but holds no X'X from
an earlier fit.  So a tall fit forms its Gram in both trees, and the A/B
times the walk, crediting neither tree with a Gram reused across fits.
It prints each tree's median time and the median of the per-pair ratios,
this checkout over the other.  Run it with ``OPENBLAS_NUM_THREADS=1``.
"""

import argparse
import importlib.util
import math
import statistics
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    # This checkout's package, ahead of any installed one.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import larspath  # noqa: E402
from larspath.core import VARIANTS, _max_active  # noqa: E402
from larspath.preprocess import (  # noqa: E402
    from_unit_columns,
    quadratic_expand,
    standardize,
)


def _gaussian(n, m, seed):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, m))
    return X, X @ r.normal(size=m) + r.normal(size=n)


def _correlated_pair(seed):
    """120 x 40 with x1 = 0.99 x0 + noise."""
    X, y = _gaussian(120, 40, seed)
    X[:, 1] = 0.99 * X[:, 0] + 0.1 * X[:, 1]
    return standardize(X, y)


def _in_span(seed):
    """80 x 9 with x8 = x0 + x1."""
    X, y = _gaussian(80, 9, seed)
    X[:, 8] = X[:, 0] + X[:, 1]
    return standardize(X, y)


def _quarters(seed):
    """16 x 6 with cells +-1/4, so every column has unit norm exactly."""
    r = np.random.default_rng(seed)
    X = 0.25 * r.choice([-1.0, 1.0], size=(16, 6))
    return from_unit_columns(X, r.integers(-4, 5, size=16).astype(float))


def _diabetes():
    """The paper's data: the 10 main effects, and the 64-column quadratic
    design."""
    matrix, response, names = larspath.load_diabetes()
    expanded, labels = quadratic_expand(matrix, 1, names)
    return {"diabetes10": standardize(matrix, response, names),
            "diabetes64": standardize(expanded, response, labels)}


def designs():
    """The corpus designs, by name, built once."""
    matrix, response, _ = larspath.load_diabetes()
    out = _diabetes()
    out["diabetes10+BMI"] = standardize(np.column_stack([matrix, matrix[:, 2]]),
                                        response)
    for seed in range(3):
        out[f"tall60x12/{seed}"] = standardize(*_gaussian(60, 12, seed))
        out[f"wide30x80/{seed}"] = standardize(*_gaussian(30, 80, seed))
        out[f"n<m10x25/{seed}"] = standardize(*_gaussian(10, 25, seed))
        out[f"pair120x40/{seed}"] = _correlated_pair(seed)
        out[f"span80x9/{seed}"] = _in_span(seed)
    for seed in range(5):
        out[f"quarters16x6/{seed}"] = _quarters(seed)
    for k in (2, 3, 4):
        out[f"eye{k}"] = from_unit_columns(np.eye(k), np.ones(k))
    return out


def fits(design):
    """The corpus fits of one design, by name: each is a function of the
    tree to fit with."""
    out = {}
    for variant in VARIANTS:
        out[variant] = lambda tree, v=variant: tree.fit_path(design, v)
        out[f"{variant} stop_after=3"] = (
            lambda tree, v=variant: tree.fit_path(design, v, stop_after=3))
    k_max = _max_active(design)
    out["forward_selection"] = lambda tree: tree.forward_selection(design, k_max)
    return out


def _canonical(value):
    """``value`` in a form that compares equal only when its bytes do."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    return value


def result(fit, tree):
    """The path that ``fit`` gives on ``tree``, or the exception it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fit(tree)
    except Exception as exc:  # a refusal, or any other failure, is compared
        return exc


def _exact(got):
    """A :func:`result` by field, as ``exact`` compares it: the variant,
    the ``betas`` bytes and every recorded column of the path, or the type
    name and message of what was raised."""
    if isinstance(got, Exception):
        return {"raised": (type(got).__name__, str(got))}
    fields = {"variant": got.variant, "betas": _canonical(got.betas)}
    for name, column in got.steps.columns.items():
        fields[name] = _canonical(column)
    return fields


def outcome(fit, tree):
    """What ``fit`` gives on ``tree``, by field, as ``exact`` compares it."""
    return _exact(result(fit, tree))


def first_difference(ours, theirs):
    """The first field in which two outcomes differ, or None; ``raised``
    when only one of them raised."""
    for name in dict.fromkeys(["raised", *ours, *theirs]):
        if ours.get(name) != theirs.get(name):
            return name
    return None


# What ``close`` requires equal, and what it requires near.
EVENT_FIELDS = ("action", "variable", "sign", "active_after", "signs_after",
                "projection_dropped")
VALUE_FIELDS = ("gamma", "C_max", "A", "rss", "T")
CLOSE_RTOL = 1e-9


def _deviation(ours, theirs):
    """The largest |ours - theirs|, relative to the largest magnitude in
    either: 0 when both are equal, inf when only the differences are
    nonzero."""
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    gap = float(np.abs(ours - theirs).max(initial=0.0))
    scale = max(float(np.abs(ours).max(initial=0.0)),
                float(np.abs(theirs).max(initial=0.0)))
    return gap / scale if scale else (0.0 if gap == 0 else math.inf)


def close_deviation(ours, theirs):
    """How far apart two :func:`result` values are, as ``close`` sees them:
    ``(field, deviation)``.  An event field (or ``raised``) that differs
    gives ``(field, inf)``; otherwise the field of the largest
    relative deviation among ``betas`` and ``VALUE_FIELDS``, and that
    deviation (``(None, 0.0)`` for two equal refusals)."""
    raised = isinstance(ours, Exception), isinstance(theirs, Exception)
    if any(raised):
        same = raised[0] and raised[1] and _exact(ours) == _exact(theirs)
        return (None, 0.0) if same else ("raised", math.inf)
    for name in EVENT_FIELDS:
        if (_canonical(ours.steps.columns[name])
                != _canonical(theirs.steps.columns[name])):
            return name, math.inf
    worst = "betas", _deviation(ours.betas, theirs.betas)
    for name in VALUE_FIELDS:
        deviation = _deviation(ours.steps.columns[name], theirs.steps.columns[name])
        if deviation > worst[1]:
            worst = name, deviation
    return worst


def load_tree(src):
    """The ``larspath`` package under ``src``, imported as
    ``larspath_against``."""
    init = Path(src) / "larspath" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "larspath_against", init, submodule_search_locations=[str(init.parent)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tree
    spec.loader.exec_module(tree)
    return tree


def compare(against, close=False):
    """Fit the corpus with both trees; print each fit that differs (under
    ``close``, each that fails, and the worst deviation) and return how
    many did."""
    n_fits = n_changed = n_failed = 0
    worst = (0.0, None, None)
    for design_name, design in designs().items():
        for fit_name, fit in fits(design).items():
            n_fits += 1
            ours, theirs = result(fit, larspath), result(fit, against)
            name = first_difference(_exact(ours), _exact(theirs))
            if name is None:
                continue
            n_changed += 1
            if not close:
                print(f"DIFFERS {design_name} {fit_name}: {name}")
                continue
            name, deviation = close_deviation(ours, theirs)
            if deviation >= worst[0]:
                worst = deviation, f"{design_name} {fit_name}", name
            if not deviation <= CLOSE_RTOL:
                n_failed += 1
                print(f"FAILS {design_name} {fit_name}: {name} {deviation:.3g}")
    print(f"{n_fits - n_changed} of {n_fits} fits identical")
    if not close:
        return n_changed
    print(f"{n_fits - n_failed} of {n_fits} fits within {CLOSE_RTOL:g}")
    if worst[1] is not None:
        print(f"worst deviation {worst[0]:.3g}: {worst[2]} of {worst[1]}")
    return n_failed


def timing_designs():
    """Designs for the A/B: the paper's data, and a tall and a wide
    Gaussian design."""
    return {**_diabetes(),
            "tall2000x200": standardize(*_gaussian(2000, 200, 11)),
            "wide100x1000": standardize(*_gaussian(100, 1000, 13))}


def time_ab(against, pairs):
    """Print the interleaved A/B of this checkout against ``against``."""
    trees = (larspath, against)
    print(f"{'design':14} {'variant':15} {'this ms':>9} {'other ms':>9} "
          f"{'ratio':>7} {'faster':>7}")
    for design_name, design in timing_designs().items():
        for variant in VARIANTS:
            for tree in trees:  # warm both
                tree.fit_path(replace(design), variant)
            times = ([], [])
            for i in range(pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    cold = replace(design)
                    start = time.perf_counter()
                    trees[side].fit_path(cold, variant)
                    times[side].append(time.perf_counter() - start)
            ratios = [a / b for a, b in zip(*times)]
            faster = sum(r < 1 for r in ratios)
            print(f"{design_name:14} {variant:15} "
                  f"{1e3 * statistics.median(times[0]):9.3f} "
                  f"{1e3 * statistics.median(times[1]):9.3f} "
                  f"{statistics.median(ratios):7.3f} {faster:4d}/{pairs}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="directory holding the larspath package to compare with")
    parser.add_argument("--close", action="store_true",
                        help="compare to rounding (events equal, values within "
                             f"{CLOSE_RTOL:g} of their scale) instead of by bytes")
    parser.add_argument("--time", action="store_true",
                        help="also run the interleaved timing A/B")
    parser.add_argument("--pairs", type=int, default=31,
                        help="pairs of fits per design and variant in the A/B")
    args = parser.parse_args(argv)
    against = load_tree(args.against)
    n_bad = compare(against, args.close)
    if args.time:
        time_ab(against, args.pairs)
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
