"""The equivalence corpus: a fixed list of seeded designs, each fitted with
every variant, in full and with ``stop_after=3``, and with
``forward_selection``.

    python tests/corpus.py --against <src dir> [--time] [--pairs N]

imports this checkout's ``src/larspath`` and the ``larspath`` package under
``<src dir>`` (as ``larspath_against``) side by side, fits the corpus with
both, and compares every fit: the ``betas`` bytes, every recorded column of
the path, and for a fit that raises, the exception's type name and message.
It prints each fit that differs with its first differing field, and exits
1 if any does.  Both trees fit the same design objects, built by this
checkout.

``--time`` then runs an interleaved A/B: on each timing design and variant,
``--pairs`` pairs of fits (31 by default), alternating which tree goes
first, with one design object shared by both trees, since where a design's
arrays sit in memory moves a 100 x 1000 fit by up to 10%.  It prints each
tree's median time and the median of the per-pair ratios, this checkout
over the other.  Run it with ``OPENBLAS_NUM_THREADS=1``.
"""

import argparse
import importlib.util
import statistics
import sys
import time
import warnings
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


def outcome(fit, tree):
    """What ``fit`` gives on ``tree``, by field: the variant, the ``betas``
    bytes and every recorded column of the path, or the type name and
    message of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = fit(tree)
    except Exception as exc:  # a refusal, or any other failure, is compared
        return {"raised": (type(exc).__name__, str(exc))}
    fields = {"variant": path.variant, "betas": _canonical(path.betas)}
    for name, column in path.steps.columns.items():
        fields[name] = _canonical(column)
    return fields


def first_difference(ours, theirs):
    """The first field in which two outcomes differ, or None; ``raised``
    when only one of them raised."""
    for name in dict.fromkeys(["raised", *ours, *theirs]):
        if ours.get(name) != theirs.get(name):
            return name
    return None


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


def compare(against):
    """Fit the corpus with both trees; print each fit that differs and
    return how many did."""
    n_fits = n_changed = 0
    for design_name, design in designs().items():
        for fit_name, fit in fits(design).items():
            n_fits += 1
            ours, theirs = outcome(fit, larspath), outcome(fit, against)
            name = first_difference(ours, theirs)
            if name is not None:
                n_changed += 1
                print(f"DIFFERS {design_name} {fit_name}: {name}")
    print(f"{n_fits - n_changed} of {n_fits} fits identical")
    return n_changed


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
                tree.fit_path(design, variant)
            times = ([], [])
            for i in range(pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    trees[side].fit_path(design, variant)
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
    parser.add_argument("--time", action="store_true",
                        help="also run the interleaved timing A/B")
    parser.add_argument("--pairs", type=int, default=31,
                        help="pairs of fits per design and variant in the A/B")
    args = parser.parse_args(argv)
    against = load_tree(args.against)
    n_changed = compare(against)
    if args.time:
        time_ab(against, args.pairs)
    return 1 if n_changed else 0


if __name__ == "__main__":
    sys.exit(main())
