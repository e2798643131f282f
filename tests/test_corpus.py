"""The equivalence corpus (``tests/corpus.py``) tells a refit from a changed
path."""

import math
from pathlib import Path

import numpy as np
import pytest

import larspath
from larspath import core

import corpus


def test_a_refit_compares_equal_and_a_changed_vertex_does_not(design):
    def fit(tree):
        return tree.fit_path(design, "lasso")

    first = corpus.outcome(fit, larspath)
    assert corpus.first_difference(first, corpus.outcome(fit, larspath)) is None

    path = fit(larspath)
    betas = path.betas.copy()
    betas[3, 2] = np.nextafter(betas[3, 2], np.inf)
    columns = dict(path.steps.columns)
    columns["C_max"] = (*columns["C_max"][:3], np.nextafter(columns["C_max"][3], 0.0),
                        *columns["C_max"][4:])
    for vertices, field in ((core._Vertices(path.steps.columns, betas), "betas"),
                            (core._Vertices(columns, path.betas), "C_max")):
        changed = core.Path(path.variant, vertices, design)
        ours = corpus.outcome(lambda tree: changed, larspath)
        assert corpus.first_difference(first, ours) == field


def test_a_refusal_compares_by_type_and_message(design):
    def refused(message):
        def fit(tree):
            raise larspath.StalledPath(message)
        return corpus.outcome(fit, larspath)

    assert refused("at step 3") == {"raised": ("StalledPath", "at step 3")}
    assert corpus.first_difference(refused("at step 3"), refused("at step 4")) == "raised"
    fitted = corpus.outcome(lambda tree: tree.fit_path(design), larspath)
    assert corpus.first_difference(refused("at step 3"), fitted) == "raised"


def test_the_corpus_fits_the_same_bytes_twice(capsys):
    """This checkout against itself, imported a second time: every fit is
    identical, and the tool exits 0."""
    assert corpus.main(["--against", str(Path(larspath.__file__).parents[1])]) == 0
    assert capsys.readouterr().out.endswith(" fits identical\n")


def _nudged(path, field, change):
    """``path`` with the vertex-3 entry of the column ``field`` (or the
    vertex-3 betas row) replaced by ``change`` of it."""
    betas, columns = path.betas, dict(path.steps.columns)
    if field == "betas":
        betas = betas.copy()
        betas[3] = change(betas[3])
    else:
        column = list(columns[field])
        column[3] = change(column[3])
        columns[field] = tuple(column)
    return core.Path(path.variant, core._Vertices(columns, betas), path.design)


def _one_ulp_up(values):
    return np.nextafter(values, np.inf)


class _NudgedTree:
    """A tree whose paths are this checkout's with every beta of vertex 3
    and its rss moved up by one ulp, for a path of more than three moves."""

    @staticmethod
    def fit_path(design, variant, **kwargs):
        path = larspath.fit_path(design, variant, **kwargs)
        if path.n_steps > 3:
            path = _nudged(_nudged(path, "betas", _one_ulp_up), "rss", _one_ulp_up)
        return path

    forward_selection = staticmethod(larspath.forward_selection)


def test_a_one_ulp_change_passes_close_and_fails_exact(monkeypatch, capsys, design):
    monkeypatch.setattr(corpus, "designs", lambda: {"diabetes10": design})
    assert corpus.compare(_NudgedTree, close=True) == 0
    out = capsys.readouterr().out
    assert "FAILS" not in out and "9 fits within 1e-09" in out
    # Every variant, in full, moves more than three times.
    assert corpus.compare(_NudgedTree) == 4
    assert capsys.readouterr().out.count("DIFFERS") == 4

    path = larspath.fit_path(design, "lasso")
    for field in ("betas", *corpus.VALUE_FIELDS):
        nudged = _nudged(path, field, _one_ulp_up)
        ours = corpus.outcome(lambda tree: nudged, larspath)
        assert corpus.first_difference(ours, corpus._exact(path)) == field
        name, deviation = corpus.close_deviation(nudged, path)
        assert name == field and 0 < deviation <= corpus.CLOSE_RTOL
        values = path.betas if field == "betas" else path.steps.columns[field]
        step = 1e-6 * np.abs(values).max()
        far = _nudged(path, field, lambda v: v + step)
        assert corpus.close_deviation(far, path) == (field, pytest.approx(1e-6))


def test_a_changed_event_fails_close_and_exact(design):
    path = larspath.fit_path(design, "lasso")
    changes = {"action": lambda a: "drop", "variable": lambda v: v + 1,
               "sign": lambda s: -s, "active_after": lambda a: a[::-1],
               "signs_after": lambda s: -s, "projection_dropped": lambda p: (*p, 0)}
    assert list(changes) == list(corpus.EVENT_FIELDS)
    for field, change in changes.items():
        changed = _nudged(path, field, change)
        ours = corpus.outcome(lambda tree: changed, larspath)
        assert corpus.first_difference(ours, corpus._exact(path)) == field
        assert corpus.close_deviation(changed, path) == (field, math.inf)

    refusal = larspath.StalledPath
    assert corpus.close_deviation(refusal("at step 3"), refusal("at step 3")) == (None, 0.0)
    assert corpus.close_deviation(refusal("at step 3"), refusal("at step 4")) == (
        "raised", math.inf)
    assert corpus.close_deviation(refusal("at step 3"), path) == ("raised", math.inf)


def test_the_corpus_is_close_to_itself(capsys):
    assert corpus.main(["--against", str(Path(larspath.__file__).parents[1]),
                        "--close"]) == 0
    assert capsys.readouterr().out.endswith(" fits within 1e-09\n")
