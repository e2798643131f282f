"""The equivalence corpus (``tests/corpus.py``) tells a refit from a changed
path."""

from pathlib import Path

import numpy as np

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
