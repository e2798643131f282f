"""The mutant sweep (``tests/mutants.py``) names rules of the current tree,
and reads a kill, a survivor and a changed path as such."""

import textwrap

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_text_that_occurs_once(mutant):
    """A renamed or reworded rule fails here, instead of reading as a
    mutant that survived."""
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old


# A checkout in miniature: one rule, one test of it, and a corpus that
# compares the rule with the other tree's.
_TREE = {
    "pyproject.toml": """
        [tool.pytest.ini_options]
        pythonpath = ["src", "tests"]
        """,
    "src/rule.py": "LIMIT = 1\n",
    "tests/test_rule.py": """
        from rule import LIMIT

        def test_limit():
            assert LIMIT < 2
        """,
    "tests/corpus.py": """
        import importlib.util
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        import rule

        spec = importlib.util.spec_from_file_location(
            "theirs", Path(sys.argv[sys.argv.index("--against") + 1]) / "rule.py")
        theirs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(theirs)
        same = rule.LIMIT == theirs.LIMIT
        print(f"{int(same)} of 1 fits identical")
        sys.exit(0 if same else 1)
        """,
}


def test_the_sweep_tells_killed_survived_and_changed_paths(tmp_path, monkeypatch):
    """The unmutated copy survives, a mutant that fails the test is killed,
    and one that passes it but changes the corpus changed paths; the
    checkout itself is left as it was."""
    for name, text in _TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(textwrap.dedent(text))
    monkeypatch.setattr(mutants, "TESTS", ("tests/test_rule.py",))

    def outcome(new):
        mutant = None if new is None else mutants.Mutant(
            "limit", "src/rule.py", "LIMIT = 1", new)
        return mutants.outcome(mutant, root=tmp_path)

    assert outcome(None) == ("survived", "1 of 1 fits identical")
    assert outcome("LIMIT = 5") == (
        "killed", "FAILED tests/test_rule.py::test_limit - assert 5 < 2")
    assert outcome("LIMIT = 0") == ("paths changed", "0 of 1 fits identical")
    assert (tmp_path / "src/rule.py").read_text() == "LIMIT = 1\n"
