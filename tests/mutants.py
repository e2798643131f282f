"""The mutant sweep: each tolerance and tie rule of the walk, changed one at
a time, must fail a tier-1 test.

    python tests/mutants.py

For each mutant in ``MUTANTS`` the tool copies this checkout's ``src``,
``tests`` and ``pyproject.toml`` into a temporary directory, replaces the
mutant's source text there (it must occur exactly once), and runs the
tier-1 files ``TESTS`` in the copy, stopping at the first failure.  The
checkout itself is never changed.  When every test passes, it also runs
``tests/corpus.py --against <this checkout's src> --sweep SWEEP_SEEDS`` in
the copy.  It prints one line per mutant:

``killed``
    a test failed; the line names the first;
``survived``
    every test passed, and every corpus and sweep fit kept its bytes: the
    rule decides nothing that is measured, and can be deleted;
``paths changed``
    every test passed, but some fits changed: the rule decides something
    that no test pins, and wants a test that fails without it.

Every mutant is expected to be killed, so the list holds no equivalent
mutant: a rule that no test can tell apart from its mutant is deleted.
An unmutated copy runs first, as a control, and must survive; so a copy
that cannot run its tests does not read as a sweep of kills.  The tool
exits 0 when the control survives and every mutant is killed, 1 when not,
and 2 when a mutant's text does not occur exactly once in its file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# The tier-1 files each mutant runs against, the likeliest killers first.
TESTS = ("tests/test_variants.py", "tests/test_linalg.py", "tests/test_oracles.py",
         "tests/test_interpolate.py", "tests/test_lars_path.py")

# Generated designs of each kind that a surviving mutant is fitted on.
SWEEP_SEEDS = 46


class Mutant(NamedTuple):
    """``old``, the exact text of a rule in ``path``, becomes ``new``."""

    name: str
    path: str
    old: str
    new: str


CORE, LINALG = "src/larspath/core.py", "src/larspath/linalg.py"

MUTANTS = (
    Mutant("envelope floor", CORE, "ENVELOPE_RTOL = 1e-8", "ENVELOPE_RTOL = 1e-7"),
    Mutant("tie tolerance", CORE, "TIE_RTOL = 1e-12", "TIE_RTOL = 1e-10"),
    Mutant("parallel tolerance", CORE, "PARALLEL_TOL = 1e-14", "PARALLEL_TOL = 0.0"),
    Mutant("start floor", CORE, "if not top > ENVELOPE_RTOL * math.sqrt(y_sq):",
           "if not top > 0.0:"),
    Mutant("start tie", CORE, "score >= top - TIE_RTOL * top", "score >= top"),
    Mutant("saturation guard", CORE, "if act_idx.size < max_active:", "if True:"),
    Mutant("join gap", CORE, "gap = num > tie_tol", "gap = num > 0.0"),
    Mutant("join tied now", CORE, "(den >= -PARALLEL_TOL)", "(den >= 0.0)"),
    Mutant("join runner-up tie", CORE, "if (runner_up - gmin) * A <= tie_tol:",
           "if (runner_up - gmin) * A <= 0.0:"),
    Mutant("join sign branch", CORE, "r.item(0, p) <= r.item(1, p)",
           "r.item(0, p) < r.item(1, p)"),
    Mutant("drop at distance 0", CORE, "if 0.0 < r < gamma:", "if 0.0 <= r < gamma:"),
    Mutant("drop lowest position", CORE, "if 0.0 < r < gamma:", "if 0.0 < r <= gamma:"),
    Mutant("drop before join", CORE, "if g_drop <= gamma:", "if g_drop < gamma:"),
    Mutant("join before full travel", CORE, '(g_join, "join") if g_join < gamma_bar',
           '(g_join, "join") if g_join <= gamma_bar'),
    Mutant("interpolate slack", CORE, "t_top, 1e-12 * t_top)", "t_top, 0.0)"),
    Mutant("degeneracy tolerance", LINALG, "DEGENERACY_RTOL = 1e-12",
           "DEGENERACY_RTOL = 1e-14"),
    Mutant("cone shortcut", LINALG, "if w.min() > 0.0:", "if w.min() >= 0.0:"),
    Mutant("cone warm start", LINALG, "if z.min() > 0.0:\n            p[: k - 1] = z",
           "if z.min() >= 0.0:\n            p[: k - 1] = z"),
    Mutant("cone trial face", LINALG, "if z.min() > 0.0:\n                p[idx] = z",
           "if z.min() >= 0.0:\n                p[idx] = z"),
    Mutant("cone entering bar", LINALG,
           "if entering is not None and z[entering] <= 0.0:", "if False:"),
    Mutant("cone step back", LINALG, "keep = x > 0.0", "keep = x >= 0.0"),
)


def occurrences(mutant, root=ROOT):
    """How many times the mutant's text occurs in its file under ``root``."""
    return (root / mutant.path).read_text().count(mutant.old)


def _copy(root, into):
    """This checkout's sources, tests and pytest settings, under ``into``."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(root / name, into / name, ignore=ignore)
    shutil.copy2(root / "pyproject.toml", into / "pyproject.toml")


def _run(args, cwd):
    """Run ``args`` in ``cwd`` on the copy's package; the completed process.
    The tests use no pytest plugin, so none is loaded, which saves about a
    second a run."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    return subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)


def outcome(mutant, root=ROOT):
    """``(verdict, detail)`` of one mutant, or of the unmutated copy when
    ``mutant`` is None: ``killed`` and the first failed test, or
    ``survived`` or ``paths changed`` and the corpus summary."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy(root, tmp)
        if mutant is not None:
            target = tmp / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        tests = _run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                      "-p", "no:cacheprovider", *TESTS], tmp)
        if tests.returncode != 0:
            failed = [line for line in tests.stdout.splitlines()
                      if line.startswith(("FAILED", "ERROR"))]
            return "killed", (failed[0] if failed else tests.stdout.strip()[-200:])
        corpus = _run([sys.executable, "tests/corpus.py", "--against",
                       str(root / "src"), "--sweep", str(SWEEP_SEEDS)], tmp)
        # Exit 1 is a changed fit; any other failure shows its error.
        out = corpus.stdout if corpus.returncode in (0, 1) else corpus.stderr
        summary = (out.strip().splitlines() or [""])[-1]
        return ("survived" if corpus.returncode == 0 else "paths changed"), summary


def main():
    misplaced = [m.name for m in MUTANTS if occurrences(m) != 1]
    if misplaced:
        print(f"text not found exactly once: {misplaced}")
        return 2
    verdict, detail = outcome(None)
    print(f"{verdict:13} {'(unmutated control)':24} {detail}", flush=True)
    unexpected = verdict != "survived"
    for mutant in MUTANTS:
        verdict, detail = outcome(mutant)
        unexpected += verdict != "killed"
        print(f"{verdict:13} {mutant.name:24} {detail}", flush=True)
    print(f"{len(MUTANTS)} mutants; {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
