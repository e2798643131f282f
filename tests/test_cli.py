"""End-to-end command-line runs against the bundled data file.

Most checks are rows of ``TABLE``.  With ``LARSPATH_TEST_CLI`` unset, every
run calls ``cli_main`` in this process.  Set to a command line, such as
``larspath`` or ``python -m larspath.cli``, every run is that command in a
subprocess, on the data file of the larspath package that a Python
subprocess finds; this checks an installed package from outside the
checkout:

    LARSPATH_TEST_CLI=larspath python -m pytest <checkout>/tests/test_cli.py
"""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from larspath.cli import cli_main
from larspath.core import VARIANTS, fit_path
from larspath.dataio import read_csv, write_path_csv
from larspath.datasets import load_diabetes
from larspath.errors import Underdetermined
from larspath.preprocess import quadratic_expand, standardize


def in_process(argv):
    """``cli_main(argv)``'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def command(prefix, env=None):
    """A runner like :func:`in_process` of the command line ``prefix`` in a
    subprocess with ``env``, and the bundled data file of the larspath
    package that a Python subprocess with ``env`` finds."""
    def run(argv):
        done = subprocess.run([*prefix, *argv], capture_output=True, text=True,
                              env=env, timeout=600)
        return done.returncode, done.stdout, done.stderr

    # Finds the package without importing it, and so without NumPy.
    find = ("from importlib.util import find_spec; "
            "print(find_spec('larspath').submodule_search_locations[0])")
    package = subprocess.run([sys.executable, "-c", find], capture_output=True,
                             text=True, env=env, check=True).stdout.strip()
    return run, str(Path(package) / "data" / "diabetes.csv")


COMMAND = os.environ.get("LARSPATH_TEST_CLI")
RUN, DATA = (command(shlex.split(COMMAND)) if COMMAND else
             (in_process, str(resources.files("larspath") / "data/diabetes.csv")))


def check(argv, expect, run=RUN, data=DATA):
    """Run the row ``argv``, its words with DATA for the bundled data file,
    and check what comes out against ``expect``.

    A dict is a run that exits 0, prints nothing on stderr and prints a JSON
    summary: each of its keys is a field whose value must equal the dict's,
    or satisfy it when it is a callable, which a tuple of fields passes all
    their values.  A pair ``(code, line)`` is a refusal that exits ``code``,
    prints nothing on stdout, and ends stderr with ``line``, or a line that
    satisfies ``line`` when it is a callable; stderr opens with the usage
    exactly when ``code`` is 1, a usage error.
    """
    rc, out, err = run([data if word == "DATA" else word for word in argv.split()])
    if isinstance(expect, dict):
        assert (rc, err) == (0, ""), err
        summary = json.loads(out)
        for key, want in expect.items():
            got = [summary[k] for k in key] if isinstance(key, tuple) else [summary[key]]
            assert want(*got) if callable(want) else got == [want], (key, *got)
    else:
        code, want = expect
        assert (rc, out, err.startswith("usage: ")) == (code, "", code == 1), err
        last = err.splitlines()[-1] if err else ""
        assert want(last) if callable(want) else last == want, err


def ordered(low, mid, high):
    return all(lo <= m <= hi for lo, m, hi in zip(low, mid, high))


def pairs_of(mains, entered):
    return set(entered) <= {f"{a}:{b}" for a in mains for b in mains if a != b}


def starts(prefix):
    return lambda line: line.startswith(prefix)


# The bundled data file and its response column, in a row's arguments.
D = "--input DATA --response Y"

# Each entry is a test, test_<name>: a row (argv, expect) for check, or a
# dict of rows by test id.
TABLE = {
    # The paper's move counts on the diabetes data, its designs of 10 and 64
    # columns, and the order in which variables enter.
    "fit_lasso_json_summary": (f"fit {D} --variant lasso --json", {
        "variant": "lasso", "steps": 12,
        "entry_order": lambda names: names[:4] == ["BMI", "S5", "BP", "S3"],
        "entry_order_index": lambda index: index[:4] == [3, 9, 4, 7]}),
    "fit_json_summary": {
        "lars": (f"fit {D} --variant lars --json", {"variant": "lars", "steps": 10}),
        "stagewise": (f"fit {D} --variant stagewise --json",
                      {"variant": "stagewise", "steps": 13}),
        "positive-lasso": (f"fit {D} --variant positive-lasso --json", {
            "variant": "positive-lasso", "steps": 5,
            "entry_order": ["BMI", "S5", "BP", "S4", "S6"]}),
    },
    "fit_quadratic_json_summary": {
        variant: (f"fit {D} --variant {variant} --quadratic --json",
                  {"variant": variant, "steps": steps})
        for variant, steps in (("lasso", 104), ("stagewise", 251))
    },
    "fit_quadratic_explicit_binary_column": (
        f"fit {D} --quadratic --binary-col SEX --json",
        {"steps": 64, "entry_order": lambda names: names[0] == "BMI"}),
    "fit_quadratic_autodetects_the_binary_column": (f"fit {D} --quadratic --json",
                                                    {"steps": 64}),
    "fit_quadratic_unknown_binary_column": (
        f"fit {D} --quadratic --binary-col BOGUS",
        (2, starts("error: column 'BOGUS' not in ["))),
    "cp_reports_the_risk_minimizer": (f"cp {D} --json", {
        "cp_argmin": 7, "sigma2_bar": lambda s2: abs(s2 - 2932.6816372) < 1e-6}),
    "interpolate_budget_1000": (f"interpolate {D} --t 1000 --json", {
        "steps": 12, "support": ["BMI", "BP", "S3", "S5"], "t": 1000.0,
        "t_max": lambda t_max: t_max > 3000, "intercept": lambda b0: b0 != 0.0,
        "coefficients": lambda coef: len(coef) == 10}),
    "interpolate_standardized_scale_has_no_intercept": (
        f"interpolate {D} --t 1000 --standardized --json", {"intercept": 0.0}),
    "main_effects_first_subcommand": (f"main-effects-first {D} --k 4 --json", {
        "k": 4, "selected_mains": ["BMI", "BP", "S3", "S5"], "steps": 6,
        ("selected_mains", "entry_order"): pairs_of}),
    "bootstrap_df_small_run": (f"bootstrap-df {D} --B 20 --groups 5 --json", {
        "B": 20, "groups": 5, "df_hat": lambda df: len(df) == 11 and df[0] == 0,
        ("ci_low", "df_hat", "ci_high"): ordered}),
    "simulate_small_run": (f"simulate {D} --replications 3 --steps 4 --json", {
        "true_R2": lambda r2: 0.0 < r2 < 1.0, "replications": 3, "steps": 4,
        "pe_max": lambda pe: set(pe) == {"lars", "lasso", "stagewise",
                                         "forward-selection"}}),
    # Usage errors exit 1 with argparse's usage and error lines.
    "missing_required_flag_is_a_usage_error": (
        "fit --response Y",
        (1, "larspath fit: error: the following arguments are required: --input")),
    "max_steps_is_not_an_option": {
        cmd: (f"{cmd} {D} {extra}--max-steps 3",
              (1, "larspath: error: unrecognized arguments: --max-steps 3"))
        for cmd, extra in (("fit", ""), ("interpolate", "--t 1 "))
    },
    "standardized_is_refused_where_nothing_reads_it": {
        cmd: (f"{cmd} {D} --standardized",
              (1, "larspath: error: unrecognized arguments: --standardized"))
        for cmd in ("cp", "bootstrap-df", "simulate")
    },
    # Refused requests exit 2 with one error line, which names a value
    # outside its range by the flag that set it.
    "wrong_response_name": (
        "fit --input DATA --response OUTCOME",
        (2, lambda line: line.startswith("error:") and "OUTCOME" in line)),
    "interpolate_budget_out_of_range": (
        f"interpolate {D} --t 1e9", (2, starts("error: --t=1000000000.0 outside [0, "))),
    "interpolate_negative_budget": (
        f"interpolate {D} --t -1", (2, starts("error: --t=-1.0 outside [0, "))),
    "interpolate_nan_budget_is_a_data_error": (
        f"interpolate {D} --t nan", (2, starts("error: --t=nan outside [0, "))),
    "bootstrap_df_refuses_fewer_than_two_groups": {
        groups: (f"bootstrap-df {D} --B 20 --groups {groups}",
                 (2, f"error: --groups={groups} must be at least 2"))
        for groups in ("0", "1")
    },
    "bootstrap_df_refuses_draws_that_do_not_fill_the_groups": (
        f"bootstrap-df {D} --B 3 --groups 2",
        (2, "error: --B=3 must be a multiple of --groups=2, at least 2 per group")),
    "negative_seed_is_a_usage_error": {
        "bootstrap-df": (f"bootstrap-df {D} --B 20 --groups 5 --seed -1",
                         (2, "error: --seed=-1 must be at least 0")),
        "simulate": (f"simulate {D} --replications 2 --steps 2 --seed -1",
                     (2, "error: --seed=-1 must be at least 0")),
    },
    "simulate_refuses_fewer_than_two_replications": {
        reps: (f"simulate {D} --replications {reps} --steps 4",
               (2, f"error: --replications={reps} must be at least 2"))
        for reps in ("0", "1")
    },
    "simulate_refuses_more_steps_than_the_walk_takes": (
        f"simulate {D} --replications 2 --steps 65", (2, "error: --steps=65 outside 0..64")),
    "simulate_unknown_binary_column": (
        f"simulate {D} --binary-col BOGUS --replications 3 --steps 4",
        (2, starts("error: column 'BOGUS' not in ["))),
    # The bundled lars path has 10 moves, so --k 11 names no vertex.
    "main_effects_first_refuses_k_beyond_the_lars_path": (
        f"main-effects-first {D} --k 11", (2, "error: --k=11 outside 0..10")),
    "main_effects_first_needs_enough_mains": (
        f"main-effects-first {D} --k 0",
        (2, "error: need at least two selected variables to form interactions")),
}


def _test(rows):
    """The test of a row, or of a dict of rows parametrized by its keys."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
        def test(row):
            check(*row)
    else:
        def test():
            check(*rows)
    return test


globals().update({f"test_{name}": _test(rows) for name, rows in TABLE.items()})


def test_module_entry_point_runs_fit():
    """The subprocess runner, on one row, with ``python -m larspath.cli`` over
    this checkout's src: the path that a run against an installed command
    takes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    run, data = command([sys.executable, "-m", "larspath.cli"], env)
    assert Path(data).is_relative_to(src)
    check(*TABLE["fit_json_summary"]["lars"], run=run, data=data)


def test_fit_text_report_goes_to_stdout():
    rc, out, err = RUN(["fit", "--input", DATA, "--response", "Y"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("step,action,variable,sign,gamma")


def test_fit_out_file_keeps_stdout_quiet(tmp_path):
    target = tmp_path / "report.csv"
    rc, out, err = RUN(["fit", "--input", DATA, "--response", "Y", "--out", str(target)])
    assert rc == 0 and out == "" and err == ""
    text = target.read_text()
    assert len(text.splitlines()) == 12
    assert text.endswith("\n")


@pytest.mark.parametrize("quadratic", [False, True])
def test_fit_report_is_the_library_fit_of_a_c_ordered_copy(tmp_path, quadratic):
    """The CLI reads the bundled CSV into a Fortran-ordered matrix; under
    every variant, its ``--out`` report has the bytes of ``write_path_csv``
    of the library's fit of a C-ordered copy of the same values."""
    matrix, response, names = load_diabetes()
    matrix = np.array(matrix, order="C")
    flags = []
    if quadratic:
        matrix, names = quadratic_expand(matrix, 1, names)
        flags = ["--quadratic"]
    design = standardize(matrix, response, names)
    for variant in VARIANTS:
        target = tmp_path / f"{variant}.csv"
        rc, _, _ = RUN(["fit", "--input", DATA, "--response", "Y",
                        "--variant", variant, "--out", str(target), *flags])
        assert rc == 0
        assert target.read_text() == write_path_csv(fit_path(design, variant)), variant


def test_fit_runs_are_deterministic():
    argv = ["fit", "--input", DATA, "--response", "Y", "--variant", "stagewise"]
    assert RUN(argv)[1] == RUN(argv)[1]


def test_quadratic_without_a_two_valued_column_is_a_data_error(tmp_path):
    """With no ``--binary-col``, ``--quadratic`` needs exactly one
    two-valued column; a file with none is refused, and told the flag."""
    f = tmp_path / "t.csv"
    f.write_text("a,b,y\n1,2,3\n4,5,6\n7,9,9\n2,8,1\n")
    rc, out, err = RUN(["fit", "--input", str(f), "--response", "y", "--quadratic"])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "found 0; use --binary-col" in err


def test_unreadable_input_file(tmp_path):
    rc, _, err = RUN(["fit", "--input", str(tmp_path / "nope.csv"), "--response", "Y"])
    assert rc == 2
    assert err.startswith("error:")


def test_repeated_column_name_is_a_data_error(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,y,y\n1,2,3\n4,5,7\n2,1,1\n")
    rc, out, err = RUN(["fit", "--input", str(f), "--response", "y"])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'y'" in err


def test_one_row_is_too_few_for_the_library_and_the_cli(tmp_path):
    """One observation cannot be centered and scaled: the library refuses it
    as :class:`Underdetermined`, the class that too few rows for the
    residual variance raise, and ``fit`` exits 2 with its message."""
    f = tmp_path / "one.csv"
    f.write_text("a,b,y\n1,2,3\n")
    matrix, response, labels = read_csv(str(f), "y")
    assert matrix.shape == (1, 2)
    with pytest.raises(Underdetermined, match="need at least two observations"):
        standardize(matrix, response, labels)
    rc, out, err = RUN(["fit", "--input", str(f), "--response", "y"])
    assert rc == 2 and out == ""
    assert err == "error: need at least two observations\n"


def test_fit_reads_a_file_with_a_byte_order_mark(tmp_path):
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbf" + Path(DATA).read_bytes())
    first = RUN(["fit", "--input", DATA, "--response", "Y"])
    second = RUN(["fit", "--input", str(f), "--response", "Y"])
    assert first[0] == 0 and second == first


def test_non_finite_cell_is_a_data_error(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        f = tmp_path / "t.csv"
        f.write_text(f"a,b,y\n1,2,3\n4,{bad},6\n7,5,9\n2,8,1\n")
        for extra in ((), ("--quadratic", "--binary-col", "a")):
            rc, out, err = RUN(["fit", "--input", str(f), "--response", "y", *extra])
            assert rc == 2 and out == ""
            assert err.startswith("error:")
            assert "row 2" in err and "'b'" in err


def test_help_exits_cleanly():
    rc, out, _ = RUN(["--help"])
    assert rc == 0
    assert "usage" in out


def test_cp_text_table():
    rc, out, _ = RUN(["cp", "--input", DATA, "--response", "Y"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,df,cp"
    assert len(lines) == 12


def test_reports_quote_names_that_hold_csv_syntax(tmp_path):
    """A name holding a comma or a quote mark is written as one quoted
    field, in the ``fit`` header and rows and in ``interpolate`` rows, so
    both reports read back with the input's names and even rows."""
    names = ["a,b", "c", 'say "hi"']
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.normal(size=(20, 3)), rng.normal(size=20)])
    src = tmp_path / "named.csv"
    with open(src, "w", newline="") as fh:
        csv.writer(fh).writerows([[*names, "y"], *table.tolist()])
    rc, out, _ = RUN(["fit", "--input", str(src), "--response", "y"])
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][8:] == names
    assert {len(row) for row in rows} == {8 + len(names)}
    assert sorted(row[2] for row in rows[1:]) == sorted(["", *names])
    rc, out, _ = RUN(["interpolate", "--input", str(src), "--response", "y", "--t", "0.5"])
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert [row[0] for row in rows[2:]] == names
    assert {len(row) for row in rows} == {2}


@pytest.mark.parametrize("variant", ["lars", "lasso", "stagewise", "positive-lasso"])
def test_report_T_is_the_budget_interpolate_takes(tmp_path, variant):
    """The report's T column is the unit-norm budget: its last value is the
    JSON ``t_max``, and ``interpolate --t`` at that value returns the final
    vertex's coefficients in both unit modes."""
    out = tmp_path / "path.csv"
    base = ["--input", DATA, "--response", "Y", "--variant", variant]
    for unit in ([], ["--standardized"]):
        rc, stdout, _ = RUN(["fit", *base, *unit, "--json", "--out", str(out)])
        assert rc == 0
        header, *rows = list(csv.reader(out.read_text().splitlines()))
        assert header[6] == "T"
        t_last = rows[-1][6]
        assert float(t_last) == json.loads(stdout)["t_max"]
        rc, stdout, _ = RUN(["interpolate", *base, *unit, "--t", t_last, "--json"])
        assert rc == 0
        s = json.loads(stdout)
        assert s["t_max"] == float(t_last)
        assert [s["coefficients"][name] for name in header[8:]] == [
            float(x) for x in rows[-1][8:]]


def test_simulate_text_table():
    rc, out, _ = RUN(["simulate", "--input", DATA, "--response", "Y",
                      "--replications", "3", "--steps", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "method,step,pe_mean,pe_sd,avg_nonzero"
    assert len(lines) == 1 + 4 * 5
