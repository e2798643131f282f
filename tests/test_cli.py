"""End-to-end command-line runs against the bundled data file."""

import csv
import json
import os
import subprocess
import sys
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

DATA = str(resources.files("larspath").joinpath("data/diabetes.csv"))


def run(capsys, *argv):
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_fit_lasso_json_summary(capsys):
    rc, out, err = run(capsys, "fit", "--input", DATA, "--response", "Y",
                       "--variant", "lasso", "--json")
    assert rc == 0 and err == ""
    s = json.loads(out)
    assert s["variant"] == "lasso"
    assert s["steps"] == 12
    assert s["entry_order"][:4] == ["BMI", "S5", "BP", "S3"]
    assert s["entry_order_index"][:4] == [3, 9, 4, 7]


def test_fit_text_report_goes_to_stdout(capsys):
    rc, out, err = run(capsys, "fit", "--input", DATA, "--response", "Y")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("step,action,variable,sign,gamma")


def test_fit_out_file_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.csv"
    rc, out, err = run(capsys, "fit", "--input", DATA, "--response", "Y",
                       "--out", str(target))
    assert rc == 0 and out == "" and err == ""
    text = target.read_text()
    assert len(text.splitlines()) == 12
    assert text.endswith("\n")


@pytest.mark.parametrize("quadratic", [False, True])
def test_fit_report_is_the_library_fit_of_a_c_ordered_copy(capsys, tmp_path, quadratic):
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
        rc, _, _ = run(capsys, "fit", "--input", DATA, "--response", "Y",
                       "--variant", variant, "--out", str(target), *flags)
        assert rc == 0
        assert target.read_text() == write_path_csv(fit_path(design, variant)), variant


def test_fit_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, "fit", "--input", DATA, "--response", "Y",
                      "--variant", "stagewise")
    _, second, _ = run(capsys, "fit", "--input", DATA, "--response", "Y",
                       "--variant", "stagewise")
    assert first == second


def test_fit_quadratic_explicit_binary_column(capsys):
    rc, out, _ = run(capsys, "fit", "--input", DATA, "--response", "Y",
                     "--quadratic", "--binary-col", "SEX", "--json")
    assert rc == 0
    s = json.loads(out)
    assert s["steps"] == 64
    assert s["entry_order"][0] == "BMI"


def test_fit_quadratic_autodetects_the_binary_column(capsys):
    rc, out, _ = run(capsys, "fit", "--input", DATA, "--response", "Y",
                     "--quadratic", "--json")
    assert rc == 0
    assert json.loads(out)["steps"] == 64


def test_fit_quadratic_unknown_binary_column(capsys):
    rc, out, err = run(capsys, "fit", "--input", DATA, "--response", "Y",
                       "--quadratic", "--binary-col", "BOGUS")
    assert rc == 2
    assert err.startswith("error:")


def test_quadratic_without_a_two_valued_column_is_a_data_error(capsys, tmp_path):
    """With no ``--binary-col``, ``--quadratic`` needs exactly one
    two-valued column; a file with none is refused, and told the flag."""
    f = tmp_path / "t.csv"
    f.write_text("a,b,y\n1,2,3\n4,5,6\n7,9,9\n2,8,1\n")
    rc, out, err = run(capsys, "fit", "--input", str(f), "--response", "y",
                       "--quadratic")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "found 0; use --binary-col" in err


@pytest.mark.parametrize("command, extra", [("fit", ()), ("interpolate", ("--t", "1"))])
def test_max_steps_is_not_an_option(capsys, command, extra):
    """No move budget bounds a walk, so neither command takes one."""
    rc, out, err = run(capsys, command, "--input", DATA, "--response", "Y",
                       *extra, "--max-steps", "3")
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --max-steps 3" in err


def test_missing_required_flag_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "fit", "--response", "Y")
    assert rc == 1
    assert "usage" in err


@pytest.mark.parametrize("command", ["cp", "bootstrap-df", "simulate"])
def test_standardized_is_refused_where_nothing_reads_it(capsys, command):
    """Only the commands that report coefficients take ``--standardized``."""
    rc, out, err = run(capsys, command, "--input", DATA, "--response", "Y",
                       "--standardized")
    assert rc == 1 and out == ""
    assert "usage" in err and "--standardized" in err


def test_unreadable_input_file(capsys, tmp_path):
    rc, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"),
                     "--response", "Y")
    assert rc == 2
    assert err.startswith("error:")


def test_wrong_response_name(capsys):
    rc, _, err = run(capsys, "fit", "--input", DATA, "--response", "OUTCOME")
    assert rc == 2


def test_repeated_column_name_is_a_data_error(capsys, tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,y,y\n1,2,3\n4,5,7\n2,1,1\n")
    rc, out, err = run(capsys, "fit", "--input", str(f), "--response", "y")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "'y'" in err


def test_one_row_is_too_few_for_the_library_and_the_cli(capsys, tmp_path):
    """One observation cannot be centered and scaled: the library refuses it
    as :class:`Underdetermined`, the class that too few rows for the
    residual variance raise, and ``fit`` exits 2 with its message."""
    f = tmp_path / "one.csv"
    f.write_text("a,b,y\n1,2,3\n")
    matrix, response, labels = read_csv(str(f), "y")
    assert matrix.shape == (1, 2)
    with pytest.raises(Underdetermined, match="need at least two observations"):
        standardize(matrix, response, labels)
    rc, out, err = run(capsys, "fit", "--input", str(f), "--response", "y")
    assert rc == 2 and out == ""
    assert err == "error: need at least two observations\n"


def test_fit_reads_a_file_with_a_byte_order_mark(capsys, tmp_path):
    f = tmp_path / "bom.csv"
    text = Path(DATA).read_text()
    f.write_bytes(b"\xef\xbb\xbf" + text.encode())
    first = run(capsys, "fit", "--input", DATA, "--response", "Y")
    second = run(capsys, "fit", "--input", str(f), "--response", "Y")
    assert first[0] == 0 and second == first


def test_non_finite_cell_is_a_data_error(capsys, tmp_path):
    for bad in ("nan", "inf", "-inf"):
        f = tmp_path / "t.csv"
        f.write_text(f"a,b,y\n1,2,3\n4,{bad},6\n7,5,9\n2,8,1\n")
        for extra in ((), ("--quadratic", "--binary-col", "a")):
            rc, out, err = run(capsys, "fit", "--input", str(f),
                               "--response", "y", *extra)
            assert rc == 2 and out == ""
            assert err.startswith("error:")
            assert "row 2" in err and "'b'" in err


def test_module_entry_point_runs_fit():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    out = subprocess.run(
        [sys.executable, "-m", "larspath.cli", "fit", "--input", DATA,
         "--response", "Y", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    s = json.loads(out.stdout)
    assert (s["variant"], s["steps"]) == ("lars", 10)


def test_help_exits_cleanly(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "usage" in out


def test_cp_reports_the_risk_minimizer(capsys):
    rc, out, _ = run(capsys, "cp", "--input", DATA, "--response", "Y",
                     "--json")
    assert rc == 0
    s = json.loads(out)
    assert s["cp_argmin"] == 7
    assert abs(s["sigma2_bar"] - 2932.6816372) < 1e-6


def test_cp_text_table(capsys):
    rc, out, _ = run(capsys, "cp", "--input", DATA, "--response", "Y")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,df,cp"
    assert len(lines) == 12


def test_interpolate_budget_1000(capsys):
    rc, out, _ = run(capsys, "interpolate", "--input", DATA, "--response",
                     "Y", "--t", "1000", "--json")
    assert rc == 0
    s = json.loads(out)
    assert s["support"] == ["BMI", "BP", "S3", "S5"]
    assert s["t"] == 1000.0
    assert s["t_max"] > 3000
    assert s["intercept"] != 0.0
    assert len(s["coefficients"]) == 10


def test_interpolate_standardized_scale_has_no_intercept(capsys):
    rc, out, _ = run(capsys, "interpolate", "--input", DATA, "--response",
                     "Y", "--t", "1000", "--standardized", "--json")
    assert rc == 0
    assert json.loads(out)["intercept"] == 0.0


def test_reports_quote_names_that_hold_csv_syntax(capsys, tmp_path):
    """A name holding a comma or a quote mark is written as one quoted
    field, in the ``fit`` header and rows and in ``interpolate`` rows, so
    both reports read back with the input's names and even rows."""
    names = ["a,b", "c", 'say "hi"']
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.normal(size=(20, 3)), rng.normal(size=20)])
    src = tmp_path / "named.csv"
    with open(src, "w", newline="") as fh:
        csv.writer(fh).writerows([[*names, "y"], *table.tolist()])
    rc, out, _ = run(capsys, "fit", "--input", str(src), "--response", "y")
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][8:] == names
    assert {len(row) for row in rows} == {8 + len(names)}
    assert sorted(row[2] for row in rows[1:]) == sorted(["", *names])
    rc, out, _ = run(capsys, "interpolate", "--input", str(src), "--response",
                     "y", "--t", "0.5")
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert [row[0] for row in rows[2:]] == names
    assert {len(row) for row in rows} == {2}


def test_interpolate_budget_out_of_range(capsys):
    rc, _, err = run(capsys, "interpolate", "--input", DATA, "--response",
                     "Y", "--t", "1e9")
    assert rc == 2


def test_interpolate_nan_budget_is_a_data_error(capsys):
    rc, out, err = run(capsys, "interpolate", "--input", DATA, "--response",
                       "Y", "--t", "nan")
    assert rc == 2 and out == ""
    assert err.startswith("error: t=nan outside [0, ")


@pytest.mark.parametrize("variant", ["lars", "lasso", "stagewise", "positive-lasso"])
def test_report_T_is_the_budget_interpolate_takes(capsys, tmp_path, variant):
    """The report's T column is the unit-norm budget: its last value is the
    JSON ``t_max``, and ``interpolate --t`` at that value returns the final
    vertex's coefficients in both unit modes."""
    out = tmp_path / "path.csv"
    base = ["--input", DATA, "--response", "Y", "--variant", variant]
    for unit in ([], ["--standardized"]):
        rc, stdout, _ = run(capsys, "fit", *base, *unit, "--json", "--out", str(out))
        assert rc == 0
        header, *rows = list(csv.reader(out.read_text().splitlines()))
        assert header[6] == "T"
        t_last = rows[-1][6]
        assert float(t_last) == json.loads(stdout)["t_max"]
        rc, stdout, _ = run(capsys, "interpolate", *base, *unit, "--t", t_last,
                            "--json")
        assert rc == 0
        s = json.loads(stdout)
        assert s["t_max"] == float(t_last)
        assert [s["coefficients"][name] for name in header[8:]] == [
            float(x) for x in rows[-1][8:]]


def test_bootstrap_df_small_run(capsys):
    rc, out, _ = run(capsys, "bootstrap-df", "--input", DATA, "--response",
                     "Y", "--B", "20", "--groups", "5", "--json")
    assert rc == 0
    s = json.loads(out)
    assert s["B"] == 20 and s["groups"] == 5
    assert len(s["df_hat"]) == 11
    assert abs(s["df_hat"][0]) < 1e-9
    assert all(lo <= mid <= hi for lo, mid, hi in
               zip(s["ci_low"], s["df_hat"], s["ci_high"]))


@pytest.mark.parametrize("groups", ["0", "1"])
def test_bootstrap_df_refuses_fewer_than_two_groups(capsys, groups):
    rc, out, err = run(capsys, "bootstrap-df", "--input", DATA, "--response",
                       "Y", "--B", "20", "--groups", groups)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "groups" in err


@pytest.mark.parametrize("replications", ["0", "1"])
def test_simulate_refuses_fewer_than_two_replications(capsys, replications):
    rc, out, err = run(capsys, "simulate", "--input", DATA, "--response", "Y",
                       "--replications", replications, "--steps", "4")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "replications" in err


@pytest.mark.parametrize("argv, name", [
    (["bootstrap-df", "--B", "20", "--groups", "5", "--seed", "-1"], "seed"),
    (["simulate", "--replications", "2", "--steps", "2", "--seed", "-1"], "seed"),
], ids=["bootstrap-df", "simulate"])
def test_negative_seed_is_a_usage_error(capsys, argv, name):
    rc, out, err = run(capsys, argv[0], "--input", DATA, "--response", "Y", *argv[1:])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and f"{name}=-" in err


def test_simulate_small_run(capsys):
    rc, out, _ = run(capsys, "simulate", "--input", DATA, "--response", "Y",
                     "--replications", "3", "--steps", "4", "--json")
    assert rc == 0
    s = json.loads(out)
    assert 0.0 < s["true_R2"] < 1.0
    assert s["replications"] == 3 and s["steps"] == 4
    assert set(s["pe_max"]) == {"lars", "lasso", "stagewise",
                                "forward-selection"}


def test_simulate_unknown_binary_column(capsys):
    rc, out, err = run(capsys, "simulate", "--input", DATA, "--response", "Y",
                       "--binary-col", "BOGUS", "--replications", "3",
                       "--steps", "4")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "BOGUS" in err


def test_simulate_text_table(capsys):
    rc, out, _ = run(capsys, "simulate", "--input", DATA, "--response", "Y",
                     "--replications", "3", "--steps", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "method,step,pe_mean,pe_sd,avg_nonzero"
    assert len(lines) == 1 + 4 * 5


def test_main_effects_first_subcommand(capsys):
    rc, out, _ = run(capsys, "main-effects-first", "--input", DATA,
                     "--response", "Y", "--k", "4", "--json")
    assert rc == 0
    s = json.loads(out)
    assert s["k"] == 4
    assert s["selected_mains"] == ["BMI", "BP", "S3", "S5"]
    assert s["steps"] >= 1
    pair_labels = {f"{a}:{b}" for a in s["selected_mains"]
                   for b in s["selected_mains"] if a != b}
    assert set(s["entry_order"]) <= pair_labels


def test_main_effects_first_refuses_k_beyond_the_lars_path(capsys):
    """The bundled lars path has 10 moves, so --k 11 names no vertex."""
    rc, out, err = run(capsys, "main-effects-first", "--input", DATA,
                       "--response", "Y", "--k", "11")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--k=11 outside 0..10" in err


def test_main_effects_first_needs_enough_mains(capsys):
    rc, _, err = run(capsys, "main-effects-first", "--input", DATA,
                     "--response", "Y", "--k", "0")
    assert rc == 2
