"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
(about two minutes; the ``wide`` runs are the slowest).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("diabetes", "tall", "wide", "resample")
# Per-layer counts that must be positive on a workload, so that a tracer
# wrapping nothing, or missing the bindings callers use, is caught.
MUST_COUNT = {
    "diabetes": ("linalg.nnls_inner_loop.calls",),
    "tall": (),
    "wide": ("core.gram.stack.calls",),
    "resample": ("oracles.forward_selection.calls",),
}


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    report = "\n".join(lines[:-1])
    for name in wanted:
        assert name in report
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "error_rate" in report
    else:
        for name in ("core.fit_path.calls", "core.fit_path.moves") + MUST_COUNT[workload]:
            assert result["metrics"][name]["value"] > 0, name


def _run_in_process(capsys, workload="diabetes"):
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0.1",
                     "--trace", "0"]) == 0
    return _last_json(capsys.readouterr().out)


def test_a_planted_wrong_answer_is_counted(monkeypatch, capsys):
    lp = run.import_program()
    real = lp.core.fit_path

    def perturbed(design, variant="lars", **kwargs):
        path = real(design, variant, **kwargs)
        if variant != "lasso":
            return path
        last = path.steps[-1]
        beta = last.beta.copy()
        beta[0] += 1e-3 * max(1.0, float(abs(beta).max()))
        steps = path.steps[:-1] + (dataclasses.replace(last, beta=beta),)
        return dataclasses.replace(path, steps=steps)

    monkeypatch.setattr(lp.core, "fit_path", perturbed)
    result = _run_in_process(capsys)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_a_refused_fit_fails_but_is_not_a_wrong_answer(monkeypatch, capsys):
    lp = run.import_program()
    real = lp.core.fit_path

    def refuse(design, variant="lars", **kwargs):
        if variant == "stagewise":
            raise lp.errors.StalledPath("planted")
        return real(design, variant, **kwargs)

    monkeypatch.setattr(lp.core, "fit_path", refuse)
    result = _run_in_process(capsys)
    assert result["correct"] is True
    # six operations per round, one of them the refused stagewise fit
    assert result["failed"] * 6 == result["attempted"]


def test_only_an_allowed_stall_is_kept_out_of_failed():
    lp = run.import_program()

    class Speed:
        def mark(self):
            return 1.0

    def stall():
        raise lp.errors.StalledPath("planted")

    def never_called(out):
        raise AssertionError("a fit that raised was checked")

    rec = run.Recorder(lp.errors, Speed())
    rec.fit("stagewise", stall, never_called, stall_ok=True)
    assert (rec.attempted, rec.failed, rec.stalls) == (1, 0, 1)
    rec.fit("stagewise", stall, never_called)
    assert (rec.attempted, rec.failed, rec.stalls, rec.wrong) == (2, 1, 1, 0)
    rec.fit("lars", lambda: 1 / 0, never_called, stall_ok=True)
    assert (rec.attempted, rec.failed, rec.stalls, rec.wrong) == (3, 2, 1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diabetes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
