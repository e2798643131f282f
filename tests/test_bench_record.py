"""The benchmark recorder reads run.py's report as run.py prints it."""

import json

import pytest

from bench_record import parse_report, summarize

ENV = {"commit": "cdb75c420f38730d2831d05c8b4396a049ff7e52", "nproc": 2,
       "source_sha256": "891666b74921b1ad"}
METRICS = {"setup_s": 0.7040680215027925, "lars_ms": 8.198531837690005,
           "cli_fit_ms": 77.6755076428466}
REPORT = f"""\
# env {json.dumps(ENV, sort_keys=True)}
# workload=wide seed=1 rounds=27 designs=10 import_s=0.2556 setups_s=[0.4485, 0.4336]
metric               unit         median               tail  samples   raw median
setup_s              s          0.704068          n/a (<11)        -             
lars_ms              ms          8.19853          p75=8.694       54      11.6218
cli_fit_ms           ms          77.6755          p50=77.68       27      114.986
ls_solve_ms          ms          5.99258          p75=6.671       54      8.52831
error_rate           ratio             0                         270
stalls               count             2                         270
# times are scaled to a host where the speed probe takes 2.0 ms; raw medians are wall-clock
# moves of the latest fit that returned: lars=99 lasso=133
{json.dumps({"correct": True, "attempted": 270, "failed": 1, "metrics": {
    k: {"value": v, "unit": "ms"} for k, v in METRICS.items()}})}
"""


def test_parse_report_reads_the_table_and_the_result_line():
    entry = parse_report(REPORT)
    assert entry["commit"] == ENV["commit"] and entry["env"] == ENV
    assert (entry["rounds"], entry["stalls"]) == (27, 2)
    assert (entry["correct"], entry["attempted"], entry["failed"]) == (True, 270, 1)
    # Result-line medians at full precision; report-only rows from the table.
    assert entry["medians"] == dict(METRICS, ls_solve_ms=5.99258)
    assert entry["samples"] == {"setup_s": None, "lars_ms": 54, "cli_fit_ms": 27,
                                "ls_solve_ms": 54}


@pytest.mark.parametrize("row", ["stalls ", "cli_fit_ms "])
def test_parse_report_refuses_a_report_without_a_row(row):
    text = "\n".join(line for line in REPORT.splitlines() if not line.startswith(row))
    with pytest.raises(ValueError):
        parse_report(text)


def test_summarize_compares_the_pairs_metric_by_metric():
    """Medians per side, change over parent, the parent's IQR and the pairs
    better, which way ``better`` points; a metric some entry lacks is left
    out."""
    def entry(lars_ms, vertices_per_s, **extra):
        return {"medians": dict(lars_ms=lars_ms, vertices_per_s=vertices_per_s, **extra)}

    pairs = [(entry(10.0, 100.0, cli_fit_ms=5.0), entry(8.0, 120.0)),
             (entry(12.0, 90.0), entry(9.0, 80.0)),
             (entry(11.0, 95.0), entry(11.5, 110.0)),
             (entry(14.0, 85.0), entry(7.0, 130.0))]
    end_to_end = [{"name": "lars_ms", "better": "lower"},
                  {"name": "vertices_per_s", "better": "higher"},
                  {"name": "cli_fit_ms", "better": "lower"}]
    rows = summarize(pairs, end_to_end)
    assert [row[0] for row in rows] == ["lars_ms", "vertices_per_s"]
    name, parent, change, ratio, iqr, better = rows[0]
    assert (parent, change, better) == (11.5, 8.5, 3)
    assert ratio == pytest.approx(8.5 / 11.5)
    # Quartiles of 10, 11, 12, 14 (exclusive method): 10.25 and 13.5.
    assert iqr == pytest.approx(3.25)
    assert rows[1][1:3] == (92.5, 115.0) and rows[1][5] == 3
    # A tie is not better.
    assert summarize([(entry(1.0, 1.0), entry(1.0, 1.0))], end_to_end)[0][5] == 0
