"""Record end-to-end benchmark runs in the committed trajectory.

    python tests/bench_record.py --workload W --seed S [--checkout DIR]
    python tests/bench_record.py --workload W --seed S --against DIR --pairs N

runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
``DIR`` (this checkout by default; any checkout of the repository, such as
a parent commit's, may be measured) and appends one entry to
``BENCH_<W>.json`` at the root of this checkout, a JSON list in the order
the runs were made.  ``T`` is ``run_seconds`` from ``BENCHMARK.json``.

An entry holds what run.py prints: the commit and the ``# env`` record
(whose ``source_sha256`` names the source measured), the seed, the number
of rounds, each metric's median and sample count from the report table
(the result line has the medians of the end-to-end metrics at full
precision, and those are kept; the table adds the report-only timings,
such as the least-squares yardstick ``ls_solve_ms``), the stalls, which
only the table reports, and ``correct``, ``attempted`` and ``failed``
from the result line.  ``dirty`` is true when the measured checkout's
``src`` differs from its commit, as it does for a change not yet
committed: such an entry names the commit it was made on, and its
``source_sha256`` the source it measured.

``--against DIR --pairs N`` runs an A/B: N pairs of runs on the seeds S,
S + 1, ..., each pair one run of ``DIR`` (the parent) and one of the
measured checkout (the change), the side that runs first alternating.  It
appends every entry, then prints, for each end-to-end metric of
``BENCHMARK.json``, the median over the pairs of each side, change over
parent, the parent's interquartile range and the number of pairs in which
the change is better.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_report(text):
    """The entry fields read from run.py's standard output."""
    env = json.loads(re.search(r"^# env (.*)$", text, re.M).group(1))
    rounds = int(re.search(r"^# workload=.*\brounds=(\d+)", text, re.M).group(1))
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["metric", "unit"])
    medians, samples, stalls = {}, {}, None
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        name, _unit, value, *rest = line.split()
        if name == "stalls":
            stalls = int(value)
        elif name != "error_rate":
            # The tail cell is "pNN=x", or "n/a (<11)" when there are too few
            # samples; the count follows it.
            count = rest[2] if rest[0] == "n/a" else rest[1]
            medians[name] = float(value)
            samples[name] = None if count == "-" else int(count)
    result = json.loads(lines[-1])
    if stalls is None or set(result["metrics"]) - set(medians):
        raise ValueError("run.py's report lacks the stalls row or a metric row")
    medians.update((name, m["value"]) for name, m in result["metrics"].items())
    return {
        "commit": env["commit"],
        "env": env,
        "rounds": rounds,
        "medians": medians,
        "samples": samples,
        "stalls": stalls,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def _dirty(checkout):
    """Whether ``checkout``'s ``src`` differs from its commit; None outside git."""
    out = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                         capture_output=True, text=True)
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def summarize(pairs, end_to_end):
    """Per end-to-end metric that every entry of ``pairs``, a list of
    (parent, change) entries, holds: ``(name, parent median, change median,
    change / parent, parent IQR, pairs better)``; ``end_to_end`` is
    ``BENCHMARK.json``'s list, whose ``better`` says which way is better."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in e["medians"] for pair in pairs for e in pair):
            continue
        parent, change = ([pair[side]["medians"][name] for pair in pairs] for side in (0, 1))
        sign = 1 if metric["better"] == "lower" else -1
        better = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rows.append((name, p_med, c_med, c_med / p_med, q3 - q1, better))
    return rows


def record(workload, seed, checkout, seconds):
    """Run perfbench in ``checkout`` and append its entry to
    ``BENCH_<workload>.json``; the entry, or None when run.py failed."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout + run.stderr)
        return None
    entry = parse_report(run.stdout)
    entry.update(dirty=_dirty(checkout), seed=seed, seconds=seconds)
    out = ROOT / f"BENCH_{workload}.json"
    entries = json.loads(out.read_text()) if out.exists() else []
    entries.append(entry)
    out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{out.name}: entry {len(entries)}, commit {entry['commit'][:12]}"
          f"{' (dirty)' if entry['dirty'] else ''}, seed {seed}, "
          + ", ".join(f"{k}={v:.6g}" for k, v in entry["medians"].items()))
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose perfbench/run.py and src are run")
    parser.add_argument("--against", type=Path,
                        help="a parent checkout to run alternately with --checkout")
    parser.add_argument("--pairs", type=int, default=1,
                        help="pairs of runs on consecutive seeds, with --against")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if args.against is None:
        return 0 if record(args.workload, args.seed, args.checkout, seconds) else 1
    sides, pairs = (args.against, args.checkout), []
    for i in range(args.pairs):
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = record(args.workload, args.seed + i, sides[side], seconds)
            if pair[side] is None:
                return 1
        pairs.append(pair)
    print(f"{'metric':18} {'parent':>11} {'change':>11} {'ratio':>7} "
          f"{'parent IQR':>11} {'better':>7}")
    for name, p_med, c_med, ratio, iqr, better in summarize(pairs, bench["end_to_end"]):
        print(f"{name:18} {p_med:11.5g} {c_med:11.5g} {ratio:7.3f} {iqr:11.4g} "
              f"{better:4d}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
