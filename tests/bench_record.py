"""Record one end-to-end benchmark run in the committed trajectory.

    python tests/bench_record.py --workload W --seed S [--checkout DIR]

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
"""

import argparse
import json
import re
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose perfbench/run.py and src are run")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=args.checkout, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout + run.stderr)
        return run.returncode
    entry = parse_report(run.stdout)
    entry.update(dirty=_dirty(args.checkout), seed=args.seed, seconds=seconds)
    out = ROOT / f"BENCH_{args.workload}.json"
    entries = json.loads(out.read_text()) if out.exists() else []
    entries.append(entry)
    out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{out.name}: entry {len(entries)}, commit {entry['commit'][:12]}"
          f"{' (dirty)' if entry['dirty'] else ''}, seed {args.seed}, "
          + ", ".join(f"{k}={v:.6g}" for k, v in entry["medians"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
