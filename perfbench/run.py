"""Path-engine benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload tall --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs span
tracing around the program's layers and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with tail percentiles and sample counts.
See perfbench/README.md for the workloads and the metric definitions.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Modules the workloads call; the tracer finds the others in sys.modules.
MODULES = ("core", "preprocess", "datasets", "model_select", "cli", "errors")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s", "round_ms": "ms",
    "lars_ms": "ms", "lasso_ms": "ms", "stagewise_ms": "ms", "positive-lasso_ms": "ms",
    "vertices_per_s": "1/s", "ls_ratio": "ratio",
    "interpolate_ms": "ms", "cli_fit_ms": "ms", "peak_rss_mb": "MB",
}
# Timed in the report (with tails) but not in the result line, which must
# hold the same metrics on every workload: the first three exist on
# ``resample`` only, and the least-squares solve is the yardstick, not the
# program.
REPORT_ONLY = ("bootstrap_df_ms", "df_by_support_ms", "simulation_ms", "ls_solve_ms")

# per-layer metric -> (span name, field); "under:<parent>" counts calls made
# directly inside a span of that name.
PER_LAYER = {
    "core.gram.stack.calls": ("core.gram.stack", "calls"),
    "core.gram.stack.busy_ms": ("core.gram.stack", "busy_ms"),
    "core.gram.column.calls": ("core.gram.column", "calls"),
    "core.gram.column.misses": ("core.gram.column", "count"),
    "core.fit_path.calls": ("core.fit_path", "calls"),
    "core.fit_path.moves": ("core.fit_path", "count"),
    "core.fit_path.busy_ms": ("core.fit_path", "busy_ms"),
    "core.fit_path.self_ms": ("core.fit_path", "self_ms"),
    "linalg.cholesky_append.calls": ("linalg.cholesky_append", "calls"),
    "linalg.cholesky_append.busy_ms": ("linalg.cholesky_append", "busy_ms"),
    "linalg.solve_gram.calls": ("linalg.solve_gram", "calls"),
    "linalg.solve_gram.busy_ms": ("linalg.solve_gram", "busy_ms"),
    "linalg.cholesky_drop.calls": ("linalg.cholesky_drop", "calls"),
    "linalg.cholesky_drop.busy_ms": ("linalg.cholesky_drop", "busy_ms"),
    "linalg.cholesky_drop.refactors": ("linalg.refactor", "under:linalg.cholesky_drop"),
    "linalg.nnls_inner_loop.calls": ("linalg.nnls_inner_loop", "calls"),
    "linalg.nnls_inner_loop.busy_ms": ("linalg.nnls_inner_loop", "busy_ms"),
    "linalg.nnls_inner_loop.projected": ("linalg.nnls_inner_loop", "count"),
    "kernels.givens_downdate.calls": ("kernels.givens_downdate", "calls"),
    "kernels.givens_downdate.busy_ms": ("kernels.givens_downdate", "busy_ms"),
    "oracles.forward_selection.calls": ("oracles.forward_selection", "calls"),
    "oracles.forward_selection.busy_ms": ("oracles.forward_selection", "busy_ms"),
    "preprocess.quadratic_expand.busy_ms": ("preprocess.quadratic_expand", "busy_ms"),
    "preprocess.standardize.busy_ms": ("preprocess.standardize", "busy_ms"),
    "model_select.bootstrap_df.self_ms": ("model_select.bootstrap_df", "self_ms"),
    "model_select.lasso_df_by_support.self_ms": ("model_select.lasso_df_by_support", "self_ms"),
    "model_select.run_simulation_study.self_ms": ("model_select.run_simulation_study", "self_ms"),
    "core.interpolate.calls": ("core.interpolate", "calls"),
    "core.interpolate.busy_ms": ("core.interpolate", "busy_ms"),
    "dataio.read_csv.busy_ms": ("dataio.read_csv", "busy_ms"),
    "dataio.write_path_csv.busy_ms": ("dataio.write_path_csv", "busy_ms"),
    "cli.cli_main.self_ms": ("cli.cli_main", "self_ms"),
}
# Measured over the data part of one traced set-up rather than per round.
PER_LAYER_SETUP = {
    "datasets.load_diabetes.busy_ms": ("datasets.load_diabetes", "busy_ms"),
    "setup.preprocess.quadratic_expand.busy_ms": ("preprocess.quadratic_expand", "busy_ms"),
    "setup.preprocess.standardize.busy_ms": ("preprocess.standardize", "busy_ms"),
}
PER_LAYER_TRACE = {"trace.overhead_pct": "%", "trace.spans": "count"}


def _unit(metric):
    if metric in PER_LAYER_TRACE:
        return PER_LAYER_TRACE[metric]
    return "ms" if metric.endswith("_ms") else "count"


def import_program():
    """Import the package from ``src`` of this checkout, or return None."""
    sys.path.insert(0, str(SRC))
    try:
        lp = SimpleNamespace(**{m: importlib.import_module(f"larspath.{m}") for m in MODULES})
    except ImportError as exc:
        print(f"error: cannot import larspath from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(lp.core.__file__).resolve().is_relative_to(SRC):
        print(f"error: larspath resolved outside {SRC}", file=sys.stderr)
        return None
    return lp


class Recorder:
    """Times program operations, checks their outputs and counts failures.

    An operation fails when it raises or when its output fails its check.
    A ``LarsError`` is the program refusing an input, which the ROADMAP
    allows; any other exception, and any failed check, is a wrong answer
    and makes the run incorrect.  A fit called with ``stall_ok`` that
    raises ``StalledPath`` is the known stagewise stall (ROADMAP item 4):
    it is counted in ``stalls``, not as a failure.  Checks run outside the
    timed region.
    Each time is scaled to nominal host speed as it is taken (speed.py);
    the raw wall-clock times are kept for the report.
    """

    def __init__(self, errors, speed):
        self.lars_error = errors.LarsError
        self.stalled_path = errors.StalledPath
        self.speed = speed
        self.timing = True
        self.samples = {}    # metric -> scaled seconds
        self.raw = {}        # metric -> wall-clock seconds
        self.vertex_rates = []  # per round: vertices of passed fits / seconds of all fits
        self.vertices = 0    # of the round in progress: vertices of passed fits
        self.fit_s = 0.0     # and scaled seconds of all its fits
        self.ls_ratios = []  # lars fit over the least-squares solve right after it
        self.current = []    # scaled seconds of the round in progress
        self.moves = {}      # variant -> moves of its latest returned fit
        self.attempted = 0
        self.failed = 0
        self.stalls = 0
        self.wrong = 0
        self.problems = []

    def _timed(self, metric, fn):
        t0 = time.perf_counter()
        out = exc = None
        try:
            out = fn()
        except Exception as e:  # LarsError is a refusal, anything else wrong
            exc = e
        raw = time.perf_counter() - t0
        dt = raw * self.speed.mark()
        if self.timing:
            self.samples.setdefault(metric, []).append(dt)
            self.raw.setdefault(metric, []).append(raw)
        return out, exc, dt

    def run(self, metric, fn, check, stall_ok=False):
        out, exc, dt = self._timed(metric, fn)
        self.attempted += 1
        self.current.append(dt)
        if stall_ok and isinstance(exc, self.stalled_path):
            self.stalls += 1
            self._note(metric, f"stalled (ROADMAP item 4): {exc}")
            return None
        if exc is not None:
            self.failed += 1
            if not isinstance(exc, self.lars_error):
                self.wrong += 1
            self._note(metric, f"raised {type(exc).__name__}: {exc}")
            return None
        problems = check(out)
        if problems:
            self.failed += 1
            self.wrong += 1
            self._note(metric, "; ".join(problems[:3]))
        return out

    def fit(self, variant, fn, check, stall_ok=False):
        failed, stalls = self.failed, self.stalls
        out = self.run(f"{variant}_ms", fn, check, stall_ok)
        passed = self.failed == failed and self.stalls == stalls
        if passed:
            self.moves[variant] = out.n_steps
            self.vertices += len(out.steps)
        self.fit_s += self.current[-1]
        return out

    def yardstick(self, fn):
        """Least-squares solve, timed right after a lars fit of the same design:
        their wall-clock ratio is free of the host's speed at that moment."""
        self._timed("ls_solve_ms", fn)
        if self.timing and self.raw.get("lars_ms"):
            self.ls_ratios.append(self.raw["lars_ms"][-1] / self.raw["ls_solve_ms"][-1])

    def take_round(self):
        """Scaled program seconds of the round just finished."""
        if self.timing:
            self.vertex_rates.append(self.vertices / self.fit_s)
        total, self.current = sum(self.current), []
        self.vertices, self.fit_s = 0, 0.0
        return total

    def _note(self, metric, text):
        if len(self.problems) < 20:
            self.problems.append(f"{metric}: {text}")


def tail(samples):
    """Highest listed percentile with at least ten samples above it."""
    s = sorted(samples)
    n = len(s)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, s[rank - 1]
    return None


def environment(lp):
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    digest = hashlib.sha256()
    for f in sorted((SRC / "larspath").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode())
        digest.update(f.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the field is informative only
        blas = "unknown"
    kernels = sys.modules.get("larspath.kernels")
    backend = getattr(kernels, "backend_name", lambda: "none")()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kernel_backend": backend,
        "machine": platform.machine(),
    }


def do_setup(workload, rec):
    """One set-up: the data, then a checked warm-up round.  Returns the
    program's scaled seconds; checks are excluded."""
    t0 = time.perf_counter()
    workload.setup()
    data_s = (time.perf_counter() - t0) * rec.speed.mark()
    timing, rec.timing = rec.timing, False
    workload.round(rec, 0)
    warm_s = rec.take_round()
    rec.timing = timing
    return data_s + warm_s


def run_rounds(workload, rec, count=None, until=None, tracer=None):
    """Rounds until ``count`` are done or the clock passes ``until``.
    Returns each round's scaled program seconds and the traced round roots."""
    rounds, roots = [], []
    i = 0
    while True:
        root = tracer.open("bench.round") if tracer else None
        workload.round(rec, i)
        if tracer:
            tracer.close(root)
            roots.append(root)
        rounds.append(rec.take_round())
        i += 1
        if count is not None and i >= count:
            break
        if until is not None and time.perf_counter() >= until:
            break
    return rounds, roots


def end_to_end(rec, setup_s, rounds):
    scaled = {k: [dt * 1e3 for dt in v] for k, v in rec.samples.items()}
    med = {k: statistics.median(v) for k, v in scaled.items()}
    values = {
        "setup_s": setup_s,
        "round_ms": statistics.median(rounds) * 1e3,
        "vertices_per_s": statistics.median(rec.vertex_rates),
        "ls_ratio": statistics.median(rec.ls_ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in END_TO_END:
        values.setdefault(name, med.get(name))
    for name in REPORT_ONLY:
        if name in med:
            values[name] = med[name]
    return values, scaled


def per_layer(tracer, roots, setup_root, factor, traced, plain):
    rows = [tracer.totals(r) for r in roots]

    def field(totals, span, key):
        row = totals.get(span)
        if row is None:
            return 0
        if key.startswith("under:"):
            return row["under"].get(key[6:], 0)
        return row[key]

    for name, (calls, count) in tracer.counters.items():
        rows[0].setdefault(name, {}).update(calls=calls, count=count)
    values = {name: sum(field(t, span, key) for t in rows) / len(rows)
              for name, (span, key) in PER_LAYER.items()}
    setup_totals = tracer.totals(setup_root)
    for name, (span, key) in PER_LAYER_SETUP.items():
        values[name] = field(setup_totals, span, key)
    for name in values:
        if name.endswith("_ms"):
            values[name] *= factor
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(t / p for t, p in zip(traced, plain)) - 1.0)
    values["trace.spans"] = (len(tracer.name) - setup_root) / len(roots)
    return values


def report_end_to_end(values, scaled, rec, nominal_ms):
    print(f"{'metric':<20} {'unit':<6} {'median':>12} {'tail':>18} {'samples':>8} "
          f"{'raw median':>12}")
    for name in list(END_TO_END) + [n for n in REPORT_ONLY if n in values]:
        unit = END_TO_END.get(name, "ms")
        samples = scaled.get(name, [])
        t = tail(samples)
        tail_txt = f"p{t[0]:g}={t[1]:.4g}" if t else "n/a (<11)"
        count = len(samples) if samples else "-"
        raw = (f"{statistics.median(rec.raw[name]) * 1e3:.6g}"
               if name in rec.raw else "")
        print(f"{name:<20} {unit:<6} {values[name]:>12.6g} {tail_txt:>18} {count!s:>8} "
              f"{raw:>12}")
    rate = rec.failed / rec.attempted
    print(f"{'error_rate':<20} {'ratio':<6} {rate:>12.6g} {'':>18} {rec.attempted:>8}")
    print(f"{'stalls':<20} {'count':<6} {rec.stalls:>12d} {'':>18} {rec.attempted:>8}")
    print(f"# times are scaled to a host where the speed probe takes {nominal_ms} ms; "
          f"raw medians are wall-clock")


def report_per_layer(values):
    fit = values["core.fit_path.busy_ms"]
    print(f"{'per-layer metric (per round)':<44} {'unit':<6} {'value':>12} {'of fit':>7}")
    for name, v in values.items():
        unit = _unit(name)
        share = (f"{100 * v / fit:6.1f}%" if unit == "ms" and fit and name.startswith(
            ("core.gram", "linalg", "kernels", "core.fit_path.self")) else "")
        print(f"{name:<44} {unit:<6} {v:>12.6g} {share:>7}")
    print("wait time: none. The process is single-threaded, so no layer waits "
          "on another; only busy and self time are reported.")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    lp = import_program()
    if lp is None:
        return 2
    import_raw_s = time.perf_counter() - t0

    sys.path.insert(0, str(HERE))
    from spans import Tracer  # noqa: E402  (benchmark modules, after the program)
    from speed import NOMINAL_MS, Speed  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", lp.errors.TieWarning)

    OUT.mkdir(exist_ok=True)
    env = environment(lp)
    print("# env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](lp, args.seed, OUT)
    workload.prepare()
    speed = Speed()
    import_s = import_raw_s * speed.factor(0)
    rec = Recorder(lp.errors, speed)
    setups = [do_setup(workload, rec) for _ in range(SETUP_REPEATS if args.trace == 0 else 1)]
    setup_s = import_s + statistics.median(setups)

    if args.trace == 0:
        rounds, _ = run_rounds(workload, rec, until=time.perf_counter() + args.seconds)
        values, scaled = end_to_end(rec, setup_s, rounds)
        missing = [n for n in END_TO_END if values.get(n) is None]
        if missing:
            print(f"error: no samples for {missing}; problems: {rec.problems}",
                  file=sys.stderr)
            return 1
        print(f"# workload={workload.name} seed={args.seed} rounds={len(rounds)} "
              f"designs={workload.designs} import_s={import_s:.4f} "
              f"setups_s={[round(x, 4) for x in setups]}")
        report_end_to_end(values, scaled, rec, NOMINAL_MS)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    else:
        # The same rounds untraced, then traced.  Their number follows from
        # --seconds alone, so per-round counts repeat exactly for a seed.
        rec.timing = False
        count = max(1, int(args.seconds / (2 * workload.round_s)))
        plain, _ = run_rounds(workload, rec, count=count)
        tracer = Tracer()
        tracer.install()
        try:
            first = len(speed.values)
            setup_root = tracer.open("bench.data")
            workload.setup()
            tracer.close(setup_root)
            stalls = rec.stalls
            traced, roots = run_rounds(workload, rec, count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(tracer, roots, setup_root, speed.factor(first),
                           traced, plain)
        values["core.fit_path.stalls"] = (rec.stalls - stalls) / count
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv")
        print(f"# workload={workload.name} seed={args.seed} traced_rounds={count} "
              f"spans={len(tracer.name)}")
        report_per_layer(values)
        metrics = {n: {"value": v, "unit": _unit(n)} for n, v in values.items()}

    print("# moves of the latest fit that returned: "
          + " ".join(f"{v}={n}" for v, n in rec.moves.items()))
    for p in rec.problems:
        print(f"# {p}")
    result = {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    record = dict(result, env=env, workload=workload.name, seed=args.seed,
                  trace=args.trace, problems=rec.problems,
                  raw_samples=rec.raw, samples=rec.samples, probes=speed.values)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
