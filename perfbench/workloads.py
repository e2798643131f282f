"""The four workloads: their data, their set-up and one measured round.

Every workload runs the same fit block on its own design: all four
variants, one least-squares solve as the yardstick, ``interpolate`` at 1000
budgets on the lasso path, and one in-process CLI round trip on the same
data.  What differs is the design, which decides the layer that dominates:

* ``diabetes`` - the bundled 442x64 quadratic design; stagewise cone
  projections (``nnls_inner_loop``, ``cholesky_drop``, ``givens_downdate``)
  dominate, and the CLI reads the bundled CSV with ``--quadratic``.
* ``tall`` - 2000x200 Gaussian designs built like the runtime acceptance
  test; the Gram is eager and the engine's per-move work dominates.  It
  carries the paper's cost claim through ``ls_ratio``.
* ``wide`` - 100x1000 Gaussian designs (n < m); the Gram is lazy and
  ``_GramCache.stack`` dominates.  Stagewise raises ``StalledPath`` on most
  of these designs (ROADMAP item 4); those fits are counted as stalls.
* ``resample`` - the fixed 442x10 diabetes design with many short refits:
  ``bootstrap_df``, ``lasso_df_by_support`` and ``run_simulation_study``,
  plus the paper's diabetes facts on the fit block.

Random designs are drawn per run from the seed; ``tall`` and ``wide``
cycle through several designs so that one unusual draw does not set a
run's figures.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import scipy.linalg

import checks

VARIANTS = checks.VARIANTS
N_BUDGETS = 1000
PAPER_MOVES = {"lars": 10, "lasso": 12, "stagewise": 13}
PAPER_ENTRY = ["BMI", "S5", "BP", "S3"]
PAPER_CP_ARGMIN = 7
SIM_METHODS = ("lars", "lasso", "stagewise", "forward-selection")


def ls_solve(X, y):
    """One least-squares solve: QR when n >= m, as the runtime acceptance
    test does; rank-revealing QR (``gelsy``) when n < m."""
    n, m = X.shape
    if n >= m:
        Q, R = np.linalg.qr(X)
        return scipy.linalg.solve_triangular(R, Q.T @ y)
    return scipy.linalg.lstsq(X, y, lapack_driver="gelsy")[0]


def write_csv(path, X, y):
    """Raw design as the CLI reads it: header row, 17 significant digits."""
    header = ",".join([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def _cli(lp, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lp.cli.cli_main(argv)
    return code, buf.getvalue()


class Workload:
    """Set-up and rounds for one workload; subclasses supply the data."""

    name = ""
    why = ""
    designs = 1      # rounds before the designs repeat
    stall_ok = ()    # variants whose StalledPath is the known ROADMAP item 4 stall
    # Wall seconds of one traced round on a 2-core host with OpenBLAS on one
    # thread.  A traced run makes --seconds / (2 * round_s) rounds untraced
    # and as many traced, so its round count depends on --seconds alone.
    round_s: float

    def __init__(self, lp, seed, workdir):
        self.lp = lp
        self.seed = seed
        self.workdir = Path(workdir)
        self.reference = {}

    def prepare(self):
        """Untimed: write the CLI's input files."""

    def setup(self):
        """Timed: load or generate, expand and standardize the data."""
        raise NotImplementedError

    def round(self, rec, i):
        """One round; ``i`` picks the design."""
        raise NotImplementedError

    def budgets(self, k):
        rng = np.random.default_rng([self.seed, k, 7])
        return np.sort(rng.uniform(0.0, 1.0, N_BUDGETS))

    def fit_block(self, rec, design, k, cli_argv, extra_check=None):
        lp = self.lp
        X, y = design.columns, design.response
        paths = {}
        for v in VARIANTS:
            def check(p, v=v):
                problems = checks.check_path(X, y, p, v)
                if extra_check is not None:
                    problems += extra_check(v, p)
                return problems
            paths[v] = rec.fit(v, lambda v=v: lp.core.fit_path(design, v), check,
                               v in self.stall_ok)
            if v == "lars":
                rec.yardstick(lambda: ls_solve(X, y))
        lasso = paths["lasso"]
        if lasso is None:
            return paths
        budgets = self.budgets(k) * lasso.t_max
        rec.run("interpolate_ms",
                lambda: [lp.core.interpolate(lasso, t) for t in budgets],
                lambda betas: checks.check_interpolation(lasso, budgets, betas))
        out_file = cli_argv[cli_argv.index("--out") + 1]
        rec.run("cli_fit_ms", lambda: _cli(lp, cli_argv),
                lambda r: checks.check_cli(r[0], r[1], out_file, lasso))
        return paths

    def cli_argv(self, csv_path, response, extra=()):
        out = self.workdir / f"cli-{self.name}.csv"
        return ["fit", "--input", str(csv_path), "--response", response, *extra,
                "--variant", "lasso", "--json", "--out", str(out)]

    def same_as_before(self, key, value):
        """Results of a seeded call must repeat bit for bit across rounds."""
        d = checks.digest(value)
        if self.reference.setdefault(key, d) != d:
            return [f"{key} differs from its first round"]
        return []


def _bundled_csv(lp):
    return Path(lp.datasets.__file__).parent / "data" / "diabetes.csv"


class Diabetes(Workload):
    name = "diabetes"
    why = ("bundled 442x64 quadratic design: stagewise cone projections "
           "dominate, plus interpolate and the CLI on the bundled CSV")
    round_s = 0.45

    def setup(self):
        lp = self.lp
        raw, response, names = lp.datasets.load_diabetes()
        expanded, labels = lp.preprocess.quadratic_expand(raw, 1, names)
        self.design = lp.preprocess.standardize(expanded, response, labels)
        self.argv = self.cli_argv(_bundled_csv(lp), "Y", ["--quadratic"])

    def round(self, rec, i):
        self.fit_block(rec, self.design, 0, self.argv)


class _Gaussian(Workload):
    shape = (0, 0)

    def _raw(self, k):
        n, m = self.shape
        rng = np.random.default_rng([self.seed, k])
        X = rng.normal(size=(n, m))
        y = X @ rng.normal(size=m) + rng.normal(size=n)
        return X, y

    def _csv(self, k):
        return self.workdir / f"{self.name}-seed{self.seed}-design{k}.csv"

    def prepare(self):
        for k in range(self.designs):
            write_csv(self._csv(k), *self._raw(k))

    def setup(self):
        self.design_list = [self.lp.preprocess.standardize(*self._raw(k))
                            for k in range(self.designs)]

    def round(self, rec, i):
        k = i % self.designs
        self.fit_block(rec, self.design_list[k], k, self.cli_argv(self._csv(k), "y"))


class Tall(_Gaussian):
    name = "tall"
    why = ("2000x200 Gaussian designs, eager Gram: the engine's per-move work "
           "and the paper's one-least-squares cost claim (ls_ratio)")
    shape = (2000, 200)
    # Positive-lasso takes 87 to 113 moves on these designs and lasso's drops
    # vary too, so a run cycles through enough designs to average that out.
    designs = 12
    round_s = 1.1


class Wide(_Gaussian):
    """Round ``i`` runs the fit block on design 2k and fits lars, lasso and
    positive-lasso again on design 2k + 1.  The stagewise stall costs about
    two seconds a round, so without the second design a run would see too
    few designs for the other variants' medians to settle."""

    name = "wide"
    why = ("100x1000 Gaussian designs, lazy Gram: Gram column stacking dominates; "
           "stagewise stalls on most designs, counted as stalls")
    shape = (100, 1000)
    designs = 10
    round_s = 4.0
    stall_ok = ("stagewise",)
    SECOND = ("lars", "lasso", "positive-lasso")

    def prepare(self):
        for k in range(0, 2 * self.designs, 2):
            write_csv(self._csv(k), *self._raw(k))

    def setup(self):
        self.design_list = [self.lp.preprocess.standardize(*self._raw(k))
                            for k in range(2 * self.designs)]

    def round(self, rec, i):
        k = 2 * (i % self.designs)
        self.fit_block(rec, self.design_list[k], k, self.cli_argv(self._csv(k), "y"))
        d = self.design_list[k + 1]
        for v in self.SECOND:
            rec.fit(v, lambda v=v: self.lp.core.fit_path(d, v),
                    lambda p, v=v: checks.check_path(d.columns, d.response, p, v))
            if v == "lars":
                rec.yardstick(lambda: ls_solve(d.columns, d.response))


class Resample(Workload):
    name = "resample"
    why = ("fixed 442x10 diabetes design, many short refits: bootstrap df, "
           "df by support size and the simulation study")
    repeats = 5      # fit blocks per round, so the short fits get enough samples
    round_s = 1.5

    def setup(self):
        lp = self.lp
        self.raw, self.response, names = lp.datasets.load_diabetes()
        self.names = list(names)
        self.design = lp.preprocess.standardize(self.raw, self.response, names)
        self.argv = self.cli_argv(_bundled_csv(lp), "Y")

    def _paper_facts(self, variant, path):
        X, y = self.design.columns, self.design.response
        problems = []
        want = PAPER_MOVES.get(variant)
        if want is not None and path.n_steps != want:
            problems.append(f"{variant} took {path.n_steps} moves, the paper has {want}")
        if variant == "lars":
            order = [self.names[j] for j in path.entry_order[:4]]
            if order != PAPER_ENTRY:
                problems.append(f"entry order starts {order}")
            if checks.cp_argmin(X, y, path) != PAPER_CP_ARGMIN:
                problems.append("Cp minimizer is not the 7-variable model")
        return problems

    def round(self, rec, i):
        lp = self.lp
        d = self.design
        for _ in range(self.repeats):
            self.fit_block(rec, d, 0, self.argv, self._paper_facts)
        k_max = 10
        rec.run(
            "bootstrap_df_ms",
            lambda: lp.model_select.bootstrap_df(
                d, lp.model_select.lars_fitted_values(d, k_max), B=100, groups=10,
                seed=self.seed),
            lambda est: checks.check_df(est, k_max) + self.same_as_before("bootstrap_df", est))
        rec.run(
            "df_by_support_ms",
            lambda: lp.model_select.lasso_df_by_support(d, B=100, seed=self.seed, groups=10),
            lambda est: checks.check_df(est, d.m) + self.same_as_before("df_by_support", est))
        rec.run(
            "simulation_ms",
            lambda: lp.model_select.run_simulation_study(
                self.raw, self.response, seed=self.seed, replications=20),
            lambda res: (checks.check_simulation(res, SIM_METHODS)
                         + self.same_as_before("simulation", res)))


WORKLOADS = {w.name: w for w in (Diabetes, Tall, Wide, Resample)}
