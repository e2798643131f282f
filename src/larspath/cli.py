"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, missing arguments),
2 on data errors (unreadable files, malformed CSV, infeasible requests).
"""

import argparse
import json
import re
import sys

import numpy as np

from .core import VARIANTS, _max_active, fit_path, interpolate
from .dataio import _csv_fields, json_summary, read_csv, write_path_csv
from .errors import DimensionMismatch, LarsError, as_integer
from .model_select import (
    bootstrap_df,
    cp_curve,
    lars_fitted_values,
    main_effects_first,
    run_simulation_study,
    sigma2_full_ols,
)
from .preprocess import _interactions, quadratic_expand, standardize, to_original_units

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_data_options(sp, quadratic="optional"):
    """``--input`` and ``--response``, plus the quadratic expansion's flags:
    ``--quadratic`` and ``--binary-col`` when ``quadratic`` is "optional",
    ``--binary-col`` alone when it is "always", neither when it is None."""
    sp.add_argument("--input", required=True, help="CSV file with a header row")
    sp.add_argument("--response", required=True, help="name of the response column")
    if quadratic == "optional":
        sp.add_argument("--quadratic", action="store_true",
                        help="expand to main effects, pairwise products, squares")
    if quadratic is not None:
        sp.add_argument("--binary-col", default=None,
                        help="two-valued column to skip when squaring "
                             "(default: auto-detect)")


def _add_output_options(sp):
    sp.add_argument("--out", default=None, help="write the CSV report here")
    sp.add_argument("--json", action="store_true",
                    help="print a JSON summary to stdout")


def _add_standardized_option(sp):
    """For the commands that report coefficients."""
    sp.add_argument("--standardized", action="store_true",
                    help="report coefficients on the unit-norm scale")


def _binary_column(args, matrix, labels):
    """Index of the two-valued column: the one ``--binary-col`` names, else
    the only column holding exactly two distinct values."""
    if args.binary_col is not None:
        if args.binary_col not in labels:
            raise DimensionMismatch(f"column {args.binary_col!r} not in {labels}")
        return labels.index(args.binary_col)
    hits = [j for j in range(matrix.shape[1])
            if np.unique(matrix[:, j]).size == 2]
    if len(hits) != 1:
        raise DimensionMismatch(
            f"expected exactly one two-valued column, found {len(hits)}; "
            "use --binary-col"
        )
    return hits[0]


def _load_design(args):
    matrix, response, labels = read_csv(args.input, args.response)
    if getattr(args, "quadratic", False):
        binary = _binary_column(args, matrix, labels)
        matrix, labels = quadratic_expand(matrix, binary, labels)
    return standardize(matrix, response, labels), matrix, response, labels


def _emit(args, text, summary):
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    elif args.out is None:
        sys.stdout.write(text)
    return 0


def _cmd_fit(args):
    design, *_ = _load_design(args)
    path = fit_path(design, args.variant)
    text = write_path_csv(path, standardized=args.standardized)
    return _emit(args, text, json_summary(path))


def _cmd_cp(args):
    design, *_ = _load_design(args)
    sigma2 = sigma2_full_ols(design)
    path = fit_path(design, "lars")
    report = cp_curve(path, sigma2)
    lines = ["k,df,cp"]
    for k in range(report.cp.size):
        lines.append(f"{k},{report.df_used[k]:.17g},{report.cp[k]:.17g}")
    summary = json_summary(path)
    summary["cp_argmin"] = int(report.argmin_k)
    summary["sigma2_bar"] = report.sigma2_bar
    return _emit(args, "\n".join(lines) + "\n", summary)


def _cmd_bootstrap_df(args):
    design, *_ = _load_design(args)
    estimator = lars_fitted_values(design, _max_active(design))
    estimates = bootstrap_df(design, estimator, B=args.B, groups=args.groups,
                             seed=args.seed)
    lines = ["k,df_hat,ci_low,ci_high"]
    for e in estimates:
        lines.append(f"{e.k},{e.df_hat:.17g},{e.ci_low:.17g},{e.ci_high:.17g}")
    summary = {
        "B": args.B,
        "groups": args.groups,
        "df_hat": [e.df_hat for e in estimates],
        "ci_low": [e.ci_low for e in estimates],
        "ci_high": [e.ci_high for e in estimates],
    }
    return _emit(args, "\n".join(lines) + "\n", summary)


def _cmd_simulate(args):
    matrix, response, labels = read_csv(args.input, args.response)
    result = run_simulation_study(matrix, response, seed=args.seed,
                                  replications=args.replications,
                                  n_steps=args.n_steps,
                                  binary_column=_binary_column(args, matrix, labels))
    lines = ["method,step,pe_mean,pe_sd,avg_nonzero"]
    for name in sorted(result.pe_curves):
        pe = result.pe_curves[name]
        sd = result.pe_sd[name]
        nz = result.nonzero_axis[name]
        for k in range(pe.size):
            lines.append(
                f"{name},{k},{pe[k]:.17g},{sd[k]:.17g},{nz[k]:.17g}"
            )
    summary = {
        "true_R2": result.true_R2,
        "replications": result.replications,
        "steps": result.n_steps,
        "pe_max": {name: float(result.pe_curves[name].max())
                   for name in result.pe_curves},
        "pe_argmax": {name: int(result.pe_curves[name].argmax())
                      for name in result.pe_curves},
    }
    return _emit(args, "\n".join(lines) + "\n", summary)


def _cmd_interpolate(args):
    design, *_ = _load_design(args)
    path = fit_path(design, args.variant)
    beta = interpolate(path, args.t)
    if args.standardized:
        coef, intercept = beta, 0.0
    else:
        coef, intercept = to_original_units(design, beta)
    names = design.column_names
    lines = ["variable,coefficient", f"(intercept),{intercept:.17g}"]
    for field, value in zip(_csv_fields(names), coef):
        lines.append(f"{field},{value:.17g}")
    summary = {
        "variant": path.variant,
        "steps": path.n_steps,
        "t": args.t,
        "t_max": path.t_max,
        "intercept": intercept,
        "support": [names[j] for j in np.flatnonzero(beta)],
        "coefficients": {name: float(v) for name, v in zip(names, coef)},
    }
    return _emit(args, "\n".join(lines) + "\n", summary)


def _cmd_main_effects_first(args):
    design, matrix, response, labels = _load_design(args)
    base = fit_path(design, "lars")
    k = as_integer(args.k, "k", 0, base.n_steps)
    chosen = sorted(base.steps[k].active_after)
    if len(chosen) < 2:
        raise DimensionMismatch("need at least two selected variables "
                                "to form interactions")
    cols, names = _interactions(matrix - matrix.mean(axis=0), chosen, labels)
    inner = main_effects_first(base, k, np.column_stack(cols), names,
                               variant=args.variant)
    text = write_path_csv(inner, standardized=args.standardized)
    summary = json_summary(inner)
    summary["k"] = k
    summary["selected_mains"] = [labels[j] for j in chosen]
    return _emit(args, text, summary)


def _build_parser():
    parser = _Parser(prog="larspath",
                     description="Piecewise-linear regression path fitting")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("fit", help="fit a coefficient path")
    _add_data_options(sp)
    sp.add_argument("--variant", default="lars", choices=VARIANTS)
    _add_output_options(sp)
    _add_standardized_option(sp)
    sp.set_defaults(handler=_cmd_fit)

    sp = sub.add_parser("cp", help="risk estimate per step (df = k rule)")
    _add_data_options(sp)
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_cp)

    sp = sub.add_parser("bootstrap-df", help="bootstrap degrees of freedom")
    _add_data_options(sp)
    sp.add_argument("--B", type=int, default=100)
    sp.add_argument("--groups", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_bootstrap_df)

    sp = sub.add_parser("simulate",
                        help="resampled prediction-error comparison")
    _add_data_options(sp, quadratic="always")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replications", type=int, default=100)
    sp.add_argument("--steps", type=int, default=40, dest="n_steps")
    _add_output_options(sp)
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("interpolate",
                        help="coefficients at a magnitude budget t")
    _add_data_options(sp)
    sp.add_argument("--variant", default="lasso", choices=VARIANTS)
    sp.add_argument("--t", type=float, required=True)
    _add_output_options(sp)
    _add_standardized_option(sp)
    sp.set_defaults(handler=_cmd_interpolate)

    sp = sub.add_parser("main-effects-first",
                        help="fit interactions against a k-step residual")
    _add_data_options(sp, quadratic=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--variant", default="lars", choices=VARIANTS)
    _add_output_options(sp)
    _add_standardized_option(sp)
    sp.set_defaults(handler=_cmd_main_effects_first)
    for sp in sub.choices.values():
        sp.set_defaults(flags={a.dest: a.option_strings[-1] for a in sp._actions})
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args) or 0
    except (LarsError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, DimensionMismatch):
            # The library names an argument as it is passed ("n_steps=65");
            # the refusal names the flag that set it ("--steps=65").
            message = re.sub(r"(?<!\S)(\w+)=",
                             lambda m: args.flags.get(m[1], m[1]) + "=", message)
        print(f"error: {message}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
