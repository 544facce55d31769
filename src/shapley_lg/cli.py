"""Command-line front end.

Verbs: ``compute`` (exact indices of a model file), ``estimate``
(the random-ordering estimator), ``generate`` (random benchmark instances),
``benchmark`` (timing table as CSV) and ``mc`` (black-box estimation from
an expression file). Exit codes: 0 success, 2 validation error, 3 cap or
budget error, 4 file parse error or a bad command line (an unknown verb or
flag, a flag value argparse cannot read, a missing required flag, an
empty file name, or ``--eps-block`` without ``--groups``), each with one
``error:`` line.
:func:`main` reuses one parser per process: argparse fills a fresh
namespace on each call, so no call sees another's flags.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from functools import cache

import numpy as np

from . import files
from .blocks import lg_groups_indices
from .errors import (BudgetExceededError, DimensionCapError, FileFormatError,
                     ModelValidationError)
from .indices import lg_indices
from .model import generate_block_instance, total_variance
from .montecarlo import (MC_MINIMUMS, McConfig, block_additive_shapley,
                         mc_shapley, output_variance)
from .permutations import (EXACT_ENUMERATION_CAP, cv_summary_from_replicates,
                           exact_permutation_shapley,
                           random_permutation_shapley, replicate_estimates)
from .subsets import FULL_LATTICE_CAP, check_lattice_cap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_PARSE = 4

#: Smallest accepted value of each numeric flag, keyed by its argparse
#: destination; ``estimate --m`` shares the minimum of ``mc --m``.
FLAG_MINIMUMS = {**MC_MINIMUMS, "reps": 1, "p": 1, "k": 1, "n": 1,
                 "repetitions": 1, "eps_block": 0.0, "seed": 0}

#: ``compute --groups`` warns when its groups' shares of var(y) miss 1 by
#: more than this, as when ``--eps-block`` drops covariance between groups.
DROPPED_SHARE_TOL = 1e-8

#: Flags that name a file; none may be an empty string.
PATH_FLAGS = ("model", "dist", "out")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 4 with one line, not 2
    (the validation code) after a usage block. Its subparsers share it."""

    def error(self, message):
        raise FileFormatError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shapley-lg",
        description="Sobol indices and Shapley effects for linear Gaussian "
                    "models, with Monte Carlo estimators for black-box models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="exact indices of a model file")
    p_compute.add_argument("--model", required=True, help="model JSON file")
    p_compute.add_argument("--out", help="report path (default: stdout)")
    p_compute.add_argument("--groups", action="store_true",
                           help="exploit independent groups of the covariance")
    p_compute.add_argument("--eps-block", type=float,
                           help="with --groups, the threshold below which "
                                "covariance entries count as zero for group "
                                "detection (default 0)")

    p_estimate = sub.add_parser(
        "estimate", help="random-ordering Shapley estimator")
    p_estimate.add_argument("--model", required=True)
    # One method; the flag stays so that command lines naming it still parse.
    p_estimate.add_argument("--method", choices=["random-perm"],
                            default="random-perm",
                            help="estimator: random-perm (sampled "
                                 "orderings), the only one and the default")
    p_estimate.add_argument("--m", type=int, default=100,
                            help="number of sampled orderings")
    p_estimate.add_argument("--seed", type=int, default=0)
    p_estimate.add_argument("--reps", type=int, default=1,
                            help="replicates; above 1 a CV summary is added")
    p_estimate.add_argument("--out")

    p_generate = sub.add_parser(
        "generate", help="random benchmark model files")
    p_generate.add_argument("--p", type=int, help="dense instance dimension")
    p_generate.add_argument("--k", type=int, help="number of independent groups")
    p_generate.add_argument("--n", type=int, help="variables per group")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.add_argument("--out", help="model path (default: stdout)")

    p_bench = sub.add_parser(
        "benchmark", help="timing table (CSV) of the computation routes")
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated p values, or KxN pairs "
                              "with --groups (e.g. 3x3,4x4)")
    p_bench.add_argument("--groups", action="store_true",
                         help="compare the grouped route on block instances")
    p_bench.add_argument("--repetitions", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="CSV path (default: stdout)")

    p_mc = sub.add_parser(
        "mc", help="black-box Shapley estimation from an expression file")
    p_mc.add_argument("--model", required=True, help="expression JSON file")
    p_mc.add_argument("--dist", required=True,
                      help="Gaussian input distribution JSON file")
    p_mc.add_argument("--blocks", action="store_true",
                      help="estimate per block and combine; the blocks "
                           "are f's top-level terms, joined where they share "
                           "an input or the covariance links their inputs")
    p_mc.add_argument("--m", type=int, default=100)
    p_mc.add_argument("--n-var", type=int, default=McConfig.n_var)
    p_mc.add_argument("--n-outer", type=int, default=McConfig.n_outer)
    p_mc.add_argument("--n-inner", type=int, default=McConfig.n_inner)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--budget", type=int, default=McConfig.budget,
                      help="cap on m * n_outer * n_inner")
    p_mc.add_argument("--out")
    return parser


def cmd_compute(args) -> int:
    if args.eps_block is not None and not args.groups:
        raise FileFormatError("--eps-block needs --groups")
    eps_block = args.eps_block or 0.0
    model = files.read_model(args.model)
    rep = (lg_groups_indices(model, eps_block) if args.groups
           else lg_indices(model))
    # A group's share of var(y) is the sum of its Shapley effects.
    dropped = 1.0 - float(rep.shapley.sum())
    if args.groups and abs(dropped) > DROPPED_SHARE_TOL:
        print(f"warning: --eps-block {eps_block} drops the covariance "
              f"between groups, a share of {dropped:.6g} of var(y)",
              file=sys.stderr)
    files.write_report(files.report_from_sensitivity(rep), args.out)
    return EXIT_OK


def _check_flag(dest: str, value, minimum) -> None:
    """Reject a flag value that is not finite or is below ``minimum``."""
    if not (math.isfinite(value) and value >= minimum):
        raise FileFormatError(f"--{dest.replace('_', '-')} must be a finite "
                              f"number >= {minimum}, got {value}")


def cmd_estimate(args) -> int:
    model = files.read_model(args.model)
    summary = None
    if args.reps == 1:
        shapley = random_permutation_shapley(model, args.m,
                                             args.seed).shapley_hat
    else:
        samples = replicate_estimates(model, args.m, args.reps, args.seed)
        summary = cv_summary_from_replicates(samples, args.m, args.seed)
        shapley = samples.mean(axis=0)
    doc = files.report_from_estimate(
        shapley, total_variance(model), "random-permutations", seed=args.seed,
        config={"method": args.method, "m": args.m, "reps": args.reps},
        cv=summary)
    files.write_report(doc, args.out)
    # The summary line follows a written report, so a failed write prints none.
    if summary is not None and args.out is not None:
        cv_text = "nan" if math.isnan(summary.mean_cv) \
            else f"{summary.mean_cv:.2f}"
        sys.stdout.write(f"m,mean_cv_percent\n{args.m},{cv_text}\n")
    return EXIT_OK


def cmd_generate(args) -> int:
    if (args.p is None) == (args.k is None) or (args.k is None) != (
            args.n is None):
        raise FileFormatError("give either --p, or both --k and --n")
    k, n = (1, args.p) if args.k is None else (args.k, args.n)
    files.write_model(generate_block_instance(k, n, args.seed), args.out)
    return EXIT_OK


def _timed(fn, repetitions: int):
    """Median seconds of ``repetitions`` calls of ``fn`` and its last result."""
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def _parse_sizes(text: str, grouped: bool) -> list[tuple[int, int]]:
    """The ``(k, n)`` of each comma-separated size: ``KxN`` pairs with
    ``grouped``, else each ``p`` as one group, ``(1, p)``."""
    sizes = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            k, n = item.lower().split("x") if grouped else ("1", item)
            sizes.append((int(k), int(n)))
        except ValueError as err:
            raise FileFormatError(
                f"bad size {item!r}: expected "
                + ("KxN pairs like 4x4" if grouped else "integers")
            ) from err
    if not sizes:
        raise FileFormatError("--sizes is empty")
    for value in np.ravel(sizes):
        _check_flag("sizes", value, 1)
    return sizes


def cmd_benchmark(args) -> int:
    rows = []
    for k, n in _parse_sizes(args.sizes, args.groups):
        # A lattice past the cap exits 3 before its instance is built.
        check_lattice_cap(n)
        model = generate_block_instance(k, n, args.seed)
        label = f"{k}x{n}" if args.groups else str(n)
        # Past the lattice cap --groups times only its own route.
        calls = [] if model.p > FULL_LATTICE_CAP else [
            ("lg-indices", lambda: lg_indices(model))]
        if args.groups:
            calls.append(("lg-groups-indices",
                          lambda: lg_groups_indices(model)))
        elif model.p <= EXACT_ENUMERATION_CAP:
            calls.append(("exact-permutations", lambda:
                          exact_permutation_shapley(model, memoize=False)))
        for algorithm, call in calls:
            seconds, result = _timed(call, args.repetitions)
            # The lattice routes count their table entries; the enumeration
            # walks p steps of each of its p! orderings.
            rows.append((algorithm, label, f"{seconds:.6f}", getattr(
                result, "eval_count", math.factorial(model.p) * model.p)))
    with files.open_output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["algorithm", "size", "median_seconds", "eval_count"])
        writer.writerows(rows)
    return EXIT_OK


def cmd_mc(args) -> int:
    expr = files.read_expression_file(args.model)
    inp = files.read_distribution(args.dist)
    if args.blocks:
        full_model, models, partition = files.build_block_functions(
            expr, inp.gamma)
    else:
        full_model = files.build_function(expr, inp.p)

    var_child, mc_child = np.random.SeedSequence(args.seed).spawn(2)
    cfg = McConfig(
        m=args.m, n_var=args.n_var, n_outer=args.n_outer,
        n_inner=args.n_inner, budget=args.budget,
        seed=int(mc_child.generate_state(1)[0]),
    )
    var_y = output_variance(full_model, inp, cfg.n_var, var_child,
                            "the expression")

    config = {
        "m": args.m, "n_var": args.n_var, "n_outer": args.n_outer,
        "n_inner": args.n_inner, "budget": args.budget,
        "blocks": bool(args.blocks),
    }
    if args.blocks:
        pairs = [(bm, inp.marginal(np.asarray(group) - 1))
                 for bm, group in zip(models, partition.groups)]
        shapley = block_additive_shapley(pairs, cfg, partition)
        algorithm = "block-additive-mc"
    else:
        shapley = mc_shapley(full_model, inp, cfg, var_y=var_y).shapley_hat
        algorithm = "mc-shapley"
    doc = files.report_from_estimate(shapley, var_y, algorithm,
                                     seed=args.seed, config=config)
    files.write_report(doc, args.out)
    return EXIT_OK


_COMMANDS = {
    "compute": cmd_compute,
    "estimate": cmd_estimate,
    "generate": cmd_generate,
    "benchmark": cmd_benchmark,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for dest, value in vars(args).items():
            if dest in FLAG_MINIMUMS and value is not None:
                _check_flag(dest, value, FLAG_MINIMUMS[dest])
            elif dest in PATH_FLAGS and value == "":
                raise FileFormatError(f"--{dest} is empty")
        return _COMMANDS[args.command](args)
    except ModelValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DimensionCapError, BudgetExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except FileFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:          # reads raise FileFormatError instead
        print(f"error: cannot write {err.filename or '<stdout>'}: "
              f"{err.strerror or err}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as err:      # numpy's names the array, a bare one nothing
        print(f"error: out of memory: {str(err) or 'an array is too large'}",
              file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
