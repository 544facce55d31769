"""The four workloads: seeded inputs, CLI argv, references and output checks.

Every workload is a pool of cases generated from the benchmark seed; the
timed loop cycles through the pool, so the inputs a run sees depend only on
the seed. Inputs use the formulas of ``generate_random_instance`` and
``generate_block_instance`` but are drawn and written here, so the program
under test receives only files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

#: Tolerance of the exact routes against the references.
EXACT_TOL = 1e-10
#: ``estimate-perm``: allowed distance of the replicate mean from the exact
#: value, in standard errors of that mean computed from the exact table
#: (``reference.ordering_variance``), so the report cannot widen its own
#: window. The mean is over 1000 orderings; a correct estimator is this far
#: off with a probability far below 1e-9 per component.
PERM_Z = 12.0
#: ``mc-blocks``: gross-error bound on every Shapley component.
MC_GROSS_TOL = 0.25

DENSE_P = 14
GROUPS_K, GROUPS_N = 4, 6
PERM_P, PERM_M, PERM_REPS = 16, 100, 10
MC_K, MC_N, MC_M, MC_N_OUTER = 3, 3, 100, 100


@dataclass
class Case:
    """One input of a workload and everything needed to check its outputs."""

    argvs: list[list[str]]
    reports: list[Path]
    beta: np.ndarray
    gamma: np.ndarray
    expected: dict = field(default_factory=dict)


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) for s in state]


def dense_instance(p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Same draws as ``shapley_lg.model.generate_random_instance``."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    a = rng.standard_normal((p, p))
    return beta, a @ a.T


def block_instance(k: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Same draws as ``shapley_lg.model.generate_block_instance``."""
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(k * n)
    gamma = np.zeros((k * n, k * n))
    for j in range(k):
        a = rng.standard_normal((n, n))
        sl = slice(j * n, (j + 1) * n)
        gamma[sl, sl] = a @ a.T
    return beta, gamma


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_model(path: Path, beta, gamma) -> None:
    _write_json(path, {"beta": [float(v) for v in beta],
                       "gamma": [[float(v) for v in row] for row in gamma]})


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _exact_shapley(case: Case) -> None:
    table, var_y = reference.conditional_variances(case.beta, case.gamma)
    case.expected["table"] = table
    case.expected["var_y"] = var_y
    case.expected["shapley"] = reference.shapley(table, var_y)


def _exact_shapley_and_spread(case: Case) -> None:
    _exact_shapley(case)
    case.expected["ordering_var"] = reference.ordering_variance(
        case.expected["table"], case.expected["var_y"])


def _max_err(values, expected) -> float:
    values = np.asarray(values, dtype=float)
    if values.shape != expected.shape:
        return math.inf
    return float(np.max(np.abs(values - expected)))


def _check_rows(doc: dict, masks: np.ndarray, failures: list[str]) -> None:
    for family in ("sobol", "closed_sobol"):
        got = np.array([row["mask"] for row in doc[family]], dtype=np.int64)
        if got.shape != masks.shape or np.any(got != masks):
            failures.append(f"{family} rows do not cover the expected subsets")
    total = math.fsum(row["value"] for row in doc["sobol"])
    if abs(total - 1.0) > EXACT_TOL:
        failures.append(f"sobol indices sum to {total!r}")


class Workload:
    """What every workload shares."""

    #: The speed probe of ``run.timed`` that tracks this workload's calls
    #: best. Calling one case over and over for 2-4 minutes, 12 window
    #: medians of the scaled times varied (coefficient of variation) by
    #: 0.023 (compute-groups), 0.020 (estimate-perm) and 0.023 (mc-blocks)
    #: with this probe, against 0.06-0.08 with the python one.
    probe = "numpy"


class ComputeDense(Workload):
    """``compute`` on dense p = 14: one 16384-entry lattice and a
    32768-row, 5.7 MB report. The conditional table and the report write
    path do the work; the only workload where report size and memory
    matter."""

    name = "compute-dense"
    pool = 2
    tag = 1
    # A third of a call is the numpy table and most of the rest pure-Python
    # schema checks and rendering: 0.018 with the mixed probe, against
    # 0.045 with the python one and 0.083 with the numpy one (see above).
    probe = "mixed"

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        cases = []
        for i, s in enumerate(_seeds(seed, self.tag, self.pool)):
            beta, gamma = dense_instance(DENSE_P, s)
            model = workdir / f"dense{i}.json"
            _write_model(model, beta, gamma)
            out = workdir / f"dense{i}.report.json"
            cases.append(Case([["compute", "--model", str(model),
                                "--out", str(out)]], [out], beta, gamma))
        return cases

    reference = staticmethod(_exact_shapley)

    def check(self, case: Case, stdouts: list[str]) -> tuple[list[str], list]:
        failures = []
        doc = _read(case.reports[0])
        err = _max_err(doc["shapley"], case.expected["shapley"])
        if not err <= EXACT_TOL:
            failures.append(f"shapley differs from the reference by {err:.3e}")
        size = 1 << DENSE_P
        _check_rows(doc, np.arange(size), failures)
        closed = np.array([row["value"] for row in doc["closed_sobol"]])
        want = (case.expected["var_y"] - case.expected["table"]) \
            / case.expected["var_y"]
        err = _max_err(closed, want)
        if not err <= EXACT_TOL:
            failures.append(f"closed sobol differs by {err:.3e}")
        if doc["metadata"]["eval_count"] != size:
            failures.append("eval_count is not 2**p")
        return failures, []


class ComputeGroups(Workload):
    """``compute --groups`` on 4x6 block instances: four 64-entry lattices
    and a 506-row report per call, so per-call fixed costs (schema checks,
    argparse, file I/O, ``detect_blocks``) dominate. Catches a change that
    speeds up large lattices by adding per-call overhead."""

    name = "compute-groups"
    pool = 8
    tag = 2

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        cases = []
        for i, s in enumerate(_seeds(seed, self.tag, self.pool)):
            beta, gamma = block_instance(GROUPS_K, GROUPS_N, s)
            model = workdir / f"groups{i}.json"
            _write_model(model, beta, gamma)
            out = workdir / f"groups{i}.report.json"
            cases.append(Case([["compute", "--model", str(model), "--groups",
                                "--out", str(out)]], [out], beta, gamma))
        return cases

    def reference(self, case: Case) -> None:
        # Exact enumeration of orderings inside each group, scaled by the
        # group's variance share: an oracle that builds no lattice.
        from shapley_lg.model import validate_model
        from shapley_lg.permutations import exact_permutation_shapley
        var_y = float(case.beta @ case.gamma @ case.beta)
        out = np.empty(case.beta.size)
        groups = []
        for j in range(GROUPS_K):
            idx = np.arange(j * GROUPS_N, (j + 1) * GROUPS_N)
            beta_g, gamma_g = case.beta[idx], case.gamma[np.ix_(idx, idx)]
            weight = float(beta_g @ gamma_g @ beta_g) / var_y
            out[idx] = weight * exact_permutation_shapley(
                validate_model(beta_g, gamma_g))
            groups.append([int(i) + 1 for i in idx])
        case.expected["shapley"] = out
        case.expected["groups"] = groups
        case.expected["masks"] = _within_group_masks(groups)

    def check(self, case: Case, stdouts: list[str]) -> tuple[list[str], list]:
        failures = []
        doc = _read(case.reports[0])
        err = _max_err(doc["shapley"], case.expected["shapley"])
        if not err <= EXACT_TOL:
            failures.append(f"shapley differs from the oracle by {err:.3e}")
        _check_rows(doc, case.expected["masks"], failures)
        meta = doc["metadata"]
        if meta["eval_count"] != GROUPS_K << GROUPS_N:
            failures.append(f"eval_count {meta['eval_count']} is not k * 2**n")
        if meta["partition"] != case.expected["groups"]:
            failures.append(f"partition {meta['partition']} is wrong")
        return failures, []


def _within_group_masks(groups: list[list[int]]) -> np.ndarray:
    """Sorted masks of the empty set and every subset inside one group."""
    masks = {0}
    for group in groups:
        for local in range(1, 1 << len(group)):
            masks.add(sum(1 << (g - 1) for t, g in enumerate(group)
                          if local >> t & 1))
    return np.array(sorted(masks), dtype=np.int64)


class EstimatePerm(Workload):
    """``estimate --method random-perm`` on dense p = 16: the scalar
    conditional variance behind the per-call subset cache does the work;
    the report has no index rows, so the table builder and the row writer
    should leave it unchanged."""

    name = "estimate-perm"
    pool = 4
    tag = 3

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        cases = []
        seeds = _seeds(seed, self.tag, 2 * self.pool)
        for i in range(self.pool):
            beta, gamma = dense_instance(PERM_P, seeds[2 * i])
            model = workdir / f"perm{i}.json"
            _write_model(model, beta, gamma)
            out = workdir / f"perm{i}.report.json"
            argv = ["estimate", "--model", str(model), "--method",
                    "random-perm", "--m", str(PERM_M), "--reps",
                    str(PERM_REPS), "--seed", str(seeds[2 * i + 1] % 2**31),
                    "--out", str(out)]
            cases.append(Case([argv], [out], beta, gamma))
        return cases

    reference = staticmethod(_exact_shapley_and_spread)

    def check(self, case: Case, stdouts: list[str]) -> tuple[list[str], list]:
        failures = []
        lines = stdouts[0].splitlines()
        if len(lines) != 2 or lines[0] != "m,mean_cv_percent" \
                or not lines[1].startswith(f"{PERM_M},"):
            failures.append(f"unexpected stdout {stdouts[0]!r}")
        doc = _read(case.reports[0])
        mean = np.array(doc["shapley"], dtype=float)
        if abs(math.fsum(mean) - 1.0) > EXACT_TOL:
            failures.append(f"shapley sums to {math.fsum(mean)!r}")
        summary = doc["cv_summary"]
        if summary["reps"] != PERM_REPS or summary["m"] != PERM_M:
            failures.append("cv_summary has the wrong m or reps")
        if mean.shape != case.expected["shapley"].shape:
            return failures + [f"shapley has shape {mean.shape}"], []
        se = np.sqrt(case.expected["ordering_var"] / (PERM_M * PERM_REPS))
        err = np.abs(mean - case.expected["shapley"])
        bad = ~(err <= PERM_Z * se + EXACT_TOL)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            failures.append(f"component {i + 1} is {err[i]:.3e} from exact, "
                            f"more than {PERM_Z} standard errors")
        return failures, [mean]


class McBlocks(Workload):
    """``mc`` then ``mc --blocks`` on ``sum b_i * x_i`` over a 3x3
    block-diagonal Gaussian whose declared blocks are its independent
    groups, so the block preconditions hold and the exact answer is the
    linear Gaussian one. Conditional factorisation, sampling and model
    evaluation do the work."""

    name = "mc-blocks"
    pool = 16
    tag = 4

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        cases = []
        seeds = _seeds(seed, self.tag, 2 * self.pool)
        for i in range(self.pool):
            beta, gamma = block_instance(MC_K, MC_N, seeds[2 * i])
            expr, dist = workdir / f"mc{i}.expr.json", workdir / f"mc{i}.dist.json"
            consts = {f"b{j + 1}": float(b) for j, b in enumerate(beta)}
            terms = [f"b{j}*x{j}" for j in range(1, beta.size + 1)]
            blocks = [{"inputs": [f"x{j}" for j in range(g * MC_N + 1,
                                                         (g + 1) * MC_N + 1)],
                       "expr": " + ".join(terms[g * MC_N:(g + 1) * MC_N])}
                      for g in range(MC_K)]
            _write_json(expr, {"consts": consts, "f": " + ".join(terms),
                               "blocks": blocks})
            _write_json(dist, {"gamma": [[float(v) for v in row]
                                         for row in gamma]})
            base = ["mc", "--model", str(expr), "--dist", str(dist),
                    "--m", str(MC_M), "--n-outer", str(MC_N_OUTER),
                    "--seed", str(seeds[2 * i + 1] % 2**31)]
            outs = [workdir / f"mc{i}.report.json",
                    workdir / f"mc{i}.blocks.report.json"]
            cases.append(Case([base + ["--out", str(outs[0])],
                               base + ["--blocks", "--out", str(outs[1])]],
                              outs, beta, gamma))
        return cases

    reference = staticmethod(_exact_shapley)

    def check(self, case: Case, stdouts: list[str]) -> tuple[list[str], list]:
        failures, estimates = [], []
        for path in case.reports:
            est = np.array(_read(path)["shapley"], dtype=float)
            estimates.append(est)
            if abs(math.fsum(est) - 1.0) > EXACT_TOL:
                failures.append(f"{path.name}: shapley sums to "
                                f"{math.fsum(est)!r}")
            err = _max_err(est, case.expected["shapley"])
            if not err <= MC_GROSS_TOL:
                failures.append(f"{path.name}: error {err:.3f} exceeds "
                                f"{MC_GROSS_TOL}")
        return failures, estimates


WORKLOADS = {w.name: w for w in (ComputeDense(), ComputeGroups(),
                                 EstimatePerm(), McBlocks())}
