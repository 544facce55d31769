"""Permutation-based Shapley computation with exact conditional variances.

The Shapley effect of a variable is the average, over uniformly random
orderings of all variables, of the variance explained when it joins its
predecessors. Enumerating every ordering gives an exact (and expensive)
value used here as an oracle for the Shapley weighting; sampling orderings
gives the Monte Carlo estimator whose accuracy the replicate harness
measures. Its conditional variances are exact, one sweep along each
ordering; the replicates read consecutive orderings of one stream. One
loop, :func:`_ordering_shapley`, chunks and sums the orderings of this
estimator, of the memoised enumeration and of ``montecarlo.mc_shapley``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import conditional
from .conditional import all_conditional_variances, conditional_variance
from .errors import DimensionCapError, allocation
from .model import LinearGaussianModel, total_variance

#: Full enumeration of p! orderings is refused above this dimension.
EXACT_ENUMERATION_CAP = 8

#: Components whose replicate mean is below this are excluded from CVs.
CV_MEAN_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class PermutationEstimate:
    """Shapley estimate from sampled orderings; it sums to 1 by telescoping."""

    shapley_hat: np.ndarray


@dataclass(frozen=True, eq=False)
class CvSummary:
    """Coefficients of variation (percent) across replicated estimates.

    ``per_i_cv`` is NaN for components whose mean is numerically zero;
    those are listed in ``excluded`` and skipped by ``mean_cv``.
    """

    per_i_cv: np.ndarray
    mean_cv: float
    m: int
    reps: int
    seed: int
    excluded: tuple[int, ...] = ()


def _chain_update(acc: np.ndarray, order, value) -> None:
    """Walk one ordering, adding each variable's explained-variance increment."""
    mask = 0
    prev = value(0)
    for idx in order:
        mask |= 1 << idx
        cur = value(mask)
        acc[idx] += prev - cur
        prev = cur


def exact_permutation_shapley(model: LinearGaussianModel, *,
                              memoize: bool = True) -> np.ndarray:
    """Shapley effects by full enumeration of the p! variable orderings.

    With ``memoize`` each conditional variance is computed once per subset,
    in the ``2**p`` table, and the p! orderings are one run of the sampled
    estimator's loop; without it every ordering recomputes its chain, the
    factorial-cost behaviour the benchmark command measures. Both modes
    return bit-identical vectors.

    Raises
    ------
    DimensionCapError
        When ``p`` exceeds the enumeration guard.
    """
    p = model.p
    if p > EXACT_ENUMERATION_CAP:
        raise DimensionCapError(
            f"exact enumeration of {p}! orderings refused; "
            f"the guard is p <= {EXACT_ENUMERATION_CAP}"
        )
    var_y = total_variance(model)
    if memoize:
        table = all_conditional_variances(model).values
        return _ordering_shapley(
            p, math.factorial(p), 1,
            lambda n: np.array(list(itertools.permutations(range(p)))), var_y,
            8 * p, lambda o: table[np.cumsum(1 << o[:, :-1], axis=1)])[0]
    acc = np.zeros(p)
    for order in itertools.permutations(range(p)):
        _chain_update(acc, order, lambda j: conditional_variance(model, j))
    return acc / (math.factorial(p) * var_y)


def _uniform(p: int, rng: np.random.Generator):
    """``draw(n)``: the next ``n`` uniform orderings of ``p`` from ``rng``."""
    return lambda n: rng.permuted(np.broadcast_to(range(p), (n, p)), axis=1)


def _ordering_shapley(p: int, m: int, reps: int, draw, var_y: float,
                      per_order: int, fill) -> np.ndarray:
    """``reps`` estimates: row ``r`` sums the gains of orderings ``r m .. (r
    + 1) m - 1`` of ``draw(n)`` like :func:`_chain_update`, over ``m var_y``.
    Chunks of whole runs, at most ``BATCH_BYTES`` of prefix variances ``v``,
    draw in turn, so their bounds move no draw, and take one ``bincount``
    each; ``fill(orders)`` gives ``v[:, 1:p]`` of at most ``BATCH_BYTES //
    per_order`` orderings a call."""
    step = max(1, conditional.BATCH_BYTES // (8 * m * (p + 1)))
    sub = max(1, conditional.BATCH_BYTES // per_order)
    with allocation():
        out = np.empty((reps, p))
        v = np.zeros((min(step, reps) * m, p + 1))
    v[:, 0] = var_y
    for lo in range(0, reps, step):
        n = min(step, reps - lo) * m
        orders, rows = draw(n), v[:n]
        for at in range(0, n if p > 1 else 0, sub):   # with p = 1, no step
            rows[at:at + sub, 1:p] = fill(orders[at:at + sub])
        keys = orders + np.arange(n)[:, None] // m * p
        out[lo:lo + step] = np.bincount(
            keys.ravel(), (rows[:, :-1] - rows[:, 1:]).ravel(),
            minlength=n // m * p).reshape(-1, p) / (m * var_y)
    return out


def random_permutation_shapley(model: LinearGaussianModel, m: int,
                               seed) -> PermutationEstimate:
    """Monte Carlo Shapley estimate from ``m`` uniform variable orderings.

    One ordering updates all p components through its telescoping chain, so
    the components always sum to 1. Conditional variances are exact closed
    forms, one sweep along each ordering. Deterministic per seed.
    """
    return PermutationEstimate(
        shapley_hat=replicate_estimates(model, m, 1, seed)[0])


def replicate_estimates(model: LinearGaussianModel, m: int, reps: int,
                        seed: int) -> np.ndarray:
    """Matrix of ``reps`` independent estimates, one row per replicate.

    Row ``r`` reads orderings ``r m .. (r + 1) m - 1`` of one stream, so
    row 0 equals :func:`random_permutation_shapley` with the same seed.
    """
    if m < 1 or reps < 1:
        raise ValueError("m and reps must be >= 1")
    p = model.p
    return _ordering_shapley(   # residual rows in a quarter of the cap
        p, m, reps, _uniform(p, np.random.default_rng(seed)),
        total_variance(model), 4 * 8 * p * (p + 1),
        lambda o: conditional._along(model, o[:, :-1]))


def cv_summary_from_replicates(samples: np.ndarray, m: int,
                               seed: int) -> CvSummary:
    """Per-component coefficients of variation (in percent) of replicates."""
    reps = samples.shape[0]
    if reps < 2:
        raise ValueError("need at least 2 replicates for a coefficient of variation")
    mean = samples.mean(axis=0)
    std = samples.std(axis=0, ddof=1)
    excluded = tuple(int(i) + 1 for i in np.flatnonzero(np.abs(mean) < CV_MEAN_FLOOR))
    per_i = np.full(mean.size, np.nan)
    ok = np.abs(mean) >= CV_MEAN_FLOOR
    per_i[ok] = 100.0 * std[ok] / np.abs(mean[ok])
    mean_cv = float(np.nanmean(per_i)) if ok.any() else float("nan")
    return CvSummary(per_i_cv=per_i, mean_cv=mean_cv, m=m, reps=reps,
                     seed=seed, excluded=excluded)


def cv_experiment(model: LinearGaussianModel, m: int, reps: int,
                  seed: int) -> CvSummary:
    """Replicate the random-ordering estimator and summarise its dispersion."""
    samples = replicate_estimates(model, m, reps, seed)
    return cv_summary_from_replicates(samples, m, seed)


def weight_collapse_sides(p: int, c: int, u: int) -> tuple[Fraction, Fraction]:
    """Both sides of the weight identity behind the per-group reduction.

    Averaging inverse binomial weights over the positions a group's
    complement can occupy collapses to the within-group inverse binomial
    weight. Returns (lhs, rhs) as exact rationals; they are equal for all
    ``1 <= c <= p`` and ``0 <= u <= c - 1``.
    """
    lhs = sum(
        Fraction(math.comb(p - c, j), math.comb(p - 1, u + j))
        for j in range(p - c + 1)
    ) / p
    rhs = Fraction(1, c * math.comb(c - 1, u))
    return lhs, rhs


def verify_weight_collapse(max_p: int = 20) -> list[tuple[int, int, int]]:
    """All (p, c, u) triples up to ``max_p`` violating the weight identity."""
    failures = []
    for p in range(1, max_p + 1):
        for c in range(1, p + 1):
            for u in range(c):
                lhs, rhs = weight_collapse_sides(p, c, u)
                if lhs != rhs:
                    failures.append((p, c, u))
    return failures
