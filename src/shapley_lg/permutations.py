"""Permutation-based Shapley computation with exact conditional variances.

The Shapley effect of a variable is the average, over uniformly random
orderings of all variables, of the variance explained when it joins its
predecessors. Enumerating every ordering gives an exact (and expensive)
value used here as an oracle for the Shapley weighting; sampling orderings
gives the Monte Carlo estimator whose accuracy the replicate harness
measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditional import (all_conditional_variances, conditional_variance,
                          prefix_variances)
from .errors import DimensionCapError
from .model import LinearGaussianModel, total_variance

#: Full enumeration of p! orderings is refused above this dimension.
EXACT_ENUMERATION_CAP = 8

#: Components whose replicate mean is below this are excluded from CVs.
CV_MEAN_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class PermutationEstimate:
    """Shapley estimate from ``m`` sampled orderings and its seed.

    ``shapley_hat`` sums to 1 by telescoping regardless of ``m``.
    """

    shapley_hat: np.ndarray
    m: int
    seed: int | np.random.SeedSequence


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


def ordering_gains(orders: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of each variable's gains ``v[r, k] - v[r, k + 1]`` when it joins
    ordering ``r`` at step ``k``, added in the order of :func:`_chain_update`.
    """
    acc = np.zeros(orders.shape[1])
    np.add.at(acc, orders, v[:, :-1] - v[:, 1:])
    return acc


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

    With ``memoize`` each conditional variance is computed once per subset;
    without it every ordering recomputes its chain from scratch, which is
    the factorial-cost behaviour the benchmark command measures. Both modes
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
        orders = np.array(list(itertools.permutations(range(p))))
        masks = np.pad(np.cumsum(1 << orders, axis=1), ((0, 0), (1, 0)))
        acc = ordering_gains(orders,
                             all_conditional_variances(model).values[masks])
    else:
        acc = np.zeros(p)
        for order in itertools.permutations(range(p)):
            _chain_update(acc, order, lambda j: conditional_variance(model, j))
    return acc / (math.factorial(p) * var_y)


def random_permutation_shapley(model: LinearGaussianModel, m: int,
                               seed) -> PermutationEstimate:
    """Monte Carlo Shapley estimate from ``m`` uniform variable orderings.

    One ordering updates all p components through its telescoping chain, so
    the components always sum to 1. Conditional variances are exact closed
    forms, cached per subset within the call. Deterministic per seed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = model.p
    rng = np.random.default_rng(seed)
    var_y = total_variance(model)
    orders = np.array([rng.permutation(p) for _ in range(m)])
    acc = ordering_gains(orders, prefix_variances(model, orders))
    return PermutationEstimate(shapley_hat=acc / (m * var_y), m=m, seed=seed)


def replicate_estimates(model: LinearGaussianModel, m: int, reps: int,
                        seed: int) -> np.ndarray:
    """Matrix of ``reps`` independent estimates, one row per replicate.

    Replicate ``r`` uses the r-th child of the seed sequence, so the result
    does not depend on how replicates would be scheduled.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    children = np.random.SeedSequence(seed).spawn(reps)
    return np.array(
        [random_permutation_shapley(model, m, s).shapley_hat for s in children]
    )


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
