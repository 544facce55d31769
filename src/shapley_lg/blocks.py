"""Independent groups of inputs and the grouped index computation.

When the covariance is block diagonal the output decomposes into a sum of
independent per-group terms, every Sobol index of a subset straddling two
groups vanishes, and each Shapley effect is the group's variance share
times the within-group Shapley effect. This turns one 2**p lattice into k
small lattices, one per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import subsets
from .errors import ModelValidationError, ValidationKind
from .conditional import conditional_variance_tables
# lg_indices is not called here; perfbench/tracing.py wraps it by this name.
from .indices import (NUM_TOL, SensitivityReport, indices_from_table,
                      lg_indices)
from .model import LinearGaussianModel, total_variance, validate_model

#: Tolerance on the sums to 1 of the weights and of each group's effects
#: that :func:`combine_block_shapley` combines.
COMBINE_SUM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Partition of the variables ``1..p`` into independent groups.

    ``groups`` holds disjoint sorted tuples of 1-based variable indices
    covering ``[1:p]``, ordered by smallest element. ``group_of[i-1]`` is
    the position in ``groups`` of the group containing variable ``i``.
    """

    groups: tuple[tuple[int, ...], ...]
    group_of: np.ndarray

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def p(self) -> int:
        return self.group_of.size

    def masks(self) -> list[int]:
        """Global bitmask of each group."""
        return [subsets.encode(g, self.p) for g in self.groups]

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[int]], p: int) -> "BlockPartition":
        """Build and check a partition from explicit groups."""
        ordered = tuple(
            sorted((tuple(int(i) for i in sorted(g)) for g in groups),
                   key=lambda g: g[0])
        )
        group_of = np.full(p, -1, dtype=np.int64)
        for j, g in enumerate(ordered):
            for i in g:
                if not 1 <= i <= p:
                    raise ValueError(f"variable {i} outside [1:{p}]")
                if group_of[i - 1] != -1:
                    raise ValueError(f"variable {i} assigned to two groups")
                group_of[i - 1] = j
        if (group_of == -1).any():
            missing = [i + 1 for i in np.flatnonzero(group_of == -1)]
            raise ValueError(f"variables {missing} not covered by any group")
        return cls(groups=ordered, group_of=group_of)


@dataclass(frozen=True, eq=False)
class GroupedReport:
    """Sensitivity indices assembled from independent per-group computations.

    ``scaled_sobol[j]`` is the group's Sobol array (indexed by the local
    subset mask within group ``j``) scaled by its variance share; Sobol
    indices of subsets straddling groups are zero and not materialised.
    """

    partition: BlockPartition
    group_weights: np.ndarray
    group_reports: list[SensitivityReport]
    shapley: np.ndarray
    scaled_sobol: list[np.ndarray]
    var_y: float
    eval_count: int

    @property
    def p(self) -> int:
        return self.shapley.size


def detect_blocks(gamma, eps_block: float = 0.0) -> BlockPartition:
    """Independent groups read off the sparsity pattern of a covariance.

    Two variables are linked when ``|gamma[a, b]| > eps_block`` for ``a != b``;
    the groups are the connected components of that graph, sorted by their
    smallest member. A negative or NaN ``eps_block`` is a ``ValueError``.
    """
    gamma = np.asarray(gamma, dtype=float)
    p = gamma.shape[0]
    if gamma.shape != (p, p):
        raise ValueError(f"gamma must be square, got shape {gamma.shape}")
    if not eps_block >= 0:
        raise ValueError(f"eps_block must be >= 0, got {eps_block}")
    adj = np.abs(gamma) > eps_block
    np.fill_diagonal(adj, False)
    # Breadth-first search from the smallest variable not yet grouped, so
    # groups come out ordered by their smallest member.
    groups = []
    free = np.ones(p, dtype=bool)
    for start in range(p):
        if not free[start]:
            continue
        members = np.zeros(p, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~members
            members |= frontier
        free &= ~members
        groups.append(np.flatnonzero(members) + 1)
    return BlockPartition.from_groups(groups, p)


def group_weight(model: LinearGaussianModel, group: Sequence[int]) -> float:
    """Variance share of one group: its own quadratic form over the total."""
    idx = np.asarray(group, dtype=np.int64) - 1
    beta_g = model.beta[idx]
    quad = float(beta_g @ model.gamma[np.ix_(idx, idx)] @ beta_g)
    return quad / total_variance(model)


def _group_submodel(model: LinearGaussianModel, group: Sequence[int]) -> LinearGaussianModel:
    idx = np.asarray(group, dtype=np.int64) - 1
    try:
        return validate_model(
            model.beta[idx], model.gamma[np.ix_(idx, idx)], model.mu[idx]
        )
    except ModelValidationError as err:
        if err.kind is ValidationKind.ZERO_OUTPUT_VARIANCE:
            raise ModelValidationError(
                ValidationKind.ZERO_OUTPUT_VARIANCE,
                f"group {tuple(group)} contributes no output variance",
            ) from err
        raise


def lg_groups_indices(model: LinearGaussianModel,
                      eps_block: float = 0.0) -> GroupedReport:
    """Exact indices through the per-group decomposition.

    Detects the independent groups, runs the full lattice computation inside
    each group only, and rescales by the group variance shares. The number
    of conditional-variance evaluations is the sum of the per-group lattice
    sizes rather than 2**p. Groups of one size build their tables together.
    """
    partition = detect_blocks(model.gamma, eps_block)
    var_y = total_variance(model)
    p = model.p
    subs = [_group_submodel(model, group) for group in partition.groups]
    tables = [None] * partition.k
    for n in {sub.p for sub in subs}:
        same = [j for j, sub in enumerate(subs) if sub.p == n]
        for j, table in zip(same, conditional_variance_tables(
                [subs[j] for j in same])):
            tables[j] = table

    shapley = np.empty(p)
    weights = np.empty(partition.k)
    reports: list[SensitivityReport] = []
    scaled: list[np.ndarray] = []
    eval_count = 0
    for j, group in enumerate(partition.groups):
        rep = indices_from_table(tables[j])
        w = rep.var_y / var_y
        weights[j] = w
        reports.append(rep)
        scaled.append(w * rep.sobol)
        idx = np.asarray(group, dtype=np.int64) - 1
        shapley[idx] = w * rep.shapley
        eval_count += rep.eval_count
    return GroupedReport(
        partition=partition,
        group_weights=weights,
        group_reports=reports,
        shapley=shapley,
        scaled_sobol=scaled,
        var_y=var_y,
        eval_count=eval_count,
    )


def verify_cross_block_zeros(report: SensitivityReport, partition: BlockPartition,
                             tol: float = NUM_TOL) -> list[tuple[int, float]]:
    """Subsets straddling groups whose Sobol index is not zero within ``tol``.

    Returns ``(mask, value)`` pairs; an empty list is the expected outcome
    when the report's model really respects the partition.
    """
    p = partition.p
    masks = np.arange(report.sobol.size)
    covered = np.zeros(masks.size, dtype=bool)
    for gmask in partition.masks():
        covered |= (masks & ~gmask) == 0
    bad = ~covered & (np.abs(report.sobol) > tol)
    return [(int(j), float(report.sobol[j])) for j in np.flatnonzero(bad)]


def combine_block_shapley(group_weights, group_shapleys: Sequence[np.ndarray],
                          partition: BlockPartition) -> np.ndarray:
    """Assemble global Shapley effects from per-group effects and weights.

    Each variable receives its group's weight times its within-group
    Shapley effect. Weights must sum to 1 and each group's effects must sum
    to 1, both within ``COMBINE_SUM_TOL``.
    """
    weights = np.asarray(group_weights, dtype=float)
    if weights.size != partition.k or len(group_shapleys) != partition.k:
        raise ValueError(
            f"expected {partition.k} weights and group vectors, got "
            f"{weights.size} and {len(group_shapleys)}"
        )
    if abs(weights.sum() - 1.0) > COMBINE_SUM_TOL:
        raise ValueError(f"group weights sum to {weights.sum()}, not 1")
    out = np.empty(partition.p)
    for j, group in enumerate(partition.groups):
        eta_g = np.asarray(group_shapleys[j], dtype=float)
        if eta_g.size != len(group):
            raise ValueError(
                f"group {j} has {len(group)} variables but a Shapley vector "
                f"of length {eta_g.size}"
            )
        if abs(eta_g.sum() - 1.0) > COMBINE_SUM_TOL:
            raise ValueError(f"group {j} Shapley effects sum to {eta_g.sum()}, not 1")
        out[np.asarray(group, dtype=np.int64) - 1] = weights[j] * eta_g
    return out
