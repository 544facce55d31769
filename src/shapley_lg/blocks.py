"""Independent groups of inputs: their detection and the grouped route.

When the covariance is block diagonal the output is a sum of independent
per-group terms, so every subset straddling two groups has Sobol index 0
and one 2**p lattice becomes k small ones. :func:`lg_groups_indices`
hands the groups :func:`detect_blocks` finds to the one exact route,
:func:`shapley_lg.indices.exact_report`, which reads a dense model as one
group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import subsets
# lg_indices and validate_model are not called here; perfbench/tracing.py
# wraps both by these names.
from .indices import NUM_TOL, SensitivityReport, exact_report, lg_indices
from .model import LinearGaussianModel, validate_model


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
            missing = (np.flatnonzero(group_of == -1) + 1).tolist()
            raise ValueError(f"variables {missing} not covered by any group")
        return cls(groups=ordered, group_of=group_of)


def detect_blocks(gamma, eps_block: float = 0.0) -> BlockPartition:
    """Independent groups read off the sparsity pattern of a covariance.

    Two variables are linked when ``|gamma[a, b]| > eps_block`` for ``a != b``;
    the groups are the connected components of that graph, sorted by their
    smallest member. Each variable takes the smallest label among itself and
    its links until no label changes, which leaves every component labelled
    by its smallest member; each pass reads the links only, not the whole
    matrix. A negative or NaN ``eps_block`` is a ``ValueError``.
    """
    gamma = np.asarray(gamma, dtype=float)
    p = gamma.shape[0]
    if gamma.shape != (p, p):
        raise ValueError(f"gamma must be square, got shape {gamma.shape}")
    if not eps_block >= 0:
        raise ValueError(f"eps_block must be >= 0, got {eps_block}")
    link = np.abs(gamma) > eps_block
    link.flat[::p + 1] = True
    a, b = link.nonzero()                       # row-major; no row is empty
    ids = np.arange(p)
    first = a.searchsorted(ids)                 # each row's first link
    label = b[first]
    while True:
        lower = np.minimum.reduceat(label[b], first)
        if (lower == label).all():
            break
        label = lower
    roots = (label == ids).nonzero()[0]               # smallest members
    group_of = roots.searchsorted(label)
    groups = [[] for _ in roots]
    for i, g in enumerate(group_of.tolist(), 1):
        groups[g].append(i)
    return BlockPartition(groups=tuple(map(tuple, groups)), group_of=group_of)


def lg_groups_indices(model: LinearGaussianModel,
                      eps_block: float = 0.0) -> SensitivityReport:
    """Exact indices of the groups :func:`detect_blocks` reads off
    ``model.gamma`` with ``eps_block``; ``eval_count`` is ``sum 2**n_g``."""
    return exact_report(model, detect_blocks(model.gamma, eps_block))


def verify_cross_block_zeros(report: SensitivityReport, partition: BlockPartition,
                             tol: float = NUM_TOL) -> list[tuple[int, float]]:
    """Subsets straddling groups whose Sobol index is not zero within ``tol``.

    Returns ``(mask, value)`` pairs; an empty list is the expected outcome
    when the report's model really respects the partition.
    """
    masks = report.masks
    covered = np.zeros(masks.size, dtype=bool)
    for gmask in partition.masks():
        covered |= (masks & ~gmask) == 0
    bad = ~covered & (np.abs(report.sobol) > tol)
    return [(int(masks[j]), float(report.sobol[j]))
            for j in np.flatnonzero(bad)]
