"""Sobol indices, closed Sobol indices and Shapley effects from the table.

All three families are linear functionals of the conditional-variance table,
so once the table is available each extraction is a pass over the subset
lattice. The interaction (Sobol) indices use the Moebius transform over the
lattice, which costs p * 2**p instead of the 3**p of the literal superset
accumulation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import subsets
from .conditional import CondVarTable, all_conditional_variances
from .model import LinearGaussianModel

if TYPE_CHECKING:
    from .blocks import BlockPartition

#: Absolute tolerance on normalized index identities (sums to one, ranges).
NUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Exact variance-based sensitivity indices of one model.

    Rows are ascending subset masks, mask 0 first; ``sobol[i]`` and
    ``closed_sobol[i]`` belong to ``masks[i]``. The dense route has every
    mask, so there entry ``j`` is mask ``j``; the grouped route has the
    subsets inside one group, and every other subset has Sobol index 0.

    Attributes
    ----------
    var_y : float
        Output variance.
    masks : ndarray
        Subset bitmask of each row (int64, or object past 62 variables).
    sobol, closed_sobol : ndarray
        Interaction index (0 at mask 0, summing to 1) and explained-variance
        share of each row's subset.
    shapley : ndarray, shape (p,)
        Shapley effect of each variable; non-negative, sums to 1.
    eval_count : int
        Number of conditional-variance evaluations spent.
    partition : BlockPartition or None
        The grouped route's independent groups; None for the dense route.
    """

    var_y: float
    masks: np.ndarray
    sobol: np.ndarray
    closed_sobol: np.ndarray
    shapley: np.ndarray
    eval_count: int
    partition: BlockPartition | None

    @property
    def p(self) -> int:
        return self.shapley.size


#: Lattices of at most this many variables take a linear index family as
#: one product with its matrix, the family of the identity table.
SMALL_LATTICE = 6


def _linear(extract):
    """``extract``, linear in ``table.values / var_y``, as one product with
    its matrix on a lattice of at most ``SMALL_LATTICE`` variables, where
    per-call overhead, not the lattice, is the cost."""
    matrices: dict[int, np.ndarray] = {}

    @functools.wraps(extract)
    def apply(table: CondVarTable) -> np.ndarray:
        p = table.p
        if p > SMALL_LATTICE:
            return extract(table)
        if p not in matrices:
            matrices[p] = extract(CondVarTable(np.eye(1 << p), 1.0))
        return table.values @ matrices[p] / np.asarray(table.var_y)[..., None]
    return apply


@_linear
def sobol_from_table(table: CondVarTable) -> np.ndarray:
    """Interaction index of every subset, from the conditional-variance table.

    Entry ``j`` is ``-sum over v <= j of (-1)**|j - v| * table[v] / var_y``,
    the in-place Moebius transform, one subtraction per bit; the empty set
    is fixed to 0. A stacked table gives one row per model, here and below.
    """
    p = table.p
    out = -table.values
    for b in range(p):
        view = out.reshape(*out.shape[:-1], 1 << (p - b - 1), 2, 1 << b)
        view[..., 1, :] -= view[..., 0, :]
    out /= np.asarray(table.var_y)[..., None]
    out[..., 0] = 0.0
    return out


def closed_sobol_from_table(table: CondVarTable) -> np.ndarray:
    """Explained-variance share of every subset: (table[0] - table) / var_y."""
    values = table.values
    return (values[..., :1] - values) / np.asarray(table.var_y)[..., None]


@_linear
def shapley_from_table(table: CondVarTable) -> np.ndarray:
    """Shapley effect of every variable from the conditional-variance table.

    For variable ``i`` the pairs ``(u, u + {i})`` over all subsets ``u`` not
    containing ``i`` are weighted by the inverse binomial coefficient of
    ``|u|`` among ``p - 1`` and averaged. With ``w0[u] = table[u] / C(p -
    1, |u|)`` and ``w1[u] = table[u] / C(p - 1, |u| - 1)``, that is the sum
    of ``w0`` less the sum of ``w0 + w1`` over the subsets holding ``i``.
    """
    p = table.p
    values = table.values
    lead = values.shape[:-1]
    # 1 / C(p - 1, k) at k = |u| and at k = |u| - 1, and 0 outside 0..p-1.
    inv = [1.0 / math.comb(p - 1, k) for k in range(p)]
    w = values[..., None, :] * np.array([inv + [0.0], [0.0] + inv])[
        :, subsets.cardinality_table(p)]
    w0, both = w[..., 0, :], w[..., 0, :] + w[..., 1, :]
    held = np.empty(lead + (p,))
    for i in range(p):
        view = both.reshape(*lead, 1 << (p - i - 1), 2, 1 << i)
        held[..., i] = view[..., 1, :].sum(axis=(-2, -1))
    return (w0.sum(axis=-1)[..., None] - held) / (
        p * np.asarray(table.var_y)[..., None])


def lg_indices(model: LinearGaussianModel) -> SensitivityReport:
    """All exact sensitivity indices of a linear Gaussian model.

    Builds the 2**p conditional-variance table once and extracts the Sobol,
    closed Sobol and Shapley families from it.
    """
    table = all_conditional_variances(model)
    return SensitivityReport(
        var_y=table.var_y,
        sobol=sobol_from_table(table),
        closed_sobol=closed_sobol_from_table(table),
        shapley=shapley_from_table(table),
        masks=np.arange(table.values.size),  # after the extractions' peak
        eval_count=table.values.size,
        partition=None,
    )
