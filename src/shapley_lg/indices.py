"""Sobol indices, closed Sobol indices and Shapley effects from the table.

All three families are linear functionals of the conditional-variance table.
The interaction (Sobol) indices are its Moebius transform over the subset
lattice, p * 2**p steps where the literal superset sum takes 3**p, and the
Shapley effects split each Sobol row equally among its members.
:func:`exact_report` is the one exact route: a table per independent group,
and a dense model is one group of all its variables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import subsets
# all_conditional_variances is not called here; perfbench/tracing.py wraps
# this name.
from .conditional import (CondVarTable, all_conditional_variances,
                          conditional_variance_tables)
from .model import LinearGaussianModel, total_variance

if TYPE_CHECKING:
    from .blocks import BlockPartition


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Exact variance-based sensitivity indices of one model.

    Rows are ascending subset masks, mask 0 first; ``sobol[i]`` and
    ``closed_sobol[i]`` belong to ``masks[i]``. The rows are the subsets
    inside one independent group, and every other subset has Sobol index 0;
    with one group of all ``p`` variables entry ``j`` is mask ``j``.

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
        The independent groups; None for one group of all ``p`` variables.
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
    """Shapley effect of every variable: each Sobol row split equally among
    its members, entry ``i`` the sum of ``sobol[u] / |u|`` over the subsets
    ``u`` holding ``i`` (Owen 2014), the upper halves of bit ``i``'s pairs."""
    shares = sobol_from_table(table) / np.maximum(
        subsets.cardinality_table(table.p), 1)
    return np.stack([shares.reshape(*shares.shape[:-1], -1, 2, 1 << i)[
        ..., 1, :].sum(axis=(-2, -1)) for i in range(table.p)], axis=-1)


def exact_report(model: LinearGaussianModel,
                 partition: BlockPartition | None) -> SensitivityReport:
    """Exact indices of a model whose variables form the independent groups
    of ``partition``, or one group of all ``p`` when it is None.

    A subset ``u`` inside group ``g`` has ``E[Var(Y | X_u)] = var_y - var_g
    + W_g(u)``, with ``W_g`` the table of the group's principal slice of the
    validated model, not checked again: its Sobol rows and Shapley effects
    read ``W_g`` against the model's ``var_y``, and its closed Sobol rows are
    ``(var_g - W_g(u)) / var_y``. Groups of one size share one stacked table.
    """
    groups = (partition.groups if partition is not None
              else (tuple(range(1, model.p + 1)),))
    var_y = total_variance(model)
    shapley = np.empty(model.p)
    one = 1 if model.p < 63 else np.array(1, dtype=object)
    stacks = []
    for n in sorted({len(g) for g in groups}):
        rows = np.array([g for g in groups if len(g) == n]) - 1
        table = conditional_variance_tables(
            model.gamma[rows[:, :, None], rows[:, None, :]], model.beta[rows])
        if table.var_y.min() <= 0.0:    # a group of no variance: all zero
            table.values[table.var_y <= 0.0] = 0.0
        glob = CondVarTable(table.values, var_y)
        shapley[rows] = shapley_from_table(glob)    # first: it sets the peak
        # Each group's masks, ascending as its members are: the sums of the
        # masks of its low h members and of its high n - h members.
        h, weights = (n + 1) // 2, one << rows
        bits = np.arange(1 << h) >> np.arange(h)[:, None] & 1
        low = weights[:, :h] @ bits
        high = weights[:, h:] @ bits[:n - h, :1 << n - h]
        masks = (high[:, :, None] + low[:, None, :]).reshape(len(rows), -1)
        stacks.append((masks, sobol_from_table(glob),
                       closed_sobol_from_table(glob)))
    masks, sobol, closed = (np.concatenate(column, axis=None) if column[1:]
                            else column[0].ravel() for column in zip(*stacks))
    if len(groups) > 1:     # each group's row 0 is mask 0; sorted, keep one
        order = np.argsort(masks)[len(groups) - 1:]
        masks, sobol, closed = masks[order], sobol[order], closed[order]
    return SensitivityReport(
        var_y=var_y, masks=masks, sobol=sobol, closed_sobol=closed,
        shapley=shapley, eval_count=sum(1 << len(g) for g in groups),
        partition=partition)


def lg_indices(model: LinearGaussianModel) -> SensitivityReport:
    """All exact sensitivity indices of a linear Gaussian model: the 2**p
    conditional-variance table of one group of all its variables."""
    return exact_report(model, None)
