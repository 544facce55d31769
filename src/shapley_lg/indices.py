"""Sobol indices, closed Sobol indices and Shapley effects from the table.

All three families are linear functionals of the conditional-variance table,
so once the table is available each extraction is a pass over the subset
lattice. The interaction (Sobol) indices use a subset-sum lattice transform,
which costs p * 2**p instead of the 3**p of the literal superset
accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subsets
from .conditional import CondVarTable, all_conditional_variances
from .model import LinearGaussianModel

#: Absolute tolerance on normalized index identities (sums to one, ranges).
NUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Exact variance-based sensitivity indices of one model.

    Attributes
    ----------
    var_y : float
        Output variance.
    sobol : ndarray, shape (2**p,)
        Interaction index of each subset, indexed by bitmask; entry 0 is 0
        and the entries sum to 1.
    closed_sobol : ndarray, shape (2**p,)
        Explained-variance share of each subset, indexed by bitmask.
    shapley : ndarray, shape (p,)
        Shapley effect of each variable; non-negative, sums to 1.
    eval_count : int
        Number of conditional-variance evaluations spent.
    """

    var_y: float
    sobol: np.ndarray
    closed_sobol: np.ndarray
    shapley: np.ndarray
    eval_count: int

    @property
    def p(self) -> int:
        return self.shapley.size


def _subset_sum_transform(values: np.ndarray, p: int) -> np.ndarray:
    """In-place-style zeta transform: out[u] = sum of values[v] over v <= u."""
    out = values.copy()
    for b in range(p):
        lo = 1 << b
        view = out.reshape(-1, 2, lo)
        view[:, 1, :] += view[:, 0, :]
    return out


def _sign_from_parity(card: np.ndarray) -> np.ndarray:
    return np.where(card % 2 == 0, 1.0, -1.0)


def sobol_from_table(table: CondVarTable) -> np.ndarray:
    """Interaction index of every subset, from the conditional-variance table.

    Entry ``j`` is the alternating subset sum of the table scaled by the
    output variance; the empty set is fixed to 0.
    """
    p = table.p
    card = subsets.cardinality_table(p)
    sign_v = -_sign_from_parity(card)          # (-1)^(|v|+1)
    acc = _subset_sum_transform(sign_v * table.values, p)
    out = _sign_from_parity(card) * acc / table.var_y
    out[0] = 0.0
    return out


def closed_sobol_from_table(table: CondVarTable) -> np.ndarray:
    """Explained-variance share of every subset: (var_y - table) / var_y."""
    return (table.var_y - table.values) / table.var_y


def shapley_from_table(table: CondVarTable) -> np.ndarray:
    """Shapley effect of every variable from the conditional-variance table.

    For variable ``i`` the pairs ``(u, u + {i})`` over all subsets ``u`` not
    containing ``i`` are weighted by the inverse binomial coefficient of
    ``|u|`` among ``p - 1`` and averaged.
    """
    p = table.p
    values = table.values
    card = subsets.cardinality_table(p)
    inv_binom = np.array([1.0 / math.comb(p - 1, s) for s in range(p)])
    eta = np.empty(p)
    for i in range(p):
        lo = 1 << i
        w = values.reshape(-1, 2, lo)
        c = card.reshape(-1, 2, lo)
        eta[i] = np.sum((w[:, 0, :] - w[:, 1, :]) * inv_binom[c[:, 0, :]])
    return eta / (p * table.var_y)


def lg_indices(model: LinearGaussianModel) -> SensitivityReport:
    """All exact sensitivity indices of a linear Gaussian model.

    Builds the 2**p conditional-variance table once and extracts the Sobol,
    closed Sobol and Shapley families from it.
    """
    return indices_from_table(all_conditional_variances(model))


def indices_from_table(table: CondVarTable) -> SensitivityReport:
    """The Sobol, closed Sobol and Shapley families of one table."""
    return SensitivityReport(
        var_y=table.var_y,
        sobol=sobol_from_table(table),
        closed_sobol=closed_sobol_from_table(table),
        shapley=shapley_from_table(table),
        eval_count=table.values.size,
    )
