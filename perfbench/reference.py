"""Reference values computed without the package's lattice code.

The conditional variance of ``Y = beta . X`` given ``X_u`` is
``var_y - c_u' gamma_uu^{-1} c_u`` with ``c = gamma @ beta``. The table
is built here one subset cardinality at a time with a stacked
``numpy.linalg.solve``, and the Shapley weighting is written out from its
definition, so neither shares code with ``shapley_lg.conditional`` or
``shapley_lg.indices``.
"""

from __future__ import annotations

import math

import numpy as np


def popcount(masks: np.ndarray) -> np.ndarray:
    """Number of set bits of each mask."""
    out = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    while work.any():
        out += work & 1
        work >>= 1
    return out


def conditional_variances(beta, gamma) -> tuple[np.ndarray, float]:
    """Table ``V[mask]`` of conditional variances and the output variance."""
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    gamma = (gamma + gamma.T) / 2.0
    p = beta.size
    c = gamma @ beta
    var_y = float(beta @ c)
    masks = np.arange(1 << p, dtype=np.int64)
    card = popcount(masks)
    table = np.empty(1 << p)
    table[0] = var_y
    for k in range(1, p + 1):
        m_k = masks[card == k]
        bits = (m_k[:, None] >> np.arange(p)) & 1
        idx = np.nonzero(bits)[1].reshape(m_k.size, k)
        g_uu = gamma[idx[:, :, None], idx[:, None, :]]
        c_u = c[idx]
        sol = np.linalg.solve(g_uu, c_u[..., None])[..., 0]
        table[m_k] = var_y - np.einsum("ij,ij->i", c_u, sol)
    return table, var_y


def _gain_moment(table: np.ndarray, var_y: float, power: int) -> np.ndarray:
    """For each i, the weighted mean over subsets u without i of
    ``((V(u) - V(u + {i})) / var_y) ** power``, with weight
    ``1 / (p * C(p - 1, |u|))``: the chance that u precedes i in a uniform
    ordering of the p inputs."""
    p = int(table.size).bit_length() - 1
    masks = np.arange(table.size, dtype=np.int64)
    card = popcount(masks)
    weight = np.array([1.0 / (p * math.comb(p - 1, s)) for s in range(p)])
    out = np.empty(p)
    for i in range(p):
        without = masks[(masks >> i) & 1 == 0]
        gain = (table[without] - table[without | (1 << i)]) / var_y
        out[i] = np.sum(weight[card[without]] * gain ** power)
    return out


def shapley(table: np.ndarray, var_y: float) -> np.ndarray:
    """Shapley effects: the mean normalised gain of each input over a
    uniform ordering."""
    return _gain_moment(table, var_y, 1)


def ordering_variance(table: np.ndarray, var_y: float) -> np.ndarray:
    """Variance of each input's normalised gain over one uniform ordering,
    ``E[gain^2] - shapley^2``: ``m`` independent orderings estimate the
    Shapley effects with variance ``ordering_variance / m``."""
    return _gain_moment(table, var_y, 2) - shapley(table, var_y) ** 2
