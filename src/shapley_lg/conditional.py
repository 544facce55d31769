"""Closed-form conditional variances of a linear Gaussian model.

For a subset ``u`` of inputs the conditional variance of the output given
``X_u`` does not depend on the observed value of ``X_u``, so a single number
per subset is the whole story. Every exact route uses one form of it, the
explained variance ``var_y - c_u' gamma_uu^{-1} c_u`` with ``c = gamma @
beta``, built by :func:`_variances` from stacked blocks ``gamma[u, u]``: the
``2**p`` table, the prefixes of variable orderings and the single subset,
with one clamp for their negative round-off. The Schur-complement form is
the oracle in the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .model import LinearGaussianModel, total_variance
from . import subsets

#: Relative eigenvalue threshold of the symmetric generalized inverse.
PINV_RTOL = 1e-12
#: Condition estimate above which the factorization path defers to the
#: generalized inverse.
COND_LIMIT = 1e12
#: A clamped negative result below ``-NEG_WARN_FACTOR * var_y`` triggers a
#: warning instead of being silently zeroed.
NEG_WARN_FACTOR = 1e-9

#: Upper bound, in bytes, on the stacked ``gamma[u, u]`` blocks gathered in
#: one batch of the table build. At p = 25 the 12-element subsets alone
#: would need about 6 GB in a single batch.
BATCH_BYTES = 1 << 25


@dataclass(frozen=True, eq=False)
class CondVarTable:
    """Conditional variances of all subsets, indexed by their bitmask.

    ``values[j]`` is the conditional variance given the subset encoded by
    mask ``j``; ``values[0] == var_y`` and the entry of the full set is 0.
    """

    values: np.ndarray
    var_y: float

    @property
    def p(self) -> int:
        return int(self.values.size).bit_length() - 1


def _pseudo_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` through the symmetric generalized inverse."""
    w, q = np.linalg.eigh(mat)
    tau = PINV_RTOL * max(float(w[-1]), 0.0)
    inv_w = np.zeros_like(w)
    np.divide(1.0, w, out=inv_w, where=w > tau)
    proj = q.T @ rhs
    if proj.ndim == 1:
        return q @ (inv_w * proj)
    return q @ (inv_w[:, None] * proj)


def _factor_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Cholesky solve, or None when the matrix is not safely positive definite."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    diag = np.diagonal(chol)
    # (max/min diag)**2 lower-bounds the condition number of ``mat``.
    if (diag.max() / diag.min()) ** 2 > COND_LIMIT:
        return None
    return scipy.linalg.cho_solve((chol, True), rhs, check_finite=False)


def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve, or the generalized inverse when that fails."""
    out = _factor_solve(mat, rhs)
    return _pseudo_solve(mat, rhs) if out is None else out


def _pseudo_explained(blocks: np.ndarray, c_u: np.ndarray) -> np.ndarray:
    """``c_u' pinv(block) c_u`` per block, through the stacked ``eigh``."""
    w, q = np.linalg.eigh(blocks)
    tau = PINV_RTOL * np.maximum(w[:, -1:], 0.0)
    inv_w = np.zeros_like(w)
    np.divide(1.0, w, out=inv_w, where=w > tau)
    proj = np.einsum("nji,nj->ni", q, c_u)
    return np.einsum("ni,ni->n", inv_w * proj, proj)


def _cholesky(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack, and which blocks have none (their
    factor is the identity). When the stacked call fails, each block is
    factorized on its own, so the outcome never depends on the batch."""
    try:
        return np.linalg.cholesky(blocks), np.zeros(len(blocks), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(blocks)
    bad = np.zeros(len(blocks), dtype=bool)
    for i, block in enumerate(blocks):
        try:
            chol[i] = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            chol[i], bad[i] = np.eye(len(block)), True
    return chol, bad


def _explained(blocks: np.ndarray, c_u: np.ndarray) -> np.ndarray:
    """``c_u' block^{-1} c_u`` per block of a stack.

    One stacked Cholesky serves the whole batch; blocks it cannot factorize
    or that fail the ``COND_LIMIT`` test go through the generalized
    inverse. Each block's path depends on that block alone.
    """
    chol, bad = _cholesky(blocks)
    diag = chol.diagonal(0, 1, 2)
    # (max/min diag)**2 lower-bounds the condition number of each block.
    bad |= diag.max(axis=1) ** 2 > COND_LIMIT * diag.min(axis=1) ** 2
    # Forward substitution with L, one column at a time across the stack.
    y = c_u / diag
    for i in range(1, c_u.shape[1]):
        y[:, i] = (c_u[:, i] - np.einsum("nj,nj->n", chol[:, i, :i],
                                         y[:, :i])) / diag[:, i]
    out = np.einsum("ni,ni->n", y, y)
    if bad.any():
        out[bad] = _pseudo_explained(blocks[bad], c_u[bad])
    return out


def _stack(models: Sequence[LinearGaussianModel]) -> tuple[np.ndarray, ...]:
    """Stacked ``gamma``, ``c = gamma @ beta`` and ``var_y`` of the models."""
    return (np.array([m.gamma for m in models]),
            np.array([m.gamma @ m.beta for m in models]),
            np.array([total_variance(m) for m in models]))


def _variances(stack: tuple[np.ndarray, ...], rows: np.ndarray) -> np.ndarray:
    """Unclamped conditional variances, ``(models, n)``, of the models of a
    :func:`_stack` given each row of ``rows``: ``n`` subsets of size ``k``,
    each as its zero-based members in ascending order. The blocks of all
    models share batches of at most ``BATCH_BYTES``; ``k = p`` gives 0.
    """
    gammas, c, var_y = stack
    models, p = c.shape
    n, k = rows.shape
    if k == 0:
        return np.repeat(var_y[:, None], n, axis=1)
    if k == p:
        return np.zeros((models, n))
    out = np.empty((models, n))
    step = max(1, BATCH_BYTES // (8 * k * k * models))
    for lo in range(0, n, step):
        idx = rows[lo:lo + step]
        blocks = gammas[:, idx[:, :, None], idx[:, None, :]]
        explained = _explained(blocks.reshape(-1, k, k),
                               c[:, idx].reshape(-1, k))
        out[:, lo:lo + step] = var_y[:, None] - explained.reshape(models, -1)
    return out


def _clamp(values: np.ndarray, var_y: float) -> np.ndarray:
    """Zero one model's negative round-off in place, warning once when it
    goes below ``-NEG_WARN_FACTOR * var_y``."""
    neg = values < 0.0
    if neg.any():
        lowest = float(values.min())
        if lowest < -NEG_WARN_FACTOR * var_y:
            warnings.warn(f"{int(neg.sum())} conditional variances clamped "
                          f"to 0, the lowest {lowest:.3e}; the covariance "
                          "appears badly conditioned", RuntimeWarning,
                          stacklevel=3)
        values[neg] = 0.0
    return values


def conditional_variance(model: LinearGaussianModel, j: int) -> float:
    """Conditional variance of the output given the inputs in mask ``j``.

    One row of :func:`_variances`, clamped like the tables.

    Parameters
    ----------
    model : LinearGaussianModel
    j : int
        Subset bitmask in ``[0, 2**p)``.
    """
    p = model.p
    if not 0 <= j < (1 << p):
        raise ValueError(f"mask {j} outside [0:2**{p}-1]")
    row = np.array([[i for i in range(p) if j >> i & 1]], dtype=np.intp)
    values = _variances(_stack([model]), row)[0]
    return float(_clamp(values, total_variance(model))[0])


def prefix_variances(model: LinearGaussianModel,
                     orders: np.ndarray) -> np.ndarray:
    """Entry ``[r, k]`` is the conditional variance given ``orders[r, :k]``.

    ``orders`` is an ``(m, p)`` array of zero-based variable orderings and
    the result is ``(m, p + 1)``. Each distinct prefix set is computed once.
    """
    m, p = orders.shape
    stack = _stack([model])
    out = np.empty((m, p + 1))
    for k in range(p + 1):
        sets, where = np.unique(np.sort(orders[:, :k], axis=1), axis=0,
                                return_inverse=True)
        out[:, k] = _variances(stack, sets)[0][where.reshape(-1)]
    return _clamp(out, total_variance(model))


def _members(masks: np.ndarray, p: int, k: int) -> np.ndarray:
    """Zero-based members of each mask, one ascending row of ``k`` per mask,
    decoded in chunks so that the bit matrix stays small."""
    rows = np.empty((masks.size, k), dtype=np.uint8)
    step = 1 << 16
    for lo in range(0, masks.size, step):
        bits = masks[lo:lo + step, None] >> np.arange(p) & 1
        rows[lo:lo + step] = np.nonzero(bits)[1].reshape(len(bits), k)
    return rows


def all_conditional_variances(model: LinearGaussianModel) -> CondVarTable:
    """Table of conditional variances for every subset mask of ``[1:p]``,
    built one subset cardinality at a time."""
    return conditional_variance_tables([model])[0]


def conditional_variance_tables(
        models: Sequence[LinearGaussianModel]) -> list[CondVarTable]:
    """:func:`all_conditional_variances` of several models of one dimension.

    The blocks of all models share each batch, so many small lattices (the
    groups of a block-diagonal model) cost a few stacked calls, not a few
    per model.
    """
    p = models[0].p
    subsets.check_lattice_cap(p)
    stack = _stack(models)
    values = np.empty((len(models), 1 << p))
    card = subsets.cardinality_table(p)
    for k in range(p + 1):
        masks = np.flatnonzero(card == k)
        values[:, masks] = _variances(stack, _members(masks, p, k))
    return [CondVarTable(values=_clamp(row, row[0]), var_y=float(row[0]))
            for row in values]
