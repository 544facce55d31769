"""Closed-form conditional variances of a linear Gaussian model.

For a subset ``u`` of inputs the conditional variance of the output given
``X_u`` is the quadratic form of the remaining coefficients over the Schur
complement of ``gamma[u, u]``. It does not depend on the observed value of
``X_u``, so a single number per subset is the whole story, and the full
table over all ``2**p`` subsets is the input to every index extraction.
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


def conditional_variance(model: LinearGaussianModel, j: int) -> float:
    """Conditional variance of the output given the inputs in mask ``j``.

    Singular ``gamma[u, u]`` blocks are handled through the symmetric
    generalized inverse; tiny negative round-off is clamped to zero.

    Parameters
    ----------
    model : LinearGaussianModel
    j : int
        Subset bitmask in ``[0, 2**p)``.
    """
    p = model.p
    if not 0 <= j < (1 << p):
        raise ValueError(f"mask {j} outside [0:2**{p}-1]")
    if j == 0:
        return total_variance(model)
    if j == subsets.full_mask(p):
        return 0.0

    sel = (j >> np.arange(p)) & 1
    u_idx = np.flatnonzero(sel)
    r_idx = np.flatnonzero(sel == 0)
    beta_r = model.beta[r_idx]
    gamma = model.gamma
    t = gamma[np.ix_(u_idx, r_idx)] @ beta_r
    q = float(beta_r @ gamma[np.ix_(r_idx, r_idx)] @ beta_r)
    q -= float(t @ _solve(gamma[np.ix_(u_idx, u_idx)], t))
    if q < 0.0:
        if q < -NEG_WARN_FACTOR * total_variance(model):
            warnings.warn(
                f"conditional variance {q:.3e} for mask {j} clamped to 0; "
                "the covariance appears badly conditioned",
                RuntimeWarning,
                stacklevel=2,
            )
        q = 0.0
    return q


def _subset_indices(masks: np.ndarray, p: int, k: int) -> np.ndarray:
    """Zero-based members of each mask, one row of ``k`` per mask, ascending."""
    bits = (masks[:, None] >> np.arange(p)) & 1
    return np.nonzero(bits)[1].reshape(masks.size, k)


def _pseudo_explained(blocks: np.ndarray, c_u: np.ndarray) -> np.ndarray:
    """``c_u' pinv(block) c_u`` per block, through the stacked ``eigh``."""
    w, q = np.linalg.eigh(blocks)
    tau = PINV_RTOL * np.maximum(w[:, -1:], 0.0)
    inv_w = np.zeros_like(w)
    np.divide(1.0, w, out=inv_w, where=w > tau)
    proj = np.einsum("nji,nj->ni", q, c_u)
    return np.einsum("ni,ni->n", inv_w * proj, proj)


def _explained(blocks: np.ndarray, c_u: np.ndarray) -> np.ndarray:
    """``c_u' block^{-1} c_u`` per block of a stack.

    One stacked Cholesky serves the whole batch; blocks failing the
    ``COND_LIMIT`` test, or the whole batch when the factorization fails,
    go through the generalized inverse as in :func:`conditional_variance`.
    """
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return _pseudo_explained(blocks, c_u)
    diag = chol.diagonal(0, 1, 2)
    # (max/min diag)**2 lower-bounds the condition number of each block.
    bad = diag.max(axis=1) ** 2 > COND_LIMIT * diag.min(axis=1) ** 2
    # Forward substitution with L, one column at a time across the stack.
    y = c_u / diag
    for i in range(1, c_u.shape[1]):
        y[:, i] = (c_u[:, i] - np.einsum("nj,nj->n", chol[:, i, :i],
                                         y[:, :i])) / diag[:, i]
    out = np.einsum("ni,ni->n", y, y)
    if bad.any():
        out[bad] = _pseudo_explained(blocks[bad], c_u[bad])
    return out


def all_conditional_variances(model: LinearGaussianModel) -> CondVarTable:
    """Table of conditional variances for every subset mask of ``[1:p]``.

    Uses the explained-variance form ``var_y - c_u' gamma_uu^{-1} c_u`` with
    ``c = gamma @ beta``, one subset cardinality at a time: the blocks
    ``gamma[u, u]`` of a cardinality are stacked, in batches of at most
    ``BATCH_BYTES``, and factorized together. Solver paths and clamping
    match :func:`conditional_variance`.
    """
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
    size = 1 << p
    var_y = np.array([total_variance(m) for m in models])
    gammas = np.stack([m.gamma for m in models])
    c = np.stack([m.gamma @ m.beta for m in models])
    values = np.empty((len(models), size))
    values[:, 0] = var_y
    values[:, size - 1] = 0.0
    card = subsets.cardinality_table(p)
    for k in range(1, p):
        masks = np.flatnonzero(card == k)
        step = max(1, BATCH_BYTES // (8 * k * k * len(models)))
        for lo in range(0, masks.size, step):
            batch = masks[lo:lo + step]
            idx = _subset_indices(batch, p, k)
            blocks = gammas[:, idx[:, :, None], idx[:, None, :]]
            explained = _explained(blocks.reshape(-1, k, k),
                                   c[:, idx].reshape(-1, k))
            values[:, batch] = var_y[:, None] - explained.reshape(len(models), -1)
    return [_clamped(row) for row in values]


def _clamped(values: np.ndarray) -> CondVarTable:
    """Zero the negative round-off of a table, warning when it is large."""
    var_y = values[0]
    inner = values[1:-1]
    neg = inner < 0.0
    if neg.any():
        worst = int(np.argmin(inner))
        if inner[worst] < -NEG_WARN_FACTOR * var_y:
            warnings.warn(
                f"{int(neg.sum())} conditional variances clamped to 0, the "
                f"lowest {inner[worst]:.3e} for mask {worst + 1}; the "
                "covariance appears badly conditioned",
                RuntimeWarning,
                stacklevel=2,
            )
        inner[neg] = 0.0
    return CondVarTable(values=values, var_y=float(var_y))
