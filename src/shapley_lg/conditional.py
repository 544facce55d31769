"""Closed-form conditional variances of a linear Gaussian model.

For a subset ``u`` of inputs the conditional variance of the output given
``X_u`` does not depend on the observed value of ``X_u``, so a single number
per subset is the whole story. Every exact route uses one form of it, the
explained variance ``var_y - c_u' gamma_uu^{-1} c_u`` with ``c = gamma @
beta``, built by :func:`_variances` from stacked blocks ``gamma[u, u]``: the
``2**p`` table, the prefixes of variable orderings and the single subset,
with one clamp for their negative round-off. The Schur-complement form is
the oracle in the tests.

The Gaussian conditional laws that the Monte Carlo estimators sample from
come from :func:`conditional_parts`, which factors many conditioning sets
in one stacked call. Both go through one solver: a stacked Cholesky, with
the blocks that have none or fail ``COND_LIMIT`` sent to a stacked
``eigh`` generalized inverse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

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

#: Upper bound, in bytes, on the stacked ``gamma`` blocks gathered in one
#: batch of the table build or of :func:`conditional_parts`, and on the
#: model points of one chunk of ``montecarlo.mc_shapley``. At p = 25 the
#: 12-element subsets alone would need about 6 GB in a single batch; a
#: batch this small also keeps the stacked solves in cache.
BATCH_BYTES = 1 << 20


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


def _cholesky(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack, and which blocks have none (their
    factor is the identity).

    This is the stacked kernel behind ``np.linalg.cholesky`` with its error
    silenced: it factorizes every block on its own and fills a block it
    cannot factorize with NaN, so one failing block costs its neighbours
    nothing and the outcome never depends on the batch.
    """
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(blocks, signature="d->d")
    bad = np.isnan(chol[:, :1, :1]).any(axis=(1, 2))
    if bad.any():
        chol[bad] = np.eye(blocks.shape[-1])
    return chol, bad


def _factor(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stacked Cholesky factors, their diagonals, and which blocks go to
    the generalized inverse: those with no factor, and those failing the
    ``COND_LIMIT`` test. Each block's path depends on that block alone."""
    chol, bad = _cholesky(blocks)
    diag = chol.diagonal(0, 1, 2)
    # (max/min diag)**2 lower-bounds the condition number of each block.
    bad |= diag.max(axis=1) ** 2 > COND_LIMIT * diag.min(axis=1) ** 2
    return chol, diag, bad


def _forward(chol: np.ndarray, diag: np.ndarray,
             rhs: np.ndarray) -> np.ndarray:
    """``L^{-1} rhs`` per block for an ``(n, k)`` or ``(n, k, c)``
    right-hand side, one row at a time across the stack."""
    if rhs.ndim == 3:
        diag = diag[:, :, None]
    y = rhs / diag
    for i in range(1, rhs.shape[1]):
        y[:, i] = (rhs[:, i] - np.einsum("nj,nj...->n...", chol[:, i, :i],
                                         y[:, :i])) / diag[:, i]
    return y


def _pinv(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors ``q`` and inverted eigenvalues ``inv_w`` of each block,
    so that its generalized inverse is ``q diag(inv_w) q'``; eigenvalues at
    or below ``PINV_RTOL`` times the largest count as zero."""
    w, q = np.linalg.eigh(blocks)
    tau = PINV_RTOL * np.maximum(w[:, -1:], 0.0)
    inv_w = np.zeros_like(w)
    np.divide(1.0, w, out=inv_w, where=w > tau)
    return q, inv_w


def _explained(blocks: np.ndarray, c_u: np.ndarray) -> np.ndarray:
    """``c_u' block^{-1} c_u`` per block of a stack, through :func:`_factor`
    and, for its failing blocks, :func:`_pinv`."""
    chol, diag, bad = _factor(blocks)
    y = _forward(chol, diag, c_u)
    out = np.einsum("ni,ni->n", y, y)
    if bad.any():
        q, inv_w = _pinv(blocks[bad])
        proj = np.einsum("nji,nj->ni", q, c_u[bad])
        out[bad] = np.einsum("ni,ni->n", inv_w * proj, proj)
    return out


def psd_factor(mats: np.ndarray) -> np.ndarray:
    """Square roots ``F`` with ``F F' = mat`` of a stack of symmetric
    matrices: Cholesky, or for a block failing :func:`_factor`'s tests
    eigenvectors with the largest-magnitude entry positive, scaled by the
    roots of the clipped eigenvalues, so round-off picks neither path nor
    sign."""
    if mats.shape[-1] == 0:                 # conditioned on every variable
        return mats.copy()
    out, _, bad = _factor(mats)
    if bad.any():
        w, q = np.linalg.eigh(mats[bad])
        top = np.take_along_axis(q, np.abs(q).argmax(axis=1)[:, None], axis=1)
        q *= np.where(top < 0.0, -1.0, 1.0)
        out[bad] = q * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    return out


def conditional_parts(gamma: np.ndarray, rows: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian conditional laws of the variables outside each row of
    ``rows`` given those inside it.

    ``rows`` is an ``(n, k)`` array of zero-based members in ascending
    order. Returns the ``(n, p - k)`` remaining members ``r``, the mean
    coefficients ``gamma_uu^{-1} gamma_ur`` ``(n, k, p - k)``, so that the
    conditional mean is ``mu_r + (x_u - mu_u) @ coef``, and
    :func:`psd_factor` of the Schur complements ``gamma_rr - gamma_ru
    gamma_uu^{-1} gamma_ur`` ``(n, p - k, p - k)``. The solver is the one
    of the tables, block by block, in batches of at most ``BATCH_BYTES``.
    """
    p = len(gamma)
    n, k = rows.shape
    keep = np.ones((n, p), dtype=bool)
    keep[np.arange(n)[:, None], rows] = False
    rest = np.nonzero(keep)[1].reshape(n, p - k)
    coef = np.empty((n, k, p - k))
    factor = np.empty((n, p - k, p - k))
    step = max(1, BATCH_BYTES // (8 * p * p))
    for lo in range(0, n, step):
        u, r = rows[lo:lo + step], rest[lo:lo + step]
        g_rr = gamma[r[:, :, None], r[:, None, :]]
        if k and p - k:
            g_uu = gamma[u[:, :, None], u[:, None, :]]
            g_ur = gamma[u[:, :, None], r[:, None, :]]
            chol, diag, bad = _factor(g_uu)
            y = _forward(chol, diag, g_ur)
            # L' with rows and columns reversed is lower triangular.
            solved = _forward(chol.transpose(0, 2, 1)[:, ::-1, ::-1],
                              diag[:, ::-1], y[:, ::-1])[:, ::-1]
            schur = g_rr - np.einsum("nki,nkj->nij", y, y)
            if bad.any():
                q, inv_w = _pinv(g_uu[bad])
                b_ur = g_ur[bad]
                solved[bad] = q @ (inv_w[:, :, None]
                                   * (q.transpose(0, 2, 1) @ b_ur))
                schur[bad] = g_rr[bad] - b_ur.transpose(0, 2, 1) @ solved[bad]
            g_rr = (schur + schur.transpose(0, 2, 1)) / 2.0
            coef[lo:lo + step] = solved
        factor[lo:lo + step] = psd_factor(g_rr)
    return rest, coef, factor


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


def prefix_sets(orders: np.ndarray):
    """Distinct prefix sets of variable orderings, one prefix size at a time.

    ``orders`` is an ``(m, p)`` array of zero-based orderings. For ``k = 1,
    ..., p`` this yields ``(sets, where)``: the distinct sets among the
    prefixes ``orders[:, :k]`` as ascending member rows ``(n, k)``, and the
    row ``where[r]`` of ordering ``r``'s prefix. A membership matrix gains
    one column per step; its rows, packed into bytes, are the keys of one
    1-D ``np.unique``, for any ``p``.
    """
    m, p = orders.shape
    member = np.zeros((m, p), dtype=bool)
    for k in range(1, p + 1):
        member[np.arange(m), orders[:, k - 1]] = True
        packed = np.packbits(member, axis=1)
        keys = packed.view(f"V{packed.shape[1]}").reshape(-1)
        _, first, where = np.unique(keys, return_index=True,
                                    return_inverse=True)
        yield np.nonzero(member[first])[1].reshape(first.size, k), where


def prefix_variances(model: LinearGaussianModel,
                     orders: np.ndarray) -> np.ndarray:
    """Entry ``[r, k]`` is the conditional variance given ``orders[r, :k]``.

    ``orders`` is an ``(m, p)`` array of zero-based variable orderings and
    the result is ``(m, p + 1)``. Each distinct prefix set of
    :func:`prefix_sets` is computed once.
    """
    stack = _stack([model])
    var_y = total_variance(model)
    out = np.empty((len(orders), orders.shape[1] + 1))
    out[:, 0] = var_y
    for k, (sets, where) in enumerate(prefix_sets(orders), 1):
        out[:, k] = _variances(stack, sets)[0][where]
    return _clamp(out, var_y)


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
