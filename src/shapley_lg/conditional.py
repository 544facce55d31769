"""Closed-form conditional variances of a linear Gaussian model.

For a subset ``u`` of inputs the conditional variance of the output given
``X_u`` does not depend on the observed value of ``X_u``, so a single number
per subset is the whole story. Every exact route computes it one way:
``gamma`` is factored once as ``A A'`` (``eigh``, eigenvalues clipped at 0),
and ``Var(Y | X_u)`` is the squared norm of the part of ``a = A' beta``
orthogonal to the rows ``A[u]``. One modified Gram-Schmidt :func:`_step` per
member of ``u`` projects that member's residual row out of ``a`` and out of
the rows still to come; a residual at or below ``PINV_RTOL`` times its row's
own squared norm is dependent and skipped. Every value is a sum of squares,
so none is negative. The ``2**p`` tables and the single subset take the
members in ascending order, bit for bit alike; the prefixes of variable
orderings sweep along each ordering. The Schur complement is the oracle in
the tests.

The Gaussian conditional laws that the Monte Carlo estimators sample from
come from :func:`conditional_parts`: a stacked Cholesky, with the blocks
that have none or fail ``COND_LIMIT`` sent to a stacked ``eigh``
generalized inverse.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .model import LinearGaussianModel, total_variance
from . import subsets

#: Relative eigenvalue threshold of the symmetric generalized inverse, and
#: the relative squared residual below which a sweep skips a row.
PINV_RTOL = 1e-12
#: Condition estimate above which the factorization path defers to the
#: generalized inverse.
COND_LIMIT = 1e12

#: Upper bound, in bytes, on the sweep states of one chunk of a table or of
#: :func:`prefix_variances`, on the stacked ``gamma`` blocks of one batch of
#: :func:`conditional_parts`, and on the model points of one chunk of
#: ``montecarlo.mc_shapley``. A chunk this small stays in cache.
BATCH_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class CondVarTable:
    """Conditional variances of all subsets, indexed by their bitmask.

    ``values[..., j]`` is the conditional variance given the subset encoded
    by mask ``j``; ``values[..., 0] == var_y`` and the entry of the full set
    is 0. Tables of several models stack along a leading axis.
    """

    values: np.ndarray
    var_y: float | np.ndarray

    @property
    def p(self) -> int:
        return self.values.shape[-1].bit_length() - 1


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
    gamma_uu^{-1} gamma_ur`` ``(n, p - k, p - k)``. Each block takes the
    Cholesky of :func:`_factor` or the generalized inverse of :func:`_pinv`
    by itself, in batches of at most ``BATCH_BYTES``.
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


def _roots(gammas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``(..., p + 1, p)`` rows of ``A`` then ``a = A' beta`` of a stack
    of models, and each variable's cut: ``PINV_RTOL`` times its row's
    squared norm."""
    w, q = np.linalg.eigh(gammas)
    a = q * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    return (np.concatenate([a, betas[..., None, :] @ a], axis=-2),
            PINV_RTOL * np.einsum("...ij,...ij->...i", a, a))


#: :func:`_roots` of each model seen, so that a walk of many scalar calls
#: factors its model once.
_ROOTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _root(model: LinearGaussianModel) -> tuple[np.ndarray, ...]:
    root = _ROOTS.get(model)
    if root is None:
        root = _ROOTS[model] = _roots(model.gamma[None], model.beta[None])
    return root


def _step(rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """One modified Gram-Schmidt step of every state ``(models, n)``: the
    first of its ``t`` residual rows is projected out of the others (the
    rows to come, ``a`` last), unless its squared norm is at most ``cut``.
    The reduction is ``einsum``, so no bit depends on the stack's shape."""
    r = rows[:, :, :1]
    dots = np.einsum("mnki,mnji->mnkj", rows, r)
    rr = dots[:, :, :1]
    rr[rr <= cut] = np.inf
    return rows[:, :, 1:] - dots[:, :, 1:] / rr * r


def _along(model: LinearGaussianModel, order: np.ndarray) -> np.ndarray:
    """Squared norm of ``a`` after each step of a sweep along each row of
    ``order``: ``k`` zero-based variables, then ``p``, the row of ``a``."""
    rows, cut = _root(model)
    m, k = order.shape[0], order.shape[1] - 1
    state = rows[:, order]
    cut = cut[:, order[:, :-1], None, None]
    seen = np.empty((m, k, rows.shape[-1]))
    for i in range(k):
        state = _step(state, cut[:, :, i])
        seen[:, i] = state[0, :, -1]
    return np.einsum("...i,...i->...", seen, seen)


def conditional_variance(model: LinearGaussianModel, j: int) -> float:
    """Conditional variance of the output given the inputs in mask ``j``,
    swept over its members in ascending order like the table's entry ``j``.

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
    if j == (1 << p) - 1:
        return 0.0
    order = np.array([[i for i in range(p) if j >> i & 1] + [p]])
    return float(_along(model, order)[0, -1])


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
    the result is ``(m, p + 1)``: one sweep along each ordering, in chunks
    whose residual rows take a quarter of ``BATCH_BYTES``, leaving the rest
    to the temporaries of a step.
    """
    m, p = orders.shape
    out = np.zeros((m, p + 1))
    out[:, 0] = total_variance(model)
    step = max(1, BATCH_BYTES // (4 * 8 * p * (p + 1)))
    order = orders.copy()
    order[:, -1] = p            # sweep p - 1 steps; given all p it is 0
    for lo in range(0, m, step):
        out[lo:lo + step, 1:p] = _along(model, order[lo:lo + step])
    return out


def _expand(rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Sweep the states ``rows`` over the variables of the ``(models, s)``
    cuts: each step keeps the states and appends their children holding the
    step's variable, so a frontier in mask order stays in mask order."""
    cut = cut[:, :, None, None, None]
    for i in range(cut.shape[1]):
        rows = np.concatenate([rows[:, :, 1:], _step(rows, cut[:, i])], axis=1)
    return rows


def _tables(rows: np.ndarray, cut: np.ndarray, var_y) -> np.ndarray:
    """Conditional variances ``(models, 2**p)`` of every subset mask from
    stacked :func:`_roots`: the first ``s`` steps on the whole frontier,
    then each chunk of that frontier over the other ``p - s`` variables,
    with ``s`` and the chunks sized to about ``BATCH_BYTES`` of states."""
    models, p = cut.shape
    subsets.check_lattice_cap(p)
    states = max(1, BATCH_BYTES // (8 * p * models))
    s = p
    while s and (p - s + 1) << s > states:
        s -= 1
    rows = _expand(rows[:, None], cut[:, :s])
    if s == p:                  # the lattice in one chunk: ``a`` is left
        values = np.einsum("mni,mni->mn", rows[:, :, 0], rows[:, :, 0])
    else:
        values = np.empty((models, 1 << (p - s), 1 << s))
        step = max(1, states >> (p - s))
        for lo in range(0, 1 << s, step):
            a = _expand(rows[:, lo:lo + step], cut[:, s:])[:, :, 0]
            values[:, :, lo:lo + step] = np.einsum(
                "mni,mni->mn", a, a).reshape(models, 1 << (p - s), -1)
        values = values.reshape(models, 1 << p)
    values[:, 0] = var_y
    values[:, -1] = 0.0
    return values


def all_conditional_variances(model: LinearGaussianModel) -> CondVarTable:
    """Table of conditional variances for every subset mask of ``[1:p]``."""
    var_y = total_variance(model)
    return CondVarTable(values=_tables(*_root(model), var_y)[0], var_y=var_y)


def conditional_variance_tables(gammas: np.ndarray,
                                betas: np.ndarray) -> CondVarTable:
    """:func:`all_conditional_variances` of ``(models, p, p)`` covariances
    and ``(models, p)`` coefficients, as one stacked table. The models share
    each step, so many small lattices cost a few calls, not a few each."""
    var_y = (betas[:, None, :] @ gammas @ betas[:, :, None])[:, 0, 0]
    return CondVarTable(values=_tables(*_roots(gammas, betas), var_y),
                        var_y=var_y)
