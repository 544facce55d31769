"""Closed-form conditional variances of a linear Gaussian model.

For a subset ``u`` of inputs the conditional variance of the output given
``X_u`` does not depend on the observed value of ``X_u``, so a single number
per subset is the whole story. Every exact route computes it one way:
``gamma`` is factored once as ``A A'`` by :func:`root` (``eigh``,
eigenvalues clipped at 0), and ``Var(Y | X_u)`` is the squared norm of the
part of ``a = A' beta`` orthogonal to the rows ``A[u]``. One modified
Gram-Schmidt :func:`_step` per member of ``u`` projects that member's
residual row out of ``a`` and out of the rows still to come; a residual at
or below ``PINV_RTOL`` times its row's own squared norm is dependent and
skipped. Every value is a sum of squares, so none is negative. Orderings
read :func:`_along`, one :func:`_sweep` along each, with every prefix bit
for bit a sweep of that prefix alone; the single subset is the ordering of
its members ascending, and the ``2**p`` tables take members in that order
too, bit for bit alike. The Schur complement is the oracle in the tests.

Every sweep state is ``(rows, columns, stack)``, contiguous with the stack
last: the models and subsets of a table's frontier ``(t, w, models,
states)``, or the orderings. Each step's two ``einsum`` calls then run
along the stack, adding each state's terms in order whatever the stack's
shape, as long as it is at least two wide; numpy reduces a stack one wide
along its rows instead, in another order. So a single ordering is doubled
once per call, and only a table step on one state doubles it in
:func:`_step`.

The Monte Carlo estimators sample from the same sweep, run along a whole
ordering on the rows of :func:`root` by :func:`ordered_factors`; their
sampling factor is the ordered factor along ``1..p``, the triangular root.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .model import LinearGaussianModel, total_variance
from . import subsets

#: Relative squared residual at or below which a sweep skips a row as
#: dependent, like a generalized inverse with this eigenvalue threshold.
PINV_RTOL = 1e-12

#: Upper bound, in bytes, on twice the sweep states of one chunk of a table
#: (whole-cap chunks made a p = 16 table about a third slower), and in
#: ``permutations._ordering_shapley`` on the prefix variances of one chunk
#: of orderings and on what each fill call holds; ``montecarlo.mc_shapley``
#: fills with one sweep of ordered factors, then slices of them each holding
#: at most this of normals, points and outer means. It is one core's L2 on
#: the 2-core Xeon it was measured on (2 MiB each, 4 MiB in all, 300 MiB of
#: shared L3): ``mc`` ran about an eighth faster than at 1 MiB, with every
#: result bit for bit the same.
BATCH_BYTES = 1 << 21


@dataclass(frozen=True, eq=False)
class CondVarTable:
    """Conditional variances of all subsets, indexed by their bitmask.

    ``values[..., j]`` is the conditional variance given mask ``j``: the
    model's own variance at 0, and 0 at the full set. The indices read it
    against ``var_y``, that variance or, for a group's table, the whole
    model's. Tables of several models stack along a leading axis.
    """

    values: np.ndarray
    var_y: float | np.ndarray

    @property
    def p(self) -> int:
        return self.values.shape[-1].bit_length() - 1


def root(gammas: np.ndarray) -> np.ndarray:
    """A root ``A`` with ``A A' = gamma`` of each of a stack of covariances:
    the eigenvectors scaled by the roots of the eigenvalues, clipped at 0."""
    w, q = np.linalg.eigh(gammas)
    return q * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def _roots(gammas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of :func:`root` ``A`` then ``a = A' beta`` of a stack of
    models as one sweep state ``(p + 1, p, models)``, and each variable's
    cut ``(p, models)``: ``PINV_RTOL`` times its row's squared norm."""
    a = root(gammas)
    rows = np.concatenate([a, betas[..., None, :] @ a], axis=-2)
    return (np.ascontiguousarray(rows.transpose(1, 2, 0)),
            PINV_RTOL * np.einsum("...ij,...ij->...i", a, a).T)


#: :func:`_roots` of each model seen, so that a walk of many scalar calls
#: factors its model once.
_ROOTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _root(model: LinearGaussianModel) -> tuple[np.ndarray, ...]:
    roots = _ROOTS.get(model)
    if roots is None:
        roots = _ROOTS[model] = _roots(model.gamma[None], model.beta[None])
    return roots


def _step(rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """One modified Gram-Schmidt step of every state of ``rows`` ``(t, w,
    ...)``, contiguous with the stack last: the first of each state's ``t``
    residual rows is projected out of the others (the rows to come, ``a``
    last), unless its squared norm is at most ``cut``. Both ``einsum`` calls
    run along the stack: the dot products add their ``w`` terms in order,
    one state at a time, so no bit depends on the stack's shape once it is
    two wide; a stack one wide, which numpy would reduce along ``w`` in
    another order, is doubled. The rank-one update is one product, with no
    reduction, subtracted in place: the values of the broadcast ``rows[1:]
    - dots[1:, None] / rr * r`` without its temporaries. Only a zero may
    differ, in sign, since ``einsum`` adds each product to 0; no later sum
    or square sees that."""
    if rows[0, 0].size == 1:
        return _step(np.concatenate([rows, rows], axis=-1), cut)[..., :1]
    r = rows[0]
    dots = np.einsum("ki...,i...->k...", rows, r)
    rr = dots[0]
    rr[rr <= cut] = np.inf
    out = np.einsum("k...,i...->ki...", dots[1:] / rr, r)
    return np.subtract(rows[1:], out, out=out)


def _sweep(state: np.ndarray, cut: np.ndarray):
    """Yield the states ``(t, w, n)``, ``n`` at least two, after each
    :func:`_step` with the cuts ``(k, n)`` in turn: after step ``i`` row 0
    is the residual of the next pivot and every row, ``a`` last if it is
    there, is bit for bit what a sweep of the first ``i + 1`` pivots alone
    gives. A caller with one ordering doubles it, once per call."""
    for c in cut:
        state = _step(state, c)
        yield state


def _stacked(rows: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The sweep state ``(k, w, n)`` of the rows ``(t, w)`` along each row
    of ``orders`` ``(n, k)``, contiguous with the orderings last."""
    return np.ascontiguousarray(rows[orders.T].transpose(0, 2, 1))


def ordered_factors(factor: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Factors ``F`` ``(m, p, p)`` of ``gamma = A A'``, one per zero-based
    row of ``orders`` ``(m, p)``: :func:`_sweep` runs on the rows of ``A``
    along it, with the exact routes' cut, and column ``j`` is ``A q_j`` for
    the ``j``-th pivot's residual ``q_j``, normalised, or zero when the
    pivot is dependent. Given the ordering's first ``k`` variables ``u``,
    ``F[:, :k] F[:, :k]'`` is ``gamma[:, u] gamma_uu^+ gamma[u, :]`` and
    ``F[:, k:] F[:, k:]'`` the Schur complement, zero (to round-off) on
    ``u``: ``mu + F w`` with normals ``w`` draws ``X``, and its first ``k``
    entries of ``w`` fix ``X_u``. Along ``1..p`` it is lower triangular
    (to round-off), with a non-negative diagonal and zero columns for the
    dependent variables, so it depends on ``gamma`` only, not on ``A``.
    """
    m = len(orders)
    if m == 1:
        orders = np.repeat(orders, 2, axis=0)
    cut = PINV_RTOL * np.einsum("ij,ij->i", factor, factor)
    rows = _stacked(factor, orders)
    pivots = np.empty((len(orders), *factor.shape))
    pivots[:, 0] = rows[0].T
    for i, state in enumerate(_sweep(rows, cut[orders[:, :-1].T]), 1):
        pivots[:, i] = state[0].T
    pivots = pivots[:m]
    rr = np.einsum("mji,mji->mj", pivots, pivots)
    pivots /= np.sqrt(np.where(rr > cut[orders[:m]], rr, np.inf))[..., None]
    return factor @ pivots.swapaxes(-1, -2)


def _along(model: LinearGaussianModel, orders: np.ndarray) -> np.ndarray:
    """Squared norm of ``a`` after each step along each zero-based row of
    ``orders`` ``(m, k)``: the conditional variance given each prefix. The
    residuals of ``a`` land in one buffer, normed by one ``einsum``."""
    m = len(orders)
    if m == 1:
        orders = np.repeat(orders, 2, axis=0)
    rows, cut = _root(model)
    at = np.column_stack([orders, np.full(len(orders), model.p)])  # ``a`` last
    seen = np.empty((orders.shape[1], model.p, len(orders)))
    for i, state in enumerate(_sweep(_stacked(rows[..., 0], at),
                                     cut[:, 0][orders.T])):
        seen[i] = state[-1]
    return np.einsum("kin,kin->kn", seen, seen)[:, :m].T


def conditional_variance(model: LinearGaussianModel, j: int) -> float:
    """Conditional variance of the output given the inputs in mask ``j``,
    swept over its members in ascending order like the table's entry ``j``.

    Parameters
    ----------
    model : LinearGaussianModel
    j : int
        Subset bitmask in ``[0, 2**p)``.
    """
    members = subsets.decode(j, model.p)
    if not members:
        return total_variance(model)
    if len(members) == model.p:
        return 0.0
    return float(_along(model, np.array([[i - 1 for i in members]]))[0, -1])


def _expand(rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Sweep the states ``rows`` ``(t, w, models, states)`` over the
    variables of the ``(s, models)`` cuts: each step keeps the states and
    appends their children holding the step's variable, so a frontier in
    mask order stays in mask order."""
    for c in cut[:, :, None]:
        rows = np.concatenate([rows[1:], _step(rows, c)], axis=-1)
    return rows


def _tables(rows: np.ndarray, cut: np.ndarray, var_y) -> np.ndarray:
    """Conditional variances ``(models, 2**p)`` of every subset mask from
    stacked :func:`_roots`: the first ``s`` steps on the whole frontier,
    then each chunk of that frontier over the other ``p - s`` variables,
    with ``s`` and the chunks sized to about half of ``BATCH_BYTES`` of
    states."""
    p, models = cut.shape
    subsets.check_lattice_cap(p)
    states = max(1, BATCH_BYTES // (2 * 8 * p * models))
    s = p
    while s and (p - s + 1) << s > states:
        s -= 1
    rows = _expand(rows[..., None], cut[:s])
    values = np.empty((models, 1 << (p - s), 1 << s))
    step = max(1, states >> (p - s))
    for lo in range(0, 1 << s, step):
        a = _expand(rows[..., lo:lo + step], cut[s:])[0]
        values[:, :, lo:lo + step] = np.einsum(
            "i...,i...->...", a, a).reshape(models, 1 << (p - s), -1)
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
