import numpy as np
import pytest

from shapley_lg import (BlackBoxModel, conditional, generate_random_instance,
                        montecarlo, total_variance, validate_model)
from shapley_lg.conditional import CondVarTable


@pytest.fixture
def correlated_p2():
    """beta=(1,1), unit variances, correlation 0.5; hand-checked throughout."""
    return validate_model([1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]])


@pytest.fixture
def skewed_p2():
    """beta=(1,0), correlation 0.6; only the first input enters the output."""
    return validate_model([1.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])


def assert_close(actual, expected, tol=1e-12):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= tol, (actual, expected)


def prefix_variances(model, orders):
    """Entry ``[r, k]`` is the conditional variance given ``orders[r, :k]``.

    ``orders`` is an ``(m, p)`` array of zero-based variable orderings and
    the result is ``(m, p + 1)``: one sweep along each ordering, unchunked.
    """
    m, p = orders.shape
    out = np.zeros((m, p + 1))
    out[:, 0] = total_variance(model)
    out[:, 1:p] = conditional._along(      # given all p: 0
        *conditional._roots(model.gamma[None], model.beta[None]),
        orders[:, :-1])
    return out


def quadratic_black_box(b, q):
    """The black box ``y = b'x + x'Qx`` for a symmetric ``q``."""
    b, q = np.asarray(b, dtype=float), np.asarray(q, dtype=float)
    return BlackBoxModel(
        eval=lambda x: x @ b + np.einsum("ni,ij,nj->n", x, q, x), p=b.size)


def quadratic_table(b, q, gamma):
    """Closed-form table of :func:`quadratic_black_box` on ``X ~ N(0,
    gamma)``: the oracle of the nested Monte Carlo estimators.

    Given ``X_u``, ``X`` is Gaussian with the Schur complement ``S_u``
    (zero on ``u``) as covariance and a mean of covariance ``gamma - S_u``,
    so ``E[Var(Y | X_u)] = b'S_u b + 4 tr(Q S_u Q (gamma - S_u)) + 2 tr((Q
    S_u)^2)``; at the empty set that is ``var(y)``.
    """
    b, q, gamma = (np.asarray(a, dtype=float) for a in (b, q, gamma))
    p = b.size
    values = np.empty(1 << p)
    for mask in range(1 << p):
        u = [i for i in range(p) if mask >> i & 1]
        s = gamma - gamma[:, u] @ np.linalg.pinv(gamma[np.ix_(u, u)]) \
            @ gamma[u, :]
        s[u, :] = s[:, u] = 0.0
        qs = q @ s
        values[mask] = (b @ s @ b + 4 * np.trace(qs @ q @ (gamma - s))
                        + 2 * np.trace(qs @ qs))
    return CondVarTable(values=values, var_y=values[0])


def sample_conditional(inp, u, x_u, n, seed):
    """n draws of the variables outside ``u`` given ``X_u = x_u`` (1-based
    ``u``, ``x_u`` in ascending order of index): the oracle of the sweep.

    ``F`` is the ordered factor of ``u`` ascending, then the rest. The mean
    is ``mu + F[:, :k] w`` for the min-norm ``w`` with ``F[u, :k] w = x_u -
    mu_u``, its singular values cut at ``sqrt(PINV_RTOL)``, the sweep's cut
    on squares; the noise is ``F[:, k:]`` times fresh normals.
    """
    order = montecarlo._ordering(inp.p, sorted(u))
    k = len(u)
    u_idx = order[:k]
    x_u = np.asarray(x_u, dtype=float).reshape(-1)
    if x_u.size != k:
        raise ValueError(f"x_u has length {x_u.size}, expected {k}")
    f = conditional.ordered_factors(inp.factor, order[None])[0]
    w = np.linalg.lstsq(f[u_idx, :k], x_u - inp.mu[u_idx],
                        rcond=conditional.PINV_RTOL ** 0.5)[0]
    draws = (inp.mu + f[:, :k] @ w + np.random.default_rng(seed)
             .standard_normal((n, inp.p - k)) @ f[:, k:].T)
    return np.delete(draws, u_idx, axis=1)


def _duplicate_variable():
    # X4 copies X1: blocks holding both are singular.
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 5))
    a[:, 3] = a[:, 0]
    return validate_model(rng.standard_normal(5), a.T @ a)


def _tiny_independent_variable():
    # X3 is independent of the rest with variance 1e-13: the blocks holding
    # it are badly scaled, and the normwise round-off of an eigh factor
    # would swamp the zeros of its covariances.
    model = generate_random_instance(5, seed=8)
    gamma = model.gamma.copy()
    gamma[2, :] = gamma[:, 2] = 0.0
    gamma[2, 2] = 1e-13
    return validate_model(model.beta, gamma)
