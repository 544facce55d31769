import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapley_lg import (GaussianInput, LinearGaussianModel,
                        all_conditional_variances, conditional_variance,
                        generate_random_instance, lg_indices, total_variance,
                        validate_model)
from shapley_lg import conditional, subsets
from conftest import (_duplicate_variable, _tiny_independent_variable,
                      assert_close, prefix_variances, sample_conditional)


def pinv(mat):
    """The symmetric generalized inverse, with the package's threshold."""
    return np.linalg.pinv(mat, rtol=conditional.PINV_RTOL, hermitian=True)


def schur_variance(model, j):
    """Schur-complement form of the conditional variance given mask ``j``,
    ``beta_r' (gamma_rr - gamma_ru gamma_uu^+ gamma_ur) beta_r``: the
    oracle for the Gram-Schmidt sweep."""
    p = model.p
    if j == 0:
        return total_variance(model)
    if j == (1 << p) - 1:
        return 0.0
    u = [i for i in range(p) if j >> i & 1]
    r = [i for i in range(p) if not j >> i & 1]
    beta_r = model.beta[r]
    gamma = model.gamma
    t = gamma[np.ix_(u, r)] @ beta_r
    q = float(beta_r @ gamma[np.ix_(r, r)] @ beta_r)
    q -= float(t @ pinv(gamma[np.ix_(u, u)]) @ t)
    return max(q, 0.0)


def _solve(a, b):
    """``a^-1 b`` by Gauss-Jordan elimination, exact on fractions."""
    n = len(b)
    rows = [row + [v] for row, v in zip(a, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def rational_shapley(model):
    """Shapley effects of ``model`` in exact rational arithmetic on its
    float ``beta`` and ``gamma``: the conditional variance given ``u`` is
    the Schur-complement form ``var(y) - t_u' gamma_uu^-1 t_u`` with ``t =
    gamma beta``, and each effect the weighted sum of its ``2**(p - 1)``
    increments."""
    p = model.p
    beta = [Fraction(v) for v in model.beta.tolist()]
    gamma = [[Fraction(v) for v in row] for row in model.gamma.tolist()]
    t = [sum(g * b for g, b in zip(row, beta)) for row in gamma]
    var_y = sum(b * v for b, v in zip(beta, t))
    table = [var_y]
    for mask in range(1, (1 << p) - 1):
        u = subsets.decode(mask, p)
        x = _solve([[gamma[i - 1][j - 1] for j in u] for i in u],
                   [t[i - 1] for i in u])
        table.append(var_y - sum(t[i - 1] * v for i, v in zip(u, x)))
    table.append(Fraction(0))
    size = [m.bit_count() for m in range(1 << p)]
    return [sum((table[m] - table[m | 1 << i]) / math.comb(p - 1, size[m])
                for m in range(1 << p) if not m >> i & 1) / (p * var_y)
            for i in range(p)]


@pytest.mark.parametrize("seed", range(6))
def test_dense_route_matches_rational_oracle_near_singular(seed):
    # A rank-4 integer part plus eps I: positive definite, so every solve
    # is exact in fractions, yet singular to working precision at 1e-14.
    rng = np.random.default_rng(seed)
    low = rng.integers(-3, 4, size=(5, 4))
    assert np.linalg.matrix_rank(low) == 4
    beta = rng.integers(-3, 4, size=5)
    for eps in (1e-2, 1e-5, 1e-8, 1e-11, 1e-14):
        model = validate_model(beta, low @ low.T + eps * np.eye(5))
        exact = [float(v) for v in rational_shapley(model)]
        assert_close(lg_indices(model).shapley, exact, tol=1e-12)


def test_empty_and_full_subsets(correlated_p2):
    assert conditional_variance(correlated_p2, 0) == total_variance(correlated_p2)
    assert conditional_variance(correlated_p2, 3) == 0.0


def test_single_conditioner_schur_value():
    # Y = X1, corr 0.6: conditioning on X2 leaves 1 - 0.6**2.
    model = validate_model([1.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
    value = conditional_variance(model, subsets.encode([2], 2))
    assert value == pytest.approx(0.64, abs=1e-14)


def test_table_p1():
    model = validate_model([2.0], [[3.0]])
    table = all_conditional_variances(model)
    assert_close(table.values, [12.0, 0.0])
    assert table.var_y == 12.0


def test_table_p2_correlated(correlated_p2):
    table = all_conditional_variances(correlated_p2)
    assert_close(table.values, [3.0, 0.75, 0.75, 0.0], tol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_entry_zero_is_total_variance(seed):
    model = generate_random_instance(5, seed)
    table = all_conditional_variances(model)
    assert table.values[0] == total_variance(model)
    assert table.values[-1] == 0.0


@given(st.integers(1, 6), st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_monotone_under_inclusion(p, seed):
    model = generate_random_instance(p, seed)
    table = all_conditional_variances(model)
    for j in range(1 << p):
        for i in range(p):
            if not j >> i & 1:
                assert table.values[j | 1 << i] <= table.values[j] + 1e-10


@given(st.integers(1, 6), st.integers(0, 5000),
       st.floats(0.1, 10.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
# The explained-variance form var_y - c' gamma_uu^{-1} c cancelled on these
# two, to relative errors of 1.02e-10 and 1.05e-5.
@example(p=6, seed=2, c=5.0)
@example(p=2, seed=1708, c=0.37)
def test_scale_equivariance(p, seed, c):
    model = generate_random_instance(p, seed)
    scaled = validate_model(c * model.beta, model.gamma)
    for j in (0, 1, (1 << p) - 2):
        assert conditional_variance(scaled, j) == pytest.approx(
            c * c * conditional_variance(model, j), rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_factor_and_pseudo_paths_agree(seed):
    # One factor for positive-definite and singular gamma alike: the
    # sampling factor is the exact routes' root ordered along 1..p, the
    # lower-triangular root with a non-negative diagonal, which is the
    # Cholesky factor when gamma is positive definite and has a zero
    # column for a duplicated variable. It hangs on gamma alone, so a
    # rotated root A R gives it too, and the ordered factors of both roots
    # give the sweep the same conditional laws on every subset u (then the
    # rest ascending): the Schur complement F[:, k:] F[:, k:]' and the
    # covariance F[:, :k] F[:, :k]' of the conditional mean.
    rng = np.random.default_rng(seed)
    dense = generate_random_instance(6, seed).gamma
    for gamma in (dense, _duplicate_variable().gamma):
        p, scale = len(gamma), np.abs(gamma).max()
        tol = 1e-12 * scale
        f = GaussianInput(mu=np.zeros(p), gamma=gamma).factor
        assert np.abs(f @ f.T - gamma).max() <= tol
        assert np.abs(np.triu(f, 1)).max() <= tol
        assert np.all(f.diagonal() >= 0.0)
        rotated = (conditional.root(gamma)
                   @ np.linalg.qr(rng.standard_normal((p, p)))[0])
        assert_close(conditional.ordered_factors(rotated, np.arange(p)[None])
                     [0], f, tol=tol)
        sets = [np.flatnonzero(j >> np.arange(p) & 1) for j in range(1 << p)]
        orders = np.array([np.concatenate([u, np.setdiff1d(np.arange(p), u)])
                           for u in sets])
        laws = []
        for a in (f, rotated):
            laws.append([(g[:, u.size:] @ g[:, u.size:].T,
                          g[:, :u.size] @ g[:, :u.size].T)
                         for g, u in zip(conditional.ordered_factors(a, orders),
                                         sets)])
        for one, other in zip(*laws):
            np.testing.assert_allclose(one, other, rtol=0, atol=1e-10 * scale)
    assert np.all(f[:, 3] == 0.0)       # X4 copies X1
    assert_close(GaussianInput(mu=np.zeros(6), gamma=dense).factor,
                 np.linalg.cholesky(dense), tol=1e-12 * np.abs(dense).max())


def test_singular_conditioning_block_uses_generalized_inverse():
    # X3 is a copy of X1; conditioning on (X1, X3) is conditioning on X1.
    gamma = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    model = validate_model([1.0, 1.0, 0.0], gamma)
    both = conditional_variance(model, subsets.encode([1, 3], 3))
    one = conditional_variance(model, subsets.encode([1], 3))
    assert both == pytest.approx(1.0, abs=1e-12)
    assert one == pytest.approx(1.0, abs=1e-12)


def test_indefinite_covariance_scalar_is_zero_without_warning():
    # Covariance built by hand to be indefinite; bypasses validation on
    # purpose. The factor clips its negative eigenvalue, and a sum of
    # squares needs no clamp.
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])
    model = LinearGaussianModel(beta=np.array([1.0, 0.0]), gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = conditional_variance(model, subsets.encode([2], 2))
    assert value == 0.0


def test_monte_carlo_cross_check():
    model = generate_random_instance(4, seed=11)
    inp = GaussianInput(mu=np.zeros(4), gamma=model.gamma)
    n = 200_000
    for mask in (1, 6, 9):
        u = subsets.decode(mask, 4)
        draws = sample_conditional(inp, u, np.zeros(len(u)), n, seed=mask)
        rest = [i - 1 for i in range(1, 5) if i not in u]
        y = draws @ model.beta[rest]
        sample_var = float(np.var(y, ddof=1))
        exact = conditional_variance(model, mask)
        se = exact * np.sqrt(2.0 / (n - 1))
        assert abs(sample_var - exact) <= 3 * se


def assert_matches_schur(model, table):
    # Every entry lies in [0, var_y]; 1e-12 relative to that scale.
    var_y = total_variance(model)
    oracle = [schur_variance(model, j) for j in range(1 << model.p)]
    assert np.max(np.abs(table.values - oracle)) <= 1e-12 * var_y


@pytest.mark.parametrize("p", range(2, 11))
def test_table_matches_scalar_oracle(p):
    for seed in range(3):
        model = generate_random_instance(p, seed=100 * p + seed)
        table = all_conditional_variances(model)
        assert_matches_schur(model, table)
        assert table.values[0] == total_variance(model)
        assert table.values[-1] == 0.0


@pytest.mark.parametrize("make", [lambda: generate_random_instance(6, 31),
                                  _duplicate_variable,
                                  _tiny_independent_variable],
                         ids=["dense", "duplicate", "tiny"])
def test_scalar_is_one_row_of_the_table(make):
    model = make()
    table = all_conditional_variances(model).values
    scalar = [conditional_variance(model, j) for j in range(1 << model.p)]
    assert np.array_equal(table, scalar)


PREFIX_MODELS = {f"p{p}": lambda p=p: generate_random_instance(p, 300 + p)
                 for p in range(2, 11)}
PREFIX_MODELS.update(duplicate=_duplicate_variable,
                     tiny=_tiny_independent_variable)


@pytest.mark.parametrize("name", PREFIX_MODELS)
def test_prefix_variances_match_schur_oracle(name):
    model = PREFIX_MODELS[name]()
    p, var_y = model.p, total_variance(model)
    rng = np.random.default_rng(7)
    orders = np.array([rng.permutation(p) for _ in range(40)])
    v = prefix_variances(model, orders)
    oracle = [[schur_variance(model, sum(1 << int(i) for i in order[:k]))
               for k in range(p + 1)] for order in orders]
    assert v.shape == (40, p + 1)
    assert np.max(np.abs(v - oracle)) <= 1e-12 * var_y
    assert np.all(v[:, 0] == var_y) and np.all(v[:, p] == 0.0)


@pytest.mark.parametrize("make", [_duplicate_variable,
                                  _tiny_independent_variable])
def test_ill_conditioned_blocks_take_pseudo_inverse(make):
    # The sweep skips the dependent rows that the generalized inverse cuts;
    # on the duplicate, projecting out the round-off residual of X4 after
    # X1 would remove a random share of the variance.
    model = make()
    assert_matches_schur(model, all_conditional_variances(model))


def _count_expand(monkeypatch):
    """Record the number of frontier states and of variables of every
    ``conditional._expand`` call: the first is the sweep before the split,
    each later one a chunk."""
    calls = []
    expand = conditional._expand

    def counted(rows, cut):
        calls.append((rows.shape[-1], cut.shape[0]))
        return expand(rows, cut)

    monkeypatch.setattr(conditional, "_expand", counted)
    return calls


def test_small_batch_cap_gives_the_same_table(monkeypatch):
    # Each sweep state's result depends on that state alone, so the
    # chunking cannot change a single bit, dependent rows included. Each
    # cap, half of which is states, leaves room for 128 states at p = 9 (4
    # steps before the split, then 4 chunks) or 24 at p = 5 (3 steps, then
    # 2 chunks).
    cases = [(generate_random_instance(9, seed=21), 2 * 8 * 9 * 128),
             (_duplicate_variable(), 2 * 8 * 5 * 24),
             (_tiny_independent_variable(), 2 * 8 * 5 * 24)]
    whole = [all_conditional_variances(model) for model, _ in cases]
    calls = _count_expand(monkeypatch)
    for (model, cap), one in zip(cases, whole):
        monkeypatch.setattr(conditional, "BATCH_BYTES", cap)
        calls.clear()
        chunked = all_conditional_variances(model)
        assert 0 < calls[0][1] < model.p and len(calls) > 2
        assert np.array_equal(chunked.values, one.values)


@pytest.mark.parametrize("cap", [conditional.BATCH_BYTES,
                                 2 * 8 * 6 * 4 * 20])
def test_stacked_tables_match_one_at_a_time(cap, monkeypatch):
    # 20 states of four p = 6 models: 2 steps before the split, 4 chunks.
    models = [generate_random_instance(6, seed=s) for s in range(4)]
    alone = [all_conditional_variances(m) for m in models]
    calls = _count_expand(monkeypatch)
    monkeypatch.setattr(conditional, "BATCH_BYTES", cap)
    stacked = conditional.conditional_variance_tables(
        np.array([m.gamma for m in models]), np.array([m.beta for m in models]))
    if cap < conditional.BATCH_BYTES:
        assert 0 < calls[0][1] < 6 and len(calls) > 2
    for one, values, var_y in zip(alone, stacked.values, stacked.var_y):
        assert var_y == one.var_y
        assert np.array_equal(values, one.values)


def broadcast_step(rows, cut):
    """The Gram-Schmidt step of states ``(t, w, ...)`` as one broadcast,
    ``rows[1:] - dots[1:, None] / rr * r``: the oracle of
    :func:`conditional._step` on a stack at least two wide. Its ``einsum``
    product may give a zero of the other sign, which ``np.array_equal``
    allows and no later sum or square sees."""
    r = rows[0]
    dots = np.einsum("ki...,i...->k...", rows, r)
    rr = dots[0]
    rr[rr <= cut] = np.inf
    return rows[1:] - (dots[1:] / rr)[:, None] * r


def _checked_step(state, cut):
    """``_step(state, cut)``, checked against the broadcast; also whether a
    pivot was at or below its cut."""
    new = conditional._step(state, cut)
    assert np.array_equal(new, broadcast_step(state, cut))
    return new, bool((np.einsum("i...,i...->...", state[0], state[0])
                      <= cut).any())


def test_step_matches_the_broadcast_on_a_table_frontier():
    # Three stacked p = 5 roots, as the tables stack models: a dense one,
    # one whose X4 copies X1 (its residual falls below the cut) and one
    # whose X3 row is all zero (its squared norm is at its cut, 0).
    dense, dup = generate_random_instance(5, seed=50), _duplicate_variable()
    rows, _ = conditional._roots(np.array([dense.gamma, dup.gamma, dense.gamma]),
                                 np.array([dense.beta, dup.beta, dense.beta]))
    rows[2, :, 2] = 0.0
    cut = conditional.PINV_RTOL * np.einsum("ijm,ijm->im",
                                            rows[:-1], rows[:-1])
    state, hits = rows[..., None], []
    for i in range(5):                  # as _expand walks the frontier
        new, hit = _checked_step(state, cut[i, :, None])
        hits.append(hit)
        state = np.concatenate([state[1:], new], axis=-1)
    assert hits == [False, False, True, True, False]


def _ordering_states(model):
    """Every ordering of ``model``'s ``p`` variables, with the two stacks
    of its sweep and their cuts ``(steps, 120)``: ``_along``'s, ``(p + 1,
    p, 120)`` with ``a`` last, and that of ``ordered_factors`` on the
    sampling factor, ``(p, p, 120)`` without it."""
    p = model.p
    orders = np.array(list(itertools.permutations(range(p))))
    rows, cut = conditional._roots(model.gamma[None], model.beta[None])
    factor = GaussianInput(mu=np.zeros(p), gamma=model.gamma).factor
    f_cut = conditional.PINV_RTOL * np.einsum("ij,ij->i", factor, factor)
    at = np.column_stack([orders, np.full(len(orders), p)])
    return [(conditional._stacked(rows[..., 0], at), cut[:, 0][orders.T]),
            (conditional._stacked(factor, orders), f_cut[orders[:, :-1].T])]


@pytest.mark.parametrize("make", [_duplicate_variable,
                                  _tiny_independent_variable],
                         ids=["duplicate", "tiny"])
def test_step_matches_the_broadcast_along_orderings(make):
    # Only the copy of X1 falls to its cut; X3's tiny row stays above its.
    for state, cuts in _ordering_states(make()):
        hits = False
        for cut in cuts:
            state, hit = _checked_step(state, cut)
            hits |= hit
        assert hits == (make is _duplicate_variable)


@pytest.mark.parametrize("make", [_duplicate_variable,
                                  _tiny_independent_variable],
                         ids=["duplicate", "tiny"])
def test_a_stack_one_wide_steps_as_in_a_wider_one(make):
    # On a stack one wide numpy reduces the dot products along ``w``, in
    # another order than along the stack; _step doubles such a stack, so a
    # state's step is its column of a stack of 2, 3 or 120, bit for bit,
    # and the scalar call, one ordering, is its table entry.
    model = make()
    for state, cuts in _ordering_states(model):
        for cut in cuts:
            steps = {n: conditional._step(state[..., :n], cut[:n])
                     for n in (1, 2, 3, 120)}
            for n in (2, 3, 120):
                assert steps[1].tobytes() == steps[n][..., :1].tobytes()
            state = steps[120]
    table = all_conditional_variances(model).values
    for j in range(1 << model.p):
        assert conditional_variance(model, j).hex() == float(table[j]).hex()


@pytest.mark.parametrize("make", [lambda: generate_random_instance(7, 70),
                                  _duplicate_variable,
                                  _tiny_independent_variable],
                         ids=["dense", "duplicate", "tiny"])
def test_ordered_factors_of_a_stack_match_row_by_row(make):
    gamma = make().gamma
    p = len(gamma)
    factor = GaussianInput(mu=np.zeros(p), gamma=gamma).factor
    orders = np.random.default_rng(p).permuted(
        np.broadcast_to(np.arange(p), (60, p)), axis=1)
    stack = conditional.ordered_factors(factor, orders)
    for one, order in zip(stack, orders):
        alone = conditional.ordered_factors(factor, order[None])[0]
        assert one.tobytes() == alone.tobytes()


def test_table_is_deterministic():
    model = generate_random_instance(8, seed=3)
    first = all_conditional_variances(model)
    second = all_conditional_variances(model)
    assert first.values.tobytes() == second.values.tobytes()


def test_indefinite_covariance_table_is_zero_without_warning():
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])
    model = LinearGaussianModel(beta=np.array([1.0, 0.0]), gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = all_conditional_variances(model)
    assert table.values[subsets.encode([2], 2)] == 0.0
    assert table.values[0] == 1.0
    assert table.values.min() >= 0.0


def test_chunked_table_matches_oracle_and_one_chunk(monkeypatch):
    # At p = 14 a cap of 2 MiB, half of which is states, splits the
    # frontier after the first steps into two chunks, and 128 KiB into 32;
    # one chunk is the oracle of their bits.
    model = generate_random_instance(14, seed=140)
    calls = _count_expand(monkeypatch)
    tables, chunks = [], []
    for cap in (1 << 30, 1 << 21, 1 << 17):
        monkeypatch.setattr(conditional, "BATCH_BYTES", cap)
        calls.clear()
        tables.append(all_conditional_variances(model).values)
        chunks.append(len(calls))
    assert chunks == [2, 3, 33]
    var_y = total_variance(model)
    masks = np.random.default_rng(14).integers(0, 1 << 14, 200)
    oracle = [schur_variance(model, int(j)) for j in masks]
    assert np.max(np.abs(tables[1][masks] - oracle)) <= 1e-12 * var_y
    assert np.array_equal(tables[1], tables[0])
    assert np.array_equal(tables[2], tables[0])


def test_mask_out_of_range_rejected(correlated_p2):
    with pytest.raises(ValueError):
        conditional_variance(correlated_p2, 4)
    with pytest.raises(ValueError):
        conditional_variance(correlated_p2, -1)
    for j in (1.5, 2.9, 1.0):
        with pytest.raises(TypeError):
            conditional_variance(correlated_p2, j)
