import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapley_lg import (GaussianInput, LinearGaussianModel,
                        all_conditional_variances, conditional_variance,
                        generate_random_instance, sample_conditional,
                        total_variance, validate_model)
from shapley_lg import conditional, subsets
from conftest import (_duplicate_variable, _tiny_independent_variable,
                      assert_close)


def schur_variance(model, j):
    """Schur-complement form of the conditional variance given mask ``j``,
    ``beta_r' (gamma_rr - gamma_ru gamma_uu^+ gamma_ur) beta_r``: the
    oracle for the explained-variance builder."""
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
    q -= float(t @ conditional._solve(gamma[np.ix_(u, u)], t))
    return max(q, 0.0)


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
def test_scale_equivariance(p, seed, c):
    model = generate_random_instance(p, seed)
    scaled = validate_model(c * model.beta, model.gamma)
    for j in (0, 1, (1 << p) - 2):
        assert conditional_variance(scaled, j) == pytest.approx(
            c * c * conditional_variance(model, j), rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_factor_and_pseudo_paths_agree(seed):
    # The explained part t' gamma_uu^{-1} t of every conditional variance,
    # through both solvers on the same blocks.
    model = generate_random_instance(6, seed)
    var_y = total_variance(model)
    for j in range(1, (1 << 6) - 1):
        u = np.asarray(subsets.decode(j, 6)) - 1
        r = np.setdiff1d(np.arange(6), u)
        block = model.gamma[np.ix_(u, u)]
        t = model.gamma[np.ix_(u, r)] @ model.beta[r]
        factored = conditional._factor_solve(block, t)
        assert factored is not None
        pseudo = conditional._pseudo_solve(block, t)
        assert t @ pseudo == pytest.approx(t @ factored, rel=1e-10,
                                           abs=1e-10 * var_y)


def test_singular_conditioning_block_uses_generalized_inverse():
    # X3 is a copy of X1; conditioning on (X1, X3) is conditioning on X1.
    gamma = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    model = validate_model([1.0, 1.0, 0.0], gamma)
    both = conditional_variance(model, subsets.encode([1, 3], 3))
    one = conditional_variance(model, subsets.encode([1], 3))
    assert both == pytest.approx(1.0, abs=1e-12)
    assert one == pytest.approx(1.0, abs=1e-12)


def test_negative_roundoff_is_clamped_with_warning():
    # Covariance built by hand to be indefinite; bypasses validation on purpose.
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])
    model = LinearGaussianModel(beta=np.array([1.0, 0.0]), gamma=gamma,
                                mu=np.zeros(2))
    with pytest.warns(RuntimeWarning):
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
    v = conditional.prefix_variances(model, orders)
    oracle = [[schur_variance(model, sum(1 << int(i) for i in order[:k]))
               for k in range(p + 1)] for order in orders]
    assert v.shape == (40, p + 1)
    assert np.max(np.abs(v - oracle)) <= 1e-12 * var_y
    assert np.all(v[:, 0] == var_y) and np.all(v[:, p] == 0.0)


@pytest.mark.parametrize("make", [_duplicate_variable,
                                  _tiny_independent_variable])
def test_ill_conditioned_blocks_take_pseudo_inverse(make, monkeypatch):
    model = make()
    seen = []
    original = conditional._pseudo_explained

    def counted(blocks, c_u):
        seen.append(blocks.shape)
        return original(blocks, c_u)

    monkeypatch.setattr(conditional, "_pseudo_explained", counted)
    table = all_conditional_variances(model)
    assert seen
    assert_matches_schur(model, table)


def test_small_batch_cap_gives_the_same_table(monkeypatch):
    # Each block's solver path and result depend on that block alone, so
    # the batching cannot change a single bit, singular blocks included.
    models = [generate_random_instance(9, seed=21), _duplicate_variable(),
              _tiny_independent_variable()]
    whole = [all_conditional_variances(m) for m in models]
    # Room for three 4 x 4 blocks: most cardinalities split into many chunks.
    monkeypatch.setattr(conditional, "BATCH_BYTES", 3 * 8 * 16)
    for model, one in zip(models, whole):
        chunked = all_conditional_variances(model)
        assert np.array_equal(chunked.values, one.values)


@pytest.mark.parametrize("cap", [conditional.BATCH_BYTES, 3 * 8 * 16])
def test_stacked_tables_match_one_at_a_time(cap, monkeypatch):
    models = [generate_random_instance(6, seed=s) for s in range(4)]
    alone = [all_conditional_variances(m) for m in models]
    monkeypatch.setattr(conditional, "BATCH_BYTES", cap)
    stacked = conditional.conditional_variance_tables(models)
    for one, many in zip(alone, stacked):
        assert many.var_y == one.var_y
        assert np.array_equal(many.values, one.values)


def test_table_is_deterministic():
    model = generate_random_instance(8, seed=3)
    first = all_conditional_variances(model)
    second = all_conditional_variances(model)
    assert first.values.tobytes() == second.values.tobytes()


def test_table_clamps_negative_entries_with_warning():
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])
    model = LinearGaussianModel(beta=np.array([1.0, 0.0]), gamma=gamma,
                                mu=np.zeros(2))
    with pytest.warns(RuntimeWarning, match="clamped to 0"):
        table = all_conditional_variances(model)
    assert table.values[subsets.encode([2], 2)] == 0.0
    assert table.values[0] == 1.0


def test_mask_out_of_range_rejected(correlated_p2):
    with pytest.raises(ValueError):
        conditional_variance(correlated_p2, 4)
    with pytest.raises(ValueError):
        conditional_variance(correlated_p2, -1)
