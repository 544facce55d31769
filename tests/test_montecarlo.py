import numpy as np
import pytest

from shapley_lg import (BlackBoxModel, BlockPartition, BudgetExceededError,
                        GaussianInput, McConfig, ModelValidationError,
                        block_additive_shapley, conditional_variance,
                        double_mc_cond_var, generate_block_instance,
                        generate_random_instance, lg_groups_indices,
                        lg_indices, mc_shapley, sample_conditional,
                        total_variance, validate_model)
from shapley_lg import ValidationKind, subsets
from shapley_lg.montecarlo import output_variance
from conftest import assert_close


def linear_black_box(beta):
    beta = np.asarray(beta, dtype=float)
    return BlackBoxModel(eval=lambda x: x @ beta, p=beta.size)


def test_black_box_checks_batch_shape():
    model = linear_black_box([1.0, -1.0, 2.0])
    assert model(np.ones((11, 3))).shape == (11,)
    with pytest.raises(ValueError):
        model(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        BlackBoxModel(eval=lambda x: x.sum(), p=3)(np.ones((4, 3)))


def test_gaussian_input_factor_reproduces_covariance():
    model = generate_random_instance(5, seed=1)
    inp = GaussianInput(mu=np.zeros(5), gamma=model.gamma)
    err = np.abs(inp.factor @ inp.factor.T - inp.gamma).max()
    assert err <= 1e-10 * np.abs(inp.gamma).max()

    # rank-deficient covariance still factors
    low = np.outer([1.0, 2.0], [1.0, 2.0])
    inp2 = GaussianInput(mu=np.zeros(2), gamma=low)
    assert np.abs(inp2.factor @ inp2.factor.T - low).max() <= 1e-10 * 4


def test_sample_conditional_on_everything_is_empty():
    inp = GaussianInput(mu=np.zeros(3), gamma=np.eye(3))
    out = sample_conditional(inp, (1, 2, 3), [0.0, 1.0, -1.0], 7, seed=0)
    assert out.shape == (7, 0)


def test_sample_conditional_independent_inputs_ignore_conditioning():
    inp = GaussianInput(mu=np.array([1.0, -2.0]), gamma=np.diag([4.0, 9.0]))
    a = sample_conditional(inp, (1,), [100.0], 50_000, seed=1)
    b = sample_conditional(inp, (1,), [-100.0], 50_000, seed=1)
    assert np.array_equal(a, b)  # same seed, conditioning has no effect
    assert a.mean() == pytest.approx(-2.0, abs=3 * 3.0 / np.sqrt(50_000))


def test_sample_conditional_correlated_moments():
    inp = GaussianInput(mu=np.zeros(2), gamma=[[1.0, 0.5], [0.5, 1.0]])
    n = 200_000
    draws = sample_conditional(inp, (1,), [2.0], n, seed=7)
    se_mean = np.sqrt(0.75 / n)
    assert draws.mean() == pytest.approx(1.0, abs=3 * se_mean)
    se_var = 0.75 * np.sqrt(2.0 / (n - 1))
    assert draws.var(ddof=1) == pytest.approx(0.75, abs=3 * se_var)


def test_sample_conditional_rejects_bad_inputs():
    inp = GaussianInput(mu=np.zeros(3), gamma=np.eye(3))
    with pytest.raises(ValueError):
        sample_conditional(inp, (0,), [1.0], 5, seed=0)
    with pytest.raises(ValueError):
        sample_conditional(inp, (1, 1), [1.0, 1.0], 5, seed=0)
    with pytest.raises(ValueError):
        sample_conditional(inp, (1,), [1.0, 2.0], 5, seed=0)


def test_double_mc_full_subset_is_exactly_zero():
    model = linear_black_box([1.0, 2.0])
    inp = GaussianInput(mu=np.zeros(2), gamma=np.eye(2))
    assert double_mc_cond_var(model, inp, (1, 2), 10, 5, seed=0) == 0.0


def test_double_mc_requires_two_inner_samples():
    model = linear_black_box([1.0, 2.0])
    inp = GaussianInput(mu=np.zeros(2), gamma=np.eye(2))
    with pytest.raises(ValueError):
        double_mc_cond_var(model, inp, (1,), 10, 1, seed=0)


def test_double_mc_empty_subset_estimates_total_variance():
    beta = np.array([1.0, -2.0, 0.5])
    lin = generate_random_instance(3, seed=21)
    model = validate_model(beta, lin.gamma)
    bb = linear_black_box(beta)
    inp = GaussianInput(mu=np.zeros(3), gamma=lin.gamma)
    var_y = total_variance(model)
    est = double_mc_cond_var(bb, inp, (), 1, 100_000, seed=3)
    se = var_y * np.sqrt(2.0 / (100_000 - 1))
    assert est == pytest.approx(var_y, abs=3 * se)


def test_double_mc_matches_closed_form_linear():
    model = generate_random_instance(4, seed=5)
    bb = linear_black_box(model.beta)
    inp = GaussianInput(mu=np.zeros(4), gamma=model.gamma)
    reps = 30
    for mask in (1, 6, 11):
        u = subsets.decode(mask, 4)
        exact = conditional_variance(model, mask)
        seeds = np.random.SeedSequence(mask).spawn(reps)
        values = np.array([
            double_mc_cond_var(bb, inp, u, 200, 20, seed=s) for s in seeds
        ])
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean() - exact) <= 3 * se


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(m=0)
    with pytest.raises(ValueError):
        McConfig(m=1, n_inner=1)
    with pytest.raises(ValueError):
        McConfig(m=1, n_var=1)
    with pytest.raises(BudgetExceededError):
        McConfig(m=100, n_outer=100, n_inner=100, budget=10_000)


def test_mc_shapley_deterministic_and_normalized():
    model = generate_random_instance(3, seed=8)
    bb = linear_black_box(model.beta)
    inp = GaussianInput(mu=np.zeros(3), gamma=model.gamma)
    cfg = McConfig(m=20, n_var=2000, n_outer=50, n_inner=2, seed=4)
    a = mc_shapley(bb, inp, cfg)
    b = mc_shapley(bb, inp, cfg)
    assert np.array_equal(a.shapley_hat, b.shapley_hat)
    assert a.shapley_hat.sum() == pytest.approx(1.0, abs=1e-12)


def test_mc_shapley_rejects_constant_model():
    bb = BlackBoxModel(eval=lambda x: np.zeros(x.shape[0]), p=2)
    inp = GaussianInput(mu=np.zeros(2), gamma=np.eye(2))
    with pytest.raises(ModelValidationError):
        mc_shapley(bb, inp, McConfig(m=5, n_var=100, seed=0))


def test_output_variance_keeps_the_draws_and_rejects_nan():
    bb = linear_black_box([1.0, -2.0])
    inp = GaussianInput(mu=np.zeros(2), gamma=[[1.0, 0.3], [0.3, 1.0]])
    seed = np.random.SeedSequence(5)
    direct = np.var(bb(inp.sample(500, np.random.default_rng(seed))), ddof=1)
    assert output_variance(bb, inp, 500, seed) == float(direct)
    nan = BlackBoxModel(eval=lambda x: np.full(x.shape[0], np.nan), p=2)
    with pytest.raises(ModelValidationError) as err:
        mc_shapley(nan, inp, McConfig(m=5, n_var=100, seed=0))
    assert err.value.kind is ValidationKind.NOT_FINITE


def test_mc_shapley_matches_exact_linear_reference():
    model = generate_random_instance(4, seed=31)
    bb = linear_black_box(model.beta)
    inp = GaussianInput(mu=np.zeros(4), gamma=model.gamma)
    exact = lg_indices(model).shapley
    reps = 20
    samples = np.array([
        mc_shapley(bb, inp,
                   McConfig(m=40, n_var=20_000, n_outer=100, n_inner=2,
                            seed=1000 + r)).shapley_hat
        for r in range(reps)
    ])
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - exact) <= 3 * se + 1e-12)


def _block_pairs_from_model(model, partition):
    pairs = []
    for group in partition.groups:
        idx = np.asarray(group) - 1
        beta_g = model.beta[idx]
        pairs.append((
            linear_black_box(beta_g),
            GaussianInput(mu=np.zeros(idx.size),
                          gamma=model.gamma[np.ix_(idx, idx)]),
        ))
    return pairs


def test_block_additive_single_block_reduces_to_plain_estimate():
    model = generate_random_instance(3, seed=41)
    bb = linear_black_box(model.beta)
    inp = GaussianInput(mu=np.zeros(3), gamma=model.gamma)
    cfg = McConfig(m=30, n_var=20_000, n_outer=100, n_inner=2, seed=2)
    combined = block_additive_shapley([(bb, inp)], cfg)
    assert combined.sum() == pytest.approx(1.0, abs=1e-12)
    exact = lg_indices(model).shapley
    # single-block combination is just the within-block estimate
    assert np.abs(combined - exact).max() < 0.2


def test_block_additive_matches_grouped_exact_reference():
    model = generate_block_instance(3, 2, seed=51)
    from shapley_lg import detect_blocks
    partition = detect_blocks(model.gamma)
    exact = lg_groups_indices(model).shapley
    reps = 20
    samples = np.array([
        block_additive_shapley(
            _block_pairs_from_model(model, partition),
            McConfig(m=40, n_var=20_000, n_outer=100, n_inner=2,
                     seed=3000 + r),
            partition,
        )
        for r in range(reps)
    ])
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - exact) <= 3 * se + 1e-12)


def _nonlinear_blocks(weights_per_block):
    """Three two-variable terms: cos of a weighted square sum plus the sum."""
    models = []
    for w1, w2 in weights_per_block:
        def g(x, a=w1, b=w2):
            z = a * x[:, 0] ** 2 + b * x[:, 1] ** 2
            return np.cos(z) + z
        models.append(BlackBoxModel(eval=g, p=2))
    return models


def test_block_additive_nonlinear_matches_full_model_estimate():
    weights = [(1.0, 1.2), (1.4, 1.6), (1.8, 2.0)]
    rng = np.random.default_rng(7)
    blocks_gamma = []
    for _ in range(3):
        a = rng.standard_normal((2, 2))
        blocks_gamma.append(a @ a.T)
    gamma = np.zeros((6, 6))
    for j, g in enumerate(blocks_gamma):
        gamma[2 * j:2 * j + 2, 2 * j:2 * j + 2] = g

    def full_eval(x):
        total = np.zeros(x.shape[0])
        for j, (w1, w2) in enumerate(weights):
            z = w1 * x[:, 2 * j] ** 2 + w2 * x[:, 2 * j + 1] ** 2
            total += np.cos(z) + z
        return total

    full_model = BlackBoxModel(eval=full_eval, p=6)
    full_input = GaussianInput(mu=np.zeros(6), gamma=gamma)
    block_models = _nonlinear_blocks(weights)
    pairs = [
        (block_models[j],
         GaussianInput(mu=np.zeros(2), gamma=blocks_gamma[j]))
        for j in range(3)
    ]

    reps = 16
    full_samples = np.array([
        mc_shapley(full_model, full_input,
                   McConfig(m=60, n_var=40_000, n_outer=100, n_inner=2,
                            seed=100 + r)).shapley_hat
        for r in range(reps)
    ])
    block_samples = np.array([
        block_additive_shapley(
            pairs,
            McConfig(m=60, n_var=40_000, n_outer=100, n_inner=2,
                     seed=500 + r))
        for r in range(reps)
    ])
    diff = np.abs(full_samples.mean(0) - block_samples.mean(0))
    combined_se = np.sqrt(full_samples.var(0, ddof=1) / reps
                          + block_samples.var(0, ddof=1) / reps)
    assert np.all(diff <= 3 * combined_se + 1e-12)
    assert block_samples.mean(0).sum() == pytest.approx(1.0, abs=1e-10)


def test_block_additive_rejects_zero_variance_block():
    dead = BlackBoxModel(eval=lambda x: np.zeros(x.shape[0]), p=1)
    live = linear_black_box([1.0])
    inp = GaussianInput(mu=np.zeros(1), gamma=np.eye(1))
    with pytest.raises(ModelValidationError):
        block_additive_shapley(
            [(live, inp), (dead, inp)],
            McConfig(m=5, n_var=200, seed=0),
        )


def test_block_additive_validates_partition():
    model = generate_block_instance(2, 2, seed=0)
    from shapley_lg import detect_blocks
    partition = detect_blocks(model.gamma)
    pairs = _block_pairs_from_model(model, partition)
    bad = BlockPartition.from_groups([[1], [2, 3, 4]], 4)
    with pytest.raises(ValueError):
        block_additive_shapley(pairs, McConfig(m=5, n_var=100, seed=0), bad)
