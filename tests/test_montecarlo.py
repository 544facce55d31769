import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from shapley_lg import (BlackBoxModel, BlockPartition, BudgetExceededError,
                        GaussianInput, McConfig, ModelValidationError,
                        block_additive_shapley, conditional_variance,
                        double_mc_cond_var, generate_block_instance,
                        generate_random_instance, lg_groups_indices,
                        lg_indices, mc_shapley, total_variance,
                        validate_model)
from shapley_lg import (PermutationEstimate, ValidationKind, conditional,
                        montecarlo, subsets)
from shapley_lg.montecarlo import output_variance
from shapley_lg.indices import shapley_from_table
from conftest import (_duplicate_variable, _tiny_independent_variable,
                      assert_close, quadratic_black_box, quadratic_table,
                      sample_conditional)


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


@pytest.mark.parametrize("mu, gamma, kind", [
    ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], ValidationKind.NOT_PSD),
    ([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]], ValidationKind.NOT_SYMMETRIC),
    ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]], ValidationKind.NOT_FINITE),
    ([0.0, np.inf], np.eye(2), ValidationKind.NOT_FINITE),
    ([0.0, 0.0, 0.0], np.eye(2), ValidationKind.DIMENSION_MISMATCH),
    ([0.0, 0.0], np.eye(3)[:2], ValidationKind.DIMENSION_MISMATCH),
    ([], np.zeros((0, 0)), ValidationKind.DIMENSION_MISMATCH),
], ids=["indefinite", "asymmetric", "nan-gamma", "inf-mu", "mu-length",
        "gamma-not-square", "empty"])
def test_gaussian_input_is_checked_like_a_distribution_file(mu, gamma, kind):
    # The indefinite gamma used to get a factor with F F' = [[1.5, 1.5],
    # [1.5, 1.5]], and mc_shapley on x1 + x2 returned (0.55, 0.45).
    with pytest.raises(ModelValidationError) as err:
        GaussianInput(mu=mu, gamma=gamma)
    assert err.value.kind is kind


def test_gaussian_input_fields_cannot_be_reassigned():
    # A new gamma or mu would leave the factor of the old one in place.
    inp = GaussianInput(mu=np.zeros(2), gamma=np.eye(2))
    for name, value in [("gamma", 4 * np.eye(2)), ("mu", np.zeros(3)),
                        ("factor", 2 * np.eye(2))]:
        with pytest.raises(FrozenInstanceError):
            setattr(inp, name, value)
    assert np.array_equal(inp.factor, np.eye(2))


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
    with pytest.raises(ValueError, match="n_inner must be >= 2"):
        double_mc_cond_var(model, inp, (1,), 10, 1, seed=0)
    with pytest.raises(ValueError, match="n_outer must be >= 1"):
        double_mc_cond_var(model, inp, (1,), n_outer=0, n_inner=5, seed=0)


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


def test_double_mc_matches_closed_form_on_a_duplicate_variable():
    # X4 copies X1, so a conditioning set holding both is singular, and
    # the sweep skips whichever of the two comes second. For s = beta' x,
    # with v = Var(s | X_u) and var_y = Var(s), E Var(s | X_u) = v and
    # E Var(s**2 | X_u) = 2 v**2 + 4 v (var_y - v): the square also checks
    # the law of the outer draws, which a linear model cannot see.
    model = _duplicate_variable()
    bb = linear_black_box(model.beta)
    square = BlackBoxModel(eval=lambda x: (x @ model.beta) ** 2, p=5)
    inp = GaussianInput(mu=np.zeros(5), gamma=model.gamma)
    var_y = total_variance(model)
    reps = 30
    for u in ((1, 4), (4, 1, 2), (4,), (3, 5, 1, 4)):
        mask = subsets.encode(u, 5)
        v = conditional_variance(model, mask)
        seeds = np.random.SeedSequence(mask).spawn(2 * reps)
        for j, (f, exact) in enumerate(((bb, v), (square, 2 * v * v
                                                  + 4 * v * (var_y - v)))):
            values = np.array([
                double_mc_cond_var(f, inp, u, 200, 20, seed=s)
                for s in seeds[j * reps:(j + 1) * reps]
            ])
            se = values.std(ddof=1) / np.sqrt(reps)
            assert abs(values.mean() - exact) <= 3 * se, (u, f)


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


def test_mc_shapley_rejects_input_of_another_dimension():
    inp = GaussianInput(mu=np.zeros(3), gamma=np.eye(3))
    with pytest.raises(ValueError, match="does not match"):
        mc_shapley(linear_black_box([1.0, 2.0]), inp,
                   McConfig(m=5, n_var=100, seed=0))


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


def assert_replicates_match(samples, exact):
    """The replicate mean is within 4 of its standard errors of ``exact``
    in every component: with 12 replicates a correct estimator is further
    off with a probability of about 0.2% per component (Student's t, 11
    degrees of freedom)."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - exact) <= 4 * se), (
        samples.mean(axis=0), exact, se)


def test_mc_shapley_matches_closed_form_quadratic_model():
    # y = b'x + x'Qx on four correlated inputs: the inner variances depend
    # on the outer draw, which a linear model never tests.
    gamma = [[2.0, 0.8, 0.3, 0.0], [0.8, 1.5, -0.4, 0.2],
             [0.3, -0.4, 1.0, 0.5], [0.0, 0.2, 0.5, 1.2]]
    b = [1.0, -0.5, 0.8, 0.3]
    q = [[0.3, 0.1, 0.0, 0.0], [0.1, 0.0, 0.0, 0.2],
         [0.0, 0.0, -0.4, 0.0], [0.0, 0.2, 0.0, 0.1]]
    inp = GaussianInput(mu=np.zeros(4), gamma=gamma)
    samples = np.array([mc_shapley(
        quadratic_black_box(b, q), inp,
        McConfig(m=2000, n_outer=20, n_inner=3, seed=r)).shapley_hat
        for r in range(12)])
    assert_replicates_match(samples,
                            shapley_from_table(quadratic_table(b, q, gamma)))


def test_block_additive_matches_closed_form_quadratic_blocks():
    # Two independent groups of two, one quadratic term in each.
    gammas = [np.array([[1.0, 0.6], [0.6, 2.0]]),
              np.array([[1.5, -0.7], [-0.7, 1.0]])]
    bs = [np.array([1.0, 0.5]), np.array([-0.4, 0.9])]
    qs = [np.array([[0.5, 0.0], [0.0, 0.0]]),
          np.array([[0.0, 0.3], [0.3, 0.0]])]
    pairs = [(quadratic_black_box(b, q), GaussianInput(mu=np.zeros(2),
                                                       gamma=g))
             for b, q, g in zip(bs, qs, gammas)]
    samples = np.array([block_additive_shapley(
        pairs, McConfig(m=2000, n_outer=20, n_inner=3, seed=r))
        for r in range(12)])
    whole = [np.zeros((4, 4)) for _ in range(2)]
    for j, (q, g) in enumerate(zip(qs, gammas)):
        whole[0][2 * j:2 * j + 2, 2 * j:2 * j + 2] = q
        whole[1][2 * j:2 * j + 2, 2 * j:2 * j + 2] = g
    assert_replicates_match(samples, shapley_from_table(
        quadratic_table(np.concatenate(bs), *whole)))


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


def test_block_additive_rejects_zero_variance_block(monkeypatch):
    # A constant term gets weight 0 and zero effects, and is not sampled;
    # the live term keeps its own estimate. All terms constant is an error.
    dead = BlackBoxModel(eval=lambda x: np.zeros(x.shape[0]), p=1)
    live = linear_black_box([1.0, -2.0])
    inp1 = GaussianInput(mu=np.zeros(1), gamma=np.eye(1))
    inp2 = GaussianInput(mu=np.zeros(2), gamma=[[1.0, 0.3], [0.3, 1.0]])
    cfg = McConfig(m=5, n_var=200, seed=0)
    sampled = []
    mc = montecarlo.mc_shapley
    monkeypatch.setattr(montecarlo, "mc_shapley",
                        lambda bb, gi, sub_cfg, var_y: sampled.append(bb)
                        or mc(bb, gi, sub_cfg, var_y=var_y))
    eta = block_additive_shapley([(live, inp2), (dead, inp1)], cfg)
    assert sampled == [live]
    assert eta[2] == 0.0 and eta.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ModelValidationError) as err:
        block_additive_shapley([(dead, inp1), (dead, inp1)], cfg)
    assert err.value.kind is ValidationKind.ZERO_OUTPUT_VARIANCE


def test_block_additive_scales_each_block_by_its_variance_share():
    # The oracle: each block's own estimate times its share of the summed
    # variances, recomputed from the same child seeds, on a non-consecutive
    # partition whose constant block has share 0 and zero effects.
    partition = BlockPartition.from_groups([[1, 3], [2], [4, 5]], 5)
    blocks = [
        (BlackBoxModel(eval=lambda x: x[:, 0] * x[:, 1] + x[:, 0], p=2),
         GaussianInput(mu=[0.5, 0.0], gamma=[[1.0, 0.4], [0.4, 2.0]])),
        (BlackBoxModel(eval=lambda x: np.full(x.shape[0], 3.0), p=1),
         GaussianInput(mu=np.zeros(1), gamma=np.eye(1))),
        (linear_black_box([1.0, -0.5]),
         GaussianInput(mu=np.zeros(2), gamma=[[1.0, -0.3], [-0.3, 1.0]])),
    ]
    cfg = McConfig(m=20, n_var=500, n_outer=20, seed=7)
    children = np.random.SeedSequence(cfg.seed).spawn(2 * len(blocks))
    variances = np.array([
        np.var(bb(gi.sample(cfg.n_var, np.random.default_rng(child))), ddof=1)
        for (bb, gi), child in zip(blocks, children)])
    total = variances.sum()
    expected = np.zeros(5)
    for j, ((bb, gi), group) in enumerate(zip(blocks, partition.groups)):
        if variances[j]:
            seed = int(children[len(blocks) + j].generate_state(1)[0])
            expected[np.asarray(group) - 1] = variances[j] / total * mc_shapley(
                bb, gi, replace(cfg, seed=seed),
                var_y=float(variances[j])).shapley_hat
    eta = block_additive_shapley(blocks, cfg, partition)
    assert np.array_equal(eta, expected)
    assert variances[1] == 0.0 and eta[1] == 0.0
    assert (eta[[0, 2, 3, 4]] != 0.0).all()
    assert eta.sum() == pytest.approx(1.0, abs=1e-12)


def test_block_additive_validates_partition():
    model = generate_block_instance(2, 2, seed=0)
    from shapley_lg import detect_blocks
    partition = detect_blocks(model.gamma)
    pairs = _block_pairs_from_model(model, partition)
    bad = BlockPartition.from_groups([[1], [2, 3, 4]], 4)
    cfg = McConfig(m=5, n_var=100, seed=0)
    with pytest.raises(ValueError):
        block_additive_shapley(pairs, cfg, bad)
    with pytest.raises(ValueError, match="at least one block"):
        block_additive_shapley([], cfg)
    with pytest.raises(ValueError, match="dimensions disagree"):
        block_additive_shapley([(pairs[0][0], pairs[1][1]),
                                (linear_black_box([1.0]), pairs[0][1])], cfg)


def literal_mc_shapley(model, inp, cfg, *, var_y):
    """The per-step walk: one ``permutation`` per ordering from
    ``mc_shapley``'s second child seed, that ordering's own factor, and one
    nested step per prefix, each continuing the one normal stream of the
    third; the oracle of the batched estimator. The inner draws depend on
    the order of the variables after the prefix, so each step reads the
    whole ordering's factor, not ``double_mc_cond_var``'s."""
    p, n_outer, n_inner = model.p, cfg.n_outer, cfg.n_inner
    _, order_seed, z_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    perm_rng = np.random.default_rng(order_seed)
    normals = np.random.default_rng(z_seed)
    orders = np.empty((cfg.m, p), dtype=np.intp)
    v = np.zeros((cfg.m, p + 1))
    v[:, 0] = var_y
    for j in range(cfg.m):
        orders[j] = perm_rng.permutation(p)
        factor = conditional.ordered_factors(inp.factor, orders[j][None])
        for k in range(1, p):
            v[j, k] = montecarlo._nested(model, inp, factor, normals, [k],
                                         n_outer, n_inner)[0, 0]
    # The walk read m * n_outer * sum_k (k + n_inner (p - k)) normals.
    count = np.random.default_rng(z_seed)
    count.standard_normal(cfg.m * n_outer * sum(
        k + n_inner * (p - k) for k in range(1, p)))
    assert count.bit_generator.state == normals.bit_generator.state
    gains = np.bincount(orders.ravel(), (v[:, :-1] - v[:, 1:]).ravel(),
                        minlength=p)
    return gains / (cfg.m * var_y)


def _nonlinear(p):
    return BlackBoxModel(
        eval=lambda x: np.cos(x[:, 0]) * x[:, -1] + (x ** 2).sum(axis=1), p=p)


def stepwise_nested(model, inp, factors, rng, steps, n_outer, n_inner):
    """``montecarlo._nested`` adding each step's outer draws ``mu + F[:, :k]
    w`` to its noise in turn, step by step: the oracle of the bits of its
    one buffer of outer offsets and its one add per slice."""
    c, p = factors.shape[:2]
    ft = factors.swapaxes(-1, -2)
    z = rng.standard_normal(
        (c, n_outer * sum(n_inner * (p - k) + k for k in steps)))
    x = np.empty((c, len(steps), n_inner, n_outer, p))
    flat = x.reshape(c, len(steps), -1, p)
    at = 0
    for s, k in enumerate(steps):
        mid = at + n_inner * n_outer * (p - k)
        np.matmul(z[:, at:mid].reshape(c, -1, p - k), ft[:, k:],
                  out=flat[:, s])
        at = mid + n_outer * k
        x[:, s] += (inp.mu + z[:, mid:at].reshape(c, n_outer, k)
                    @ ft[:, :k])[:, None]
    values = model(x.reshape(-1, p)).reshape(x.shape[:-1])
    return np.var(values, axis=2, ddof=1).mean(axis=-1)


def test_nested_matches_the_per_step_outer_add(monkeypatch):
    # On the singular fixture with a non-zero mean and three inner draws,
    # every point the model sees and every variance are the oracle's, bit
    # for bit: for slices of orderings and any steps, in a buffer of their
    # own or in a larger one that other slices left dirty, and for
    # double_mc_cond_var, whose one ordering is given, then ascending.
    model = _duplicate_variable()
    p = model.p
    inp = GaussianInput(mu=np.linspace(-2.0, 3.0, p), gamma=model.gamma)
    points = []
    bb = BlackBoxModel(eval=lambda x: points.append(x.copy())
                       or _nonlinear(p)(x), p=p)
    orders = np.random.default_rng(5).permuted(
        np.broadcast_to(range(p), (7, p)), axis=1)
    factors = conditional.ordered_factors(inp.factor, orders)
    dirty = np.full(1 << 14, np.nan)
    for steps in (range(1, p), [2], [4, 0, 1]):
        want, *got = [
            (nested(bb, inp, factors, np.random.default_rng(3), steps, 11, 3,
                    *work), points.pop())
            for nested, work in ((stepwise_nested, ()),
                                 (montecarlo._nested, ()),
                                 (montecarlo._nested, (dirty,)))]
        for values, seen in got:
            assert np.array_equal(values, want[0])
            assert np.array_equal(seen, want[1])
    for u in ((), (1, 4), (4, 1, 2), (4,), (3, 5, 1, 4)):
        got = double_mc_cond_var(bb, inp, u, 11, 3, seed=7), points.pop()
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_nested", stepwise_nested)
            want = double_mc_cond_var(bb, inp, u, 11, 3, seed=7), points.pop()
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert not points


@pytest.mark.parametrize("p", [1, 2, 4, 7])
def test_mc_shapley_matches_the_literal_walk(p):
    lin = generate_random_instance(p, seed=60 + p)
    inp = GaussianInput(mu=np.linspace(-1.0, 1.0, p), gamma=lin.gamma)
    cfg = McConfig(m=25, n_var=500, n_outer=15, n_inner=3, seed=p)
    for bb in (linear_black_box(lin.beta), _nonlinear(p)):
        var_y = output_variance(bb, inp, cfg.n_var, 0)
        est = mc_shapley(bb, inp, cfg, var_y=var_y)
        assert np.array_equal(est.shapley_hat,
                              literal_mc_shapley(bb, inp, cfg, var_y=var_y))


def test_block_additive_matches_the_literal_walk(monkeypatch):
    model = generate_block_instance(3, 3, seed=61)
    from shapley_lg import detect_blocks
    partition = detect_blocks(model.gamma)
    pairs = _block_pairs_from_model(model, partition)
    cfg = McConfig(m=30, n_var=500, n_outer=20, n_inner=2, seed=5)
    batched = block_additive_shapley(pairs, cfg, partition)
    monkeypatch.setattr(
        montecarlo, "mc_shapley",
        lambda bb, gi, sub_cfg, var_y: PermutationEstimate(
            shapley_hat=literal_mc_shapley(bb, gi, sub_cfg, var_y=var_y)))
    walked = block_additive_shapley(pairs, cfg, partition)
    assert np.array_equal(batched, walked)


def test_small_chunk_cap_gives_the_same_estimate(monkeypatch):
    lin = generate_random_instance(5, seed=62)
    bb = _nonlinear(5)
    inp = GaussianInput(mu=np.zeros(5), gamma=lin.gamma)
    cfg = McConfig(m=20, n_var=500, n_outer=10, n_inner=2, seed=3)
    whole = mc_shapley(bb, inp, cfg).shapley_hat
    # Below one ordering's points, every sweep of factors and every fill
    # holds a single ordering; at 64 times the cap one sweep and one fill
    # hold them all. The boundaries leave the one stream of normals alone.
    for cap in (300, 64 * conditional.BATCH_BYTES):
        monkeypatch.setattr(conditional, "BATCH_BYTES", cap)
        assert np.array_equal(mc_shapley(bb, inp, cfg).shapley_hat, whole)


def test_mc_sweeps_each_stack_of_orderings_once(monkeypatch):
    # At p = 9 with one outer and two inner draws, a sweep of a stack of
    # orderings, which peaks at four times their factors, fits BATCH_BYTES
    # (809 orderings at 2 MiB): four and a half stacks take five sweeps,
    # and each sweep's fills hold at most BATCH_BYTES of normals, points
    # and outer means, all in one buffer per sweep.
    p = 9
    stack = conditional.BATCH_BYTES // (4 * 8 * p * p)
    cfg = McConfig(m=4 * stack + stack // 2, n_var=500, n_outer=1,
                   n_inner=2, seed=4)
    inp = GaussianInput(mu=np.zeros(p),
                        gamma=generate_random_instance(p, seed=9).gamma)
    sweeps, fills, works = [], [], []
    ordered, nested = conditional.ordered_factors, montecarlo._nested

    def counted_sweep(factor, orders):
        sweeps.append(len(orders))
        return ordered(factor, orders)

    def counted_fill(model, inp, factors, *args):
        fills.append(len(factors))
        works.append(args[-1])
        return nested(model, inp, factors, *args)

    monkeypatch.setattr(conditional, "ordered_factors", counted_sweep)
    monkeypatch.setattr(montecarlo, "_nested", counted_fill)
    mc_shapley(_nonlinear(p), inp, cfg)
    assert sweeps == [stack] * 4 + [stack // 2]
    per_order = 8 * (
        (p - 1) * (cfg.n_inner + 1) * cfg.n_outer * p   # points, outer means
        + cfg.n_outer * sum(k + cfg.n_inner * (p - k)
                            for k in range(1, p)))        # and normals
    assert sum(fills) == cfg.m and len(fills) > 2
    assert max(fills) * per_order <= conditional.BATCH_BYTES
    assert len({id(work) for work in works}) == len(sweeps)
    assert max(work.nbytes for work in works) <= conditional.BATCH_BYTES


@pytest.mark.parametrize("make", [_duplicate_variable,
                                  _tiny_independent_variable],
                         ids=["duplicate", "tiny"])
def test_sweep_rows_match_the_pinv_oracle(make):
    # On every subset u of the singular and the ill-conditioned fixture,
    # first in ascending order with the rest ascending, then with both
    # shuffled, the ordered factor F of the sampling factor A gives the
    # Schur complement F[:, k:] F[:, k:]', zero on the rows of u, and the
    # explained part F[:, :k] F[:, :k]' = gamma[:, u] gamma_uu^+ gamma[u, :].
    model = make()
    p = model.p
    inp = GaussianInput(mu=np.zeros(p), gamma=model.gamma)
    gamma = inp.gamma
    rng = np.random.default_rng(p)
    for mask in range(1 << p):
        u = np.flatnonzero(mask >> np.arange(p) & 1)
        rest = np.setdiff1d(np.arange(p), u)
        explained = gamma[:, u] @ np.linalg.pinv(
            gamma[np.ix_(u, u)], rtol=conditional.PINV_RTOL,
            hermitian=True) @ gamma[u, :]
        schur = np.zeros((p, p))
        schur[np.ix_(rest, rest)] = (gamma - explained)[np.ix_(rest, rest)]
        for order in (np.concatenate([u, rest]),
                      np.concatenate([rng.permutation(u),
                                      rng.permutation(rest)])):
            f = conditional.ordered_factors(inp.factor, order[None])[0]
            k = u.size
            np.testing.assert_allclose(f[:, k:] @ f[:, k:].T, schur,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(f[:, :k] @ f[:, :k].T, explained,
                                       rtol=0, atol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_shapley(linear_black_box(model.beta), inp,
                         McConfig(m=20, n_var=500, n_outer=10, seed=1))
    assert est.shapley_hat.sum() == pytest.approx(1.0, abs=1e-12)


def test_singular_input_draws_survive_a_last_bit_change():
    # X4 copies X1, so blocks holding both are singular and X4's residual
    # after X1 is pure round-off, which the cut of the sampling factor and
    # of each ordered factor must drop, not normalise. Rescaling the
    # covariance by a few ulps must move the estimate by round-off only,
    # not by its sampling noise.
    model = _duplicate_variable()
    bb = linear_black_box(model.beta)
    cfg = McConfig(m=30, n_var=500, n_outer=20, seed=1)
    est = np.array([
        mc_shapley(bb, GaussianInput(mu=np.zeros(model.p),
                                     gamma=model.gamma * (1 + k * 2.0**-52)),
                   cfg).shapley_hat
        for k in range(6)])
    assert np.ptp(est, axis=0).max() <= 1e-8

