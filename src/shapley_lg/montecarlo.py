"""Shapley estimation for black-box models with Gaussian inputs.

Nothing here assumes linearity: conditional variances are estimated by a
nested Monte Carlo loop (outer draw of the conditioning variables, inner
conditional draws of the rest) and plugged into the random-ordering
estimator. The conditional law of each distinct conditioning set is
factored once, stacked with the other sets of its size by
``conditional.conditional_parts`` (a Cholesky solver with a generalized
inverse for the blocks it cannot take), and the model is evaluated on
whole orderings at once, in chunks of at most
``conditional.BATCH_BYTES`` of points. When the model is a sum of
functions of independent groups, the per-group estimates combine exactly,
which is dramatically cheaper than estimating on the full input space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from . import conditional
from .blocks import BlockPartition, combine_block_shapley, detect_blocks
from .errors import BudgetExceededError, ModelValidationError, ValidationKind
from .permutations import PermutationEstimate, ordering_gains


@dataclass(frozen=True, eq=False)
class BlackBoxModel:
    """Deterministic scalar-valued function of a length-p input vector.

    ``eval`` is called with a batch array of shape (n, p), one row per
    point, and must return n values.
    """

    eval: Callable
    p: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ValueError(f"expected batch of shape (n, {self.p}), got {x.shape}")
        out = np.asarray(self.eval(x), dtype=float).reshape(-1)
        if out.size != x.shape[0]:
            raise ValueError(
                f"model returned {out.size} values for {x.shape[0]} points"
            )
        return out


@dataclass(eq=False)
class GaussianInput:
    """Gaussian input distribution with a cached sampling factor.

    ``gamma`` is symmetrised on construction and ``factor`` is computed from
    it: a square root ``F`` with ``F F' = gamma`` (Cholesky, or eigenvector
    scaling when ``gamma`` is only semi-definite).
    """

    mu: np.ndarray
    gamma: np.ndarray
    factor: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.gamma = np.asarray(self.gamma, dtype=float)
        p = self.mu.size
        if self.gamma.shape != (p, p):
            raise ValueError(
                f"gamma has shape {self.gamma.shape}, expected ({p}, {p})"
            )
        self.gamma = (self.gamma + self.gamma.T) / 2.0
        self.factor = conditional.psd_factor(self.gamma[None])[0]

    @property
    def p(self) -> int:
        return self.mu.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n joint draws, shape (n, p)."""
        return self.mu + rng.standard_normal((n, self.p)) @ self.factor.T


def _index_split(p: int, u: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    u_idx = np.asarray(sorted(u), dtype=np.int64) - 1
    if u_idx.size:
        if u_idx[0] < 0 or u_idx[-1] >= p:
            raise ValueError(f"conditioning set {tuple(u)} outside [1:{p}]")
        if np.unique(u_idx).size != u_idx.size:
            raise ValueError(f"conditioning set {tuple(u)} has repeats")
    mask = np.ones(p, dtype=bool)
    mask[u_idx] = False
    return u_idx, np.flatnonzero(mask)


def _draw(inp: GaussianInput, u_idx: np.ndarray, r_idx: np.ndarray,
          coef: np.ndarray, factor: np.ndarray, rng: np.random.Generator,
          out: np.ndarray) -> None:
    """Fill ``out``, shape ``(n_outer, n_inner, p)``, with ``n_outer`` joint
    draws of ``X_u``, each repeated with ``n_inner`` conditional draws of
    the rest (mean coefficient ``coef``, sampling factor ``factor``)."""
    n_outer, n_inner, _ = out.shape
    x_u = inp.sample(n_outer, rng)[:, u_idx]
    means = inp.mu[r_idx] + (x_u - inp.mu[u_idx]) @ coef
    z = rng.standard_normal((n_outer * n_inner, r_idx.size)) @ factor.T
    out[..., u_idx] = x_u[:, None, :]
    out[..., r_idx] = means[:, None, :] + z.reshape(n_outer, n_inner, -1)


def sample_conditional(inp: GaussianInput, u: Sequence[int], x_u,
                       n: int, seed) -> np.ndarray:
    """n conditional draws of the variables outside ``u`` given ``X_u = x_u``.

    ``u`` holds 1-based variable indices. Singular conditioning blocks go
    through the symmetric generalized inverse. Conditioning on every
    variable returns an (n, 0) array.
    """
    rng = np.random.default_rng(seed)
    u_idx, r_idx = _index_split(inp.p, u)
    x_u = np.asarray(x_u, dtype=float).reshape(-1)
    if x_u.size != u_idx.size:
        raise ValueError(f"x_u has length {x_u.size}, expected {u_idx.size}")
    _, coef, factor = conditional.conditional_parts(inp.gamma, u_idx[None])
    mean = inp.mu[r_idx] + (x_u - inp.mu[u_idx]) @ coef[0]
    return mean + rng.standard_normal((n, r_idx.size)) @ factor[0].T


def double_mc_cond_var(model: BlackBoxModel, inp: GaussianInput,
                       u: Sequence[int], n_outer: int, n_inner: int,
                       seed) -> float:
    """Nested Monte Carlo estimate of the mean conditional output variance.

    Draws ``n_outer`` values of the conditioning variables, then for each
    one the unbiased sample variance of the model over ``n_inner``
    conditional draws of the remaining variables; returns the outer mean.
    Conditioning on the full set costs nothing and is exactly 0.
    """
    if n_inner < 2:
        raise ValueError("n_inner must be >= 2 for a sample variance")
    if n_outer < 1:
        raise ValueError("n_outer must be >= 1")
    p = inp.p
    u_idx, r_idx = _index_split(p, u)
    if r_idx.size == 0:
        return 0.0
    _, coef, factor = conditional.conditional_parts(inp.gamma, u_idx[None])
    points = np.empty((n_outer, n_inner, p))
    _draw(inp, u_idx, r_idx, coef[0], factor[0], np.random.default_rng(seed),
          points)
    values = model(points.reshape(-1, p)).reshape(n_outer, n_inner)
    return float(np.mean(np.var(values, axis=1, ddof=1)))


def _check_variance(var: float, what: str) -> float:
    if not np.isfinite(var):
        raise ModelValidationError(
            ValidationKind.NOT_FINITE,
            f"estimated output variance of {what} is {var}",
        )
    if var <= 0.0:
        raise ModelValidationError(
            ValidationKind.ZERO_OUTPUT_VARIANCE,
            f"estimated output variance of {what} is zero; it looks constant",
        )
    return var


def output_variance(model: BlackBoxModel, inp: GaussianInput, n: int, seed,
                    what: str = "the model") -> float:
    """Unbiased sample variance of the model output over ``n`` joint draws.

    Raises :class:`ModelValidationError` (``NotFinite`` or
    ``ZeroOutputVariance``) unless the estimate is finite and positive;
    ``what`` names the model in the message.
    """
    values = model(inp.sample(n, np.random.default_rng(seed)))
    with np.errstate(invalid="ignore", over="ignore"):
        var = float(np.var(values, ddof=1))
    return _check_variance(var, what)


#: Joint draws on which :func:`check_block_terms` compares the model with
#: the sum of its block terms.
ADDITIVITY_POINTS = 16


def check_block_terms(model: BlackBoxModel,
                      block_models: Sequence[BlackBoxModel],
                      partition: BlockPartition, inp: GaussianInput,
                      seed) -> None:
    """Check the preconditions of :func:`block_additive_shapley`.

    Every group of dependent inputs that :func:`detect_blocks` finds in
    ``inp.gamma`` must lie inside one block of ``partition``, and ``model``
    must equal the sum of ``block_models`` (aligned with
    ``partition.groups``) within ``1e-8 * (1 + |f(x)|)`` on
    ``ADDITIVITY_POINTS`` joint draws from ``seed``. Raises
    :class:`ModelValidationError` otherwise.
    """
    for group in detect_blocks(inp.gamma).groups:
        owners = np.unique(partition.group_of[np.asarray(group) - 1])
        if owners.size > 1:
            names = ", ".join(f"x{i}" for i in group)
            raise ModelValidationError(
                ValidationKind.DEPENDENT_BLOCKS,
                f"inputs {names} are dependent but split across "
                f"{owners.size} blocks",
            )
    x = inp.sample(ADDITIVITY_POINTS, np.random.default_rng(seed))
    f = model(x)
    terms = sum(bb(x[:, np.asarray(group) - 1])
                for bb, group in zip(block_models, partition.groups))
    bad = ~(np.abs(f - terms) <= 1e-8 * (1.0 + np.abs(f)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ModelValidationError(
            ValidationKind.NOT_ADDITIVE,
            f"f = {f[i]:.6g} but the block terms sum to {terms[i]:.6g} "
            f"at a sampled point",
        )


#: Smallest accepted sampling sizes; the two variance sizes need 2 draws
#: for a sample variance.
MC_MINIMUMS = {"m": 1, "n_var": 2, "n_outer": 1, "n_inner": 2}


@dataclass(frozen=True)
class McConfig:
    """Sampling sizes of the black-box estimator.

    ``m`` orderings, ``n_var`` samples for the output variance, and the
    nested loop sizes. Construction fails if a size is below its entry in
    ``MC_MINIMUMS`` or ``m * n_outer * n_inner`` exceeds ``budget``.
    """

    m: int
    n_var: int = 10_000
    n_outer: int = 100
    n_inner: int = 2
    seed: int = 0
    budget: int = 100_000_000

    def __post_init__(self):
        for name, minimum in MC_MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}")
        cost = self.m * self.n_outer * self.n_inner
        if cost > self.budget:
            raise BudgetExceededError(
                f"m * n_outer * n_inner = {cost} exceeds budget {self.budget}"
            )


def mc_shapley(model: BlackBoxModel, inp: GaussianInput, cfg: McConfig, *,
               var_y: float | None = None) -> PermutationEstimate:
    """Random-ordering Shapley estimate with nested-Monte-Carlo variances.

    The output variance is estimated once from ``cfg.n_var`` joint samples
    (or taken from ``var_y`` when the caller already has one) and anchors
    both ends of every telescoping chain, so the components sum to 1
    exactly. Every sampling stage has its own child seed, making the result
    independent of evaluation order: it equals one :func:`double_mc_cond_var`
    per ordering and step with those seeds.
    """
    p = model.p
    if inp.p != p:
        raise ValueError(f"input dimension {inp.p} does not match model p={p}")
    children = np.random.SeedSequence(cfg.seed).spawn(2 + cfg.m)
    if var_y is None:
        var_y = output_variance(model, inp, cfg.n_var, children[0])
    else:
        _check_variance(var_y, "the model")
    perm_rng = np.random.default_rng(children[1])
    m, n_outer, n_inner = cfg.m, cfg.n_outer, cfg.n_inner
    orders = np.array([perm_rng.permutation(p) for _ in range(m)])
    # The conditional law of each distinct prefix set, per prefix size.
    laws = [(where, sets, *conditional.conditional_parts(inp.gamma, sets))
            for sets, where in islice(conditional.prefix_sets(orders), p - 1)]
    v = np.zeros((m, p + 1))
    v[:, 0] = var_y
    # Whole orderings per chunk, at most BATCH_BYTES of points each; with
    # p = 1 there is no step to estimate.
    per_order = 8 * (p - 1) * n_outer * n_inner * p
    step = max(1, conditional.BATCH_BYTES // max(per_order, 1))
    for lo in range(0, m if p > 1 else 0, step):
        points = np.empty((min(step, m - lo), p - 1, n_outer, n_inner, p))
        for j, out in enumerate(points, lo):
            step_seeds = children[2 + j].spawn(p - 1)
            for (where, sets, rest, coef, factor), seed, pts in zip(
                    laws, step_seeds, out):
                i = where[j]
                _draw(inp, sets[i], rest[i], coef[i], factor[i],
                      np.random.default_rng(seed), pts)
        values = model(points.reshape(-1, p)).reshape(points.shape[:-1])
        v[lo:lo + len(points), 1:p] = np.var(values, axis=-1,
                                             ddof=1).mean(axis=-1)
    acc = ordering_gains(orders, v)
    return PermutationEstimate(
        shapley_hat=acc / (cfg.m * var_y), m=cfg.m, seed=cfg.seed,
    )


def block_additive_shapley(blocks: Sequence[tuple[BlackBoxModel, GaussianInput]],
                           cfg: McConfig,
                           partition: BlockPartition | None = None) -> np.ndarray:
    """Shapley effects of a sum of independent per-group functions.

    Each term's variance is estimated to form the group weights
    (renormalized to sum to 1), each group gets its own within-group
    estimate, and the two are combined; this never samples the full joint
    space. ``partition`` maps groups to global variable indices, defaulting
    to consecutive runs in the given order.
    """
    k = len(blocks)
    if k == 0:
        raise ValueError("need at least one block")
    sizes = [bb.p for bb, _ in blocks]
    for bb, gi in blocks:
        if gi.p != bb.p:
            raise ValueError("block model and input dimensions disagree")
    p = sum(sizes)
    if partition is None:
        start = np.cumsum([0] + sizes)
        partition = BlockPartition.from_groups(
            [range(start[j] + 1, start[j + 1] + 1) for j in range(k)], p
        )
    else:
        if partition.p != p or [len(g) for g in partition.groups] != sizes:
            raise ValueError("partition does not match the block dimensions")

    children = np.random.SeedSequence(cfg.seed).spawn(2 * k)
    variances = np.empty(k)
    for j, (bb, gi) in enumerate(blocks):
        variances[j] = output_variance(bb, gi, cfg.n_var, children[j],
                                       f"block {j}")
    weights = variances / variances.sum()

    group_estimates = []
    for j, (bb, gi) in enumerate(blocks):
        sub_cfg = replace(cfg, seed=int(children[k + j].generate_state(1)[0]))
        est = mc_shapley(bb, gi, sub_cfg, var_y=float(variances[j]))
        group_estimates.append(est.shapley_hat)
    return combine_block_shapley(weights, group_estimates, partition)
