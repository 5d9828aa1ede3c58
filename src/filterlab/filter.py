"""The filtering process: likelihoods, Bayes updates, and exact pushforwards.

One filter step maps a density ``x`` and an observation ``a`` to the
likelihood ``g(x, a)`` (mass surviving the stepping kernel) and the updated
density ``h(x, a)`` (that mass renormalized).  Because observation grids are
finite, the law of the filter after ``n`` steps started from a point is an
exactly enumerable weighted set of densities; this module materializes it and
evaluates the induced averaging operator on test functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded
from .measures import LipschitzFunction, PointMassMeasure
from .model import DensityVector, HmmModel, StateSpace, _check_space, _write_csv

# rows a search may hold, checked before each step builds them
ENUMERATION_BUDGET = 10**6
# (grid point, observation sequence) branches grid_averages steps at once
_GRID_BLOCK = 1 << 14


def _check_budget(rows: int, budget: int, what: str) -> None:
    """The one budget guard: the rows a search step would hold."""
    if rows > budget:
        raise BudgetExceeded(f"{what}: {rows} rows exceed budget {budget}")


def _check_horizon(n: int) -> None:
    """The one horizon guard: a step count below zero is refused by name."""
    if n < 0:
        raise ValueError("n must be nonnegative")


def _values(model: HmmModel, x: DensityVector) -> np.ndarray:
    _check_space(x.space, model.states, "density lives on a different state space")
    return x.values


def _masses(model: HmmModel, x: DensityVector) -> np.ndarray:
    return _values(model, x) * model.states.lambda_weights


def _cell_sum(v: np.ndarray):
    """Sum over the last (cell) axis, bit for bit as ``v.sum(axis=-1)``.

    Below 8 cells numpy's sum adds the cells left to right, so adding one
    cell at a time gives the same bits without a strided reduction (and one
    row is added in Python floats, without numpy's cost per call); from 8
    cells on numpy sums pairwise, and this calls it.
    """
    k = v.shape[-1]
    if k >= 8:
        return v.sum(axis=-1)
    if v.ndim == 1:
        total, *rest = v.tolist()
        for term in rest:
            total += term
        return total
    total = v[..., 0].copy()
    for j in range(1, k):
        total += v[..., j]
    return total


def _bayes_step(model: HmmModel, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of cell masses stepped by every observation, observation-major.

    Returns the likelihoods ``g[a, r]`` and the normalized updates
    ``post[a, r]`` as cell masses, both contiguous as the batched product
    writes them.  An update of zero likelihood keeps its row: this is the
    zero-likelihood convention of the whole package.
    """
    stepped = masses @ model.stepping_matrices
    g = _cell_sum(stepped)
    pos = g > 0.0
    if pos.all():
        stepped /= g[:, :, None]
    else:
        stepped /= np.where(pos, g, 1.0)[:, :, None]
        obs, row = np.nonzero(~pos)
        stepped[obs, row] = masses[row]
    return g, stepped


def _branch(model: HmmModel, masses: np.ndarray, weights: np.ndarray):
    """The children of positive weight of every weighted row, observation-major.

    Child ``a * rows + r`` is the update of row ``r`` by observation ``a``
    (:func:`_bayes_step`), of weight ``tau(a) * weights[r] * g[a, r]``.
    Returns the kept children's cell masses, their weights, and ``keep``,
    the boolean selector of the kept children among all ``|A| * rows``.
    When every child is kept, the masses are ``post.reshape(-1, k)``, a view.
    """
    g, post = _bayes_step(model, masses)
    children = post.reshape(-1, post.shape[2])
    w = (model.obs.tau_weights[:, None] * weights * g).ravel()
    keep = w > 0.0
    if keep.all():
        return children, w, keep
    return children[keep], w[keep], keep


def likelihood(model: HmmModel, x: DensityVector, a) -> float:
    """Mass surviving the stepping kernel of ``a``: the observation density.

    Against the tau weights these integrate to one over the observation grid.
    """
    return float(observation_law(model, x)[model.obs.index(a)])


def observation_law(model: HmmModel, x: DensityVector) -> np.ndarray:
    """All likelihoods at once: g(x, a) for every observation cell a."""
    return _bayes_step(model, _masses(model, x)[None, :])[0][:, 0]


def update(model: HmmModel, x: DensityVector, a) -> DensityVector:
    """Normalized Bayes update; a zero-likelihood observation returns x itself."""
    values, zero_steps = _filter_values(model, x, [a])
    return x if zero_steps else DensityVector(model.states, values[1])


def pushforward(model: HmmModel, x: DensityVector) -> PointMassMeasure:
    """Exact one-step law of the filter started at ``x``.

    One atom per observation with positive likelihood, carrying weight
    ``g(x, a) * tau(a)``; the weights sum to one.
    """
    return pushforward_n(model, x, 1)


@dataclass(frozen=True)
class PushforwardNode:
    """One observation sequence in the exact n-step enumeration."""

    obs_sequence: tuple
    point: DensityVector
    weight: float


def pushforward_nodes(model: HmmModel, x: DensityVector, n: int,
                      budget: int = ENUMERATION_BUDGET) -> list[PushforwardNode]:
    """Unmerged n-step enumeration in lexicographic sequence order.

    Each level branches every surviving sequence by every observation, so
    the budget bounds ``|A|**n``, the sequences this enumeration holds.
    Zero-likelihood sequences carry zero weight, so they are omitted.  The
    levels keep :func:`_branch`'s observation-major order; one lexsort
    after the last level lists the sequences lexicographically.
    """
    _check_horizon(n)
    _check_budget(model.n_obs**n, budget, f"|A|^n = {model.n_obs}**{n} sequences")
    masses = _masses(model, x)[None, :]
    weights = np.ones(1)
    seqs = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):
        masses, weights, keep = _branch(model, masses, weights)
        obs = np.repeat(np.arange(model.n_obs), len(seqs))
        seqs = np.column_stack([np.tile(seqs, (model.n_obs, 1)), obs])[keep]
    if n:  # lexsort refuses an empty list of keys
        order = np.lexsort(seqs.T[::-1])
        masses, weights, seqs = masses[order], weights[order], seqs[order]
    cells = model.obs.cells
    return [PushforwardNode(tuple(cells[i] for i in seq),
                            DensityVector.from_masses(model.states, m), float(w))
            for m, w, seq in zip(masses, weights, seqs)]


def filter_laws(model: HmmModel, x: DensityVector, n_max: int, prune_eps: float = 0.0,
                budget: int = ENUMERATION_BUDGET) -> Iterator[PointMassMeasure]:
    """Exact filter laws of the horizons 0, 1, ..., n_max, merged at each one.

    Steps the merged frontier one observation at a time: every atom is
    advanced by every observation, weighted by its likelihood times the tau
    mass, and the result is merged before the next step, so atoms that meet
    are stepped once.  The children of positive weight pass the sign check
    and go to the merge in :func:`_branch`'s observation-major order: a
    merged law is the same bytes under any input order (:func:`merge_atoms`),
    so the laws equal those merged from (atom, observation) order.
    ``prune_eps`` drops merged atoms of weight below it from horizon one on;
    the dropped mass accumulates in ``pruned_mass``.  The budget bounds each
    step's children, merged atoms times ``|A|``, checked before it builds them.
    """
    _check_horizon(n_max)
    masses = _masses(model, x)[None, :]
    weights = np.array([1.0])
    pruned = 0.0
    for n in range(n_max + 1):
        if n:
            _check_budget(len(weights) * model.n_obs, budget, f"filter-law step {n}")
            masses, weights, _ = _branch(model, masses, weights)
        law = PointMassMeasure.from_masses(model.states, masses, weights,
                                           pruned_mass=pruned).merged()
        if n and prune_eps > 0.0:
            keep = law.weights >= prune_eps
            if not keep.any():
                raise BudgetExceeded("pruning removed all mass; lower prune_eps")
            pruned += float(law.weights[~keep].sum())
            law = PointMassMeasure._of_gated(model.states, law.mass_matrix()[keep],
                                             law.weights[keep], pruned_mass=pruned)
        yield law
        masses, weights = law.mass_matrix(), law.weights


def pushforward_n(model: HmmModel, x: DensityVector, n: int,
                  prune_eps: float = 0.0,
                  budget: int = ENUMERATION_BUDGET) -> PointMassMeasure:
    """Exact n-step filter law: the last law :func:`filter_laws` yields."""
    for law in filter_laws(model, x, n, prune_eps, budget):
        pass
    return law


def mass_functional(model_or_space, cells, name: str = "") -> LipschitzFunction:
    """u(x) = x(F): the mass a density gives to a fixed cell subset.

    Lipschitz constant one half, sup norm one.
    """
    space = getattr(model_or_space, "states", model_or_space)
    mask = space.mask(cells)
    return LipschitzFunction(
        fn=lambda masses: masses[..., mask].sum(axis=-1),
        gamma=0.5, sup_norm=1.0, name=name or f"mass_of({cells})",
    )


def _dirichlet_pairs(k: int, count: int, seed: int):
    """Seeded flat-Dirichlet mass pairs on ``k`` cells, kept with their TV if above 1e-9."""
    rng = np.random.default_rng(seed)
    xs = rng.dirichlet(np.ones(k), size=count)
    ys = rng.dirichlet(np.ones(k), size=count)
    tv = np.abs(xs - ys).sum(axis=1)
    keep = tv > 1e-9
    return xs[keep], ys[keep], tv[keep]


def estimate_gamma(fn, space, samples: int = 2000, seed: int = 0) -> float:
    """Sampled lower bound on the Lipschitz constant of a user function.

    Draws random density pairs and returns the largest observed ratio
    ``|u(x) - u(y)| / ||x - y||``.  This is a lower bound only; supply the
    analytic constant when one is known.
    """
    xs, ys, tv = _dirichlet_pairs(space.n, samples, seed)
    vals = np.abs(np.asarray(fn(xs)) - np.asarray(fn(ys)))
    return float((vals / tv).max()) if len(tv) else 0.0


def lipschitz_function_from(fn, space, sup_norm: float, samples: int = 2000,
                            seed: int = 0, name: str = "") -> LipschitzFunction:
    """Wrap a user function with an estimated (lower-bound) constant."""
    return LipschitzFunction(fn=fn, gamma=estimate_gamma(fn, space, samples, seed),
                             sup_norm=sup_norm, name=name or "user_function")


def apply_T(model: HmmModel, u: LipschitzFunction, x: DensityVector, n: int,
            budget: int = ENUMERATION_BUDGET) -> float:
    """n-fold averaging operator: expectation of u under the n-step filter law."""
    return u.expectation(pushforward_n(model, x, n, budget=budget))


def grid_averages(model: HmmModel, u_list, masses_grid: np.ndarray,
                  n_max: int) -> np.ndarray:
    """Averaging operators of every horizon 0..n_max on a grid of start masses.

    Returns ``out[n, i, j]``, the n-fold average of ``u_list[i]`` at grid
    point ``j``.  Steps blocks of grid points level by level, one batched
    product per level over every (grid point, observation sequence) branch,
    and evaluates every function on each level's branches (the grid itself
    at level 0), so each branch is stepped once; no function gives an
    ``(n_max + 1, 0, len(grid))`` array.  A block holds about
    ``_GRID_BLOCK`` branches at the last level, so no array over the whole
    grid times all ``|A|**n_max`` sequences is built; zero-likelihood
    branches contribute nothing.  The budget bounds a block's branches at
    the last level, ``|A|**n_max`` per grid point, and is checked before the
    block is stepped.  Each branch carries its grid point's index through
    :func:`_branch`'s observation-major levels, and one ``bincount`` per
    level and function sums the branches of each grid point.
    """
    _check_horizon(n_max)
    grid = np.atleast_2d(np.asarray(masses_grid, dtype=float))
    out = np.zeros((n_max + 1, len(u_list), len(grid)))
    size = max(1, _GRID_BLOCK // model.n_obs**n_max)
    for s in range(0, len(grid), size):
        block = grid[s:s + size]
        _check_budget(len(block) * model.n_obs**n_max, ENUMERATION_BUDGET,
                      f"{len(block)} grid points times |A|^n = {model.n_obs}**{n_max}")
        masses, weights, root = block, np.ones(len(block)), np.arange(len(block))
        for n in range(n_max + 1):
            if n:
                masses, weights, keep = _branch(model, masses, weights)
                root = np.tile(root, model.n_obs)[keep]
            for i, u in enumerate(u_list):
                out[n, i, s:s + size] = np.bincount(root, weights * u.on_masses(masses),
                                                    minlength=len(block))
    return out


def apply_T_grid(model: HmmModel, u: LipschitzFunction, masses_grid: np.ndarray,
                 n: int) -> np.ndarray:
    """Averaging operator evaluated on a whole grid of start masses at once.

    The horizon-n row of :func:`grid_averages` for the single function ``u``.
    """
    return grid_averages(model, [u], masses_grid, n)[n, 0]


@dataclass(eq=False)
class FilterTrajectory:
    """Filter states along an observation sequence.

    ``values[k]`` holds the density values of the state after ``k``
    observations, ``values[0]`` the start; ``zero_likelihood_steps`` lists the
    indices where the observation had zero likelihood and the convention
    "keep the current density" was applied.
    """

    observations: tuple
    values: np.ndarray
    space: StateSpace
    zero_likelihood_steps: list[int] = field(default_factory=list)

    @cached_property
    def states(self) -> list[DensityVector]:
        """The rows of ``values`` as validated densities, built on first read."""
        return [DensityVector(self.space, row) for row in self.values]

    def to_csv(self, path) -> None:
        cells = ",".join(str(c) for c in self.space.cells)
        obs = ["", *self.observations]
        _write_csv(path, f"step,observation,{cells}",
                   ([k, obs[k], *row] for k, row in enumerate(self.values.tolist())))


def _filter_values(model: HmmModel, x: DensityVector, obs_seq: Sequence
                   ) -> tuple[np.ndarray, list[int]]:
    """The sequential Bayes recursion on plain density values.

    Row ``k`` of the returned array is the density after ``k`` observations.
    Each step is the arithmetic of :func:`_bayes_step` for the one observed
    cell: masses ``y * lambda`` times its stepping matrix, divided by their sum
    ``g``, divided by lambda.  A step with ``g = 0`` keeps the previous row and
    is listed in the returned zero-likelihood steps.
    """
    lam = model.states.lambda_weights
    mats = model.stepping_matrices
    y = _values(model, x)
    obs_idx = [model.obs.index(a) for a in obs_seq]
    values = np.empty((len(obs_idx) + 1, model.n_states))
    values[0] = y
    zero_steps = []
    for k, i in enumerate(obs_idx, 1):
        v = (y * lam) @ mats[i]
        g = _cell_sum(v)
        if g > 0.0:
            y = v / g / lam
        else:
            zero_steps.append(k)
        values[k] = y
    values.setflags(write=False)
    return values, zero_steps


def run_filter(model: HmmModel, x0: DensityVector, obs_seq: Sequence
               ) -> FilterTrajectory:
    """Sequential Bayes updates along a fixed observation sequence."""
    values, zero_steps = _filter_values(model, x0, obs_seq)
    return FilterTrajectory(tuple(obs_seq), values, model.states, zero_steps)


@dataclass
class LipschitzProbeReport:
    """Observed smoothing ratios of the averaging operator on sampled pairs.

    ``max_ratio[n]`` is the largest ``|T^n u(x) - T^n u(y)| / ||x - y||``
    seen.  ``uniform_bound`` (three times the declared Lipschitz constant)
    holds at every horizon; ``one_step_bound`` additionally caps n = 1.
    """

    gamma_u: float
    sup_norm_u: float
    max_ratio: dict[int, float]
    one_step_bound: float
    uniform_bound: float

    @property
    def one_step_ok(self) -> bool:
        r = self.max_ratio.get(1)
        return r is None or r <= self.one_step_bound + 1e-9

    @property
    def uniform_ok(self) -> bool:
        return all(r <= self.uniform_bound + 1e-9 for r in self.max_ratio.values())


def lipschitz_probe(model: HmmModel, u: LipschitzFunction, n: int,
                    sample_pairs: int = 200, seed: int = 0) -> LipschitzProbeReport:
    """Probe the equicontinuity of the averaging operator on random pairs.

    Reports the empirical maximum ratio per horizon up to ``n``; downstream
    checks compare it against the one-step bound ``sup_norm + 2 gamma`` and
    the uniform bound ``3 gamma``.  A probe of no pair or no horizon is refused.
    """
    if sample_pairs < 1:
        raise ValueError("sample_pairs must be positive")
    if n == 0:
        raise ValueError("n = 0 probes no horizon")
    xs, ys, tv = _dirichlet_pairs(model.n_states, sample_pairs, seed)
    if not len(tv):
        raise ValueError("sampled no pair of distinct densities (one cell has one density)")
    tx, ty = np.split(grid_averages(model, [u], np.vstack([xs, ys]), n)[:, 0], 2, axis=1)
    return LipschitzProbeReport(
        gamma_u=u.gamma,
        sup_norm_u=u.sup_norm,
        max_ratio=dict(enumerate((np.abs(tx[1:] - ty[1:]) / tv).max(axis=1).tolist(), 1)),
        one_step_bound=u.sup_norm + 2.0 * u.gamma,
        uniform_bound=3.0 * u.gamma,
    )
