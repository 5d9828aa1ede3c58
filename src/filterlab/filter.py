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
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, SpaceMismatch
from .measures import PointMassMeasure
from .model import DensityVector, HmmModel, _write_csv

# rows a search may hold, checked before each step builds them
ENUMERATION_BUDGET = 10**6
# (grid point, observation sequence) branches grid_averages steps at once
_GRID_BLOCK = 1 << 14


def _check_budget(rows: int, budget: int, what: str) -> None:
    """The one budget guard: the rows a search step would hold."""
    if rows > budget:
        raise BudgetExceeded(f"{what}: {rows} rows exceed budget {budget}")


def _masses(model: HmmModel, x: DensityVector) -> np.ndarray:
    if not x.space.same_as(model.states):
        raise SpaceMismatch("density lives on a different state space")
    return x.masses


def _bayes_step(model: HmmModel, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of cell masses stepped by every observation.

    Returns the likelihoods ``g[r, a]`` and the normalized updates
    ``post[r, a]`` as cell masses.  An update of zero likelihood keeps its
    row: this is the zero-likelihood convention of the whole package.
    """
    stepped = (masses @ model.stepping_matrices).transpose(1, 0, 2)
    g = stepped.sum(axis=2)
    pos = g > 0.0
    post = np.where(pos[:, :, None], stepped / np.where(pos, g, 1.0)[:, :, None],
                    masses[:, None, :])
    return g, post


def _branch(model: HmmModel, masses: np.ndarray, weights: np.ndarray):
    """Children of weighted rows in (row, observation) order, weights w * tau * g.

    Children of zero weight are dropped.  Returns their cell masses, their
    weights, and each child's parent row and observation index.
    """
    g, post = _bayes_step(model, masses)
    w = weights[:, None] * model.obs.tau_weights * g
    parent, obs = np.nonzero(w > 0.0)
    return post[parent, obs], w[parent, obs], parent, obs


def likelihood(model: HmmModel, x: DensityVector, a) -> float:
    """Mass surviving the stepping kernel of ``a``: the observation density.

    Against the tau weights these integrate to one over the observation grid.
    """
    return float(observation_law(model, x)[model.obs.index(a)])


def observation_law(model: HmmModel, x: DensityVector) -> np.ndarray:
    """All likelihoods at once: g(x, a) for every observation cell a."""
    return _bayes_step(model, _masses(model, x)[None, :])[0][0]


def update(model: HmmModel, x: DensityVector, a) -> DensityVector:
    """Normalized Bayes update; a zero-likelihood observation returns x itself."""
    g, post = _bayes_step(model, _masses(model, x)[None, :])
    i = model.obs.index(a)
    return x if g[0, i] <= 0.0 else DensityVector.from_masses(model.states, post[0, i])


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
    Zero-likelihood sequences carry zero weight, so they are omitted.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_budget(model.n_obs**n, budget, f"|A|^n = {model.n_obs}**{n} sequences")
    masses = _masses(model, x)[None, :]
    weights = np.ones(1)
    seqs = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):
        masses, weights, parent, obs = _branch(model, masses, weights)
        seqs = np.column_stack([seqs[parent], obs])
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
    are stepped once.  ``prune_eps`` drops merged atoms of weight below it
    from horizon one on; the dropped mass accumulates in ``pruned_mass``.
    The budget bounds the children of each step, merged atoms times ``|A|``,
    and is checked before the step builds them.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    masses = _masses(model, x)[None, :]
    weights = np.array([1.0])
    pruned = 0.0
    for n in range(n_max + 1):
        if n:
            _check_budget(len(weights) * model.n_obs, budget, f"filter-law step {n}")
            masses, weights, _, _ = _branch(model, masses, weights)
        law = PointMassMeasure(model.states, masses / model.states.lambda_weights,
                               weights, pruned_mass=pruned).merged()
        if n and prune_eps > 0.0:
            keep = law.weights >= prune_eps
            if not keep.any():
                raise BudgetExceeded("pruning removed all mass; lower prune_eps")
            pruned += float(law.weights[~keep].sum())
            law = PointMassMeasure(model.states, law.points[keep],
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


@dataclass(frozen=True)
class LipschitzFunction:
    """Bounded test function on K with declared Lipschitz data.

    ``fn`` maps an array of cell-mass vectors with shape ``(..., n_cells)``
    to values of shape ``(...)``; ``gamma`` and ``sup_norm`` are the declared
    Lipschitz constant (against total variation) and sup norm.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    gamma: float
    sup_norm: float
    name: str = ""

    def __call__(self, x) -> float:
        masses = x.masses if isinstance(x, DensityVector) else np.asarray(x)
        return float(self.fn(masses))

    def on_masses(self, masses: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(masses), dtype=float)


def mass_functional(model_or_space, cells, name: str = "") -> LipschitzFunction:
    """u(x) = x(F): the mass a density gives to a fixed cell subset.

    Lipschitz constant one half, sup norm one.
    """
    space = getattr(model_or_space, "states", model_or_space)
    mask = cells if isinstance(cells, np.ndarray) else space.mask(cells)
    return LipschitzFunction(
        fn=lambda masses: masses[..., mask].sum(axis=-1),
        gamma=0.5, sup_norm=1.0, name=name or f"mass_of({cells})",
    )


def estimate_gamma(fn, space, samples: int = 2000, seed: int = 0) -> float:
    """Sampled lower bound on the Lipschitz constant of a user function.

    Draws random density pairs and returns the largest observed ratio
    ``|u(x) - u(y)| / ||x - y||``.  This is a lower bound only; supply the
    analytic constant when one is known.
    """
    rng = np.random.default_rng(seed)
    xs = rng.dirichlet(np.ones(space.n), size=samples)
    ys = rng.dirichlet(np.ones(space.n), size=samples)
    tv = np.abs(xs - ys).sum(axis=1)
    keep = tv > 1e-9
    vals = np.abs(np.asarray(fn(xs[keep])) - np.asarray(fn(ys[keep])))
    return float((vals / tv[keep]).max()) if keep.any() else 0.0


def lipschitz_function_from(fn, space, sup_norm: float, samples: int = 2000,
                            seed: int = 0, name: str = "") -> LipschitzFunction:
    """Wrap a user function with an estimated (lower-bound) constant."""
    return LipschitzFunction(fn=fn, gamma=estimate_gamma(fn, space, samples, seed),
                             sup_norm=sup_norm, name=name or "user_function")


def apply_T(model: HmmModel, u: LipschitzFunction, x: DensityVector, n: int,
            budget: int = ENUMERATION_BUDGET) -> float:
    """n-fold averaging operator: expectation of u under the n-step filter law."""
    law = pushforward_n(model, x, n, budget=budget)
    return float(law.weights @ u.on_masses(law.mass_matrix()))


def grid_averages(model: HmmModel, u_list, masses_grid: np.ndarray,
                  n_max: int) -> np.ndarray:
    """Averaging operators of every horizon 0..n_max on a grid of start masses.

    Returns ``out[n, i, j]``, the n-fold average of ``u_list[i]`` at grid
    point ``j``.  Steps blocks of grid points level by level, one batched
    product per level over every (grid point, observation sequence) branch,
    and evaluates every function on each level's branches, so each branch is
    stepped once.  A block holds about ``_GRID_BLOCK`` branches at the last
    level, so no array over the whole grid times all ``|A|**n_max``
    sequences is built; zero-likelihood branches contribute nothing.
    """
    grid = np.atleast_2d(np.asarray(masses_grid, dtype=float))
    out = np.zeros((n_max + 1, len(u_list), len(grid)))
    out[0] = [u.on_masses(grid) for u in u_list]
    size = max(1, _GRID_BLOCK // model.n_obs**n_max)
    for s in range(0, len(grid), size):
        block = grid[s:s + size]
        masses, weights, root = block, np.ones(len(block)), np.arange(len(block))
        for n in range(1, n_max + 1):
            masses, weights, parent, _ = _branch(model, masses, weights)
            root = root[parent]
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


@dataclass
class FilterTrajectory:
    """Filter states along an observation sequence.

    ``states[0]`` is the start; ``zero_likelihood_steps`` lists the indices
    where the observation had zero likelihood and the convention "keep the
    current density" was applied.
    """

    observations: tuple
    states: list[DensityVector]
    zero_likelihood_steps: list[int] = field(default_factory=list)

    def to_csv(self, path) -> None:
        cells = ",".join(str(c) for c in self.states[0].space.cells)
        obs = ["", *self.observations]
        _write_csv(path, f"step,observation,{cells}",
                   ([k, obs[k], *state.values] for k, state in enumerate(self.states)))


def run_filter(model: HmmModel, x0: DensityVector, obs_seq: Sequence
               ) -> FilterTrajectory:
    """Sequential Bayes updates along a fixed observation sequence."""
    states = [x0]
    for a in obs_seq:
        states.append(update(model, states[-1], a))
    # update returns its input itself exactly when the likelihood is zero
    zero_steps = [k for k in range(1, len(states)) if states[k] is states[k - 1]]
    return FilterTrajectory(tuple(obs_seq), states, zero_steps)


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
    the uniform bound ``3 gamma``.
    """
    rng = np.random.default_rng(seed)
    k = model.n_states
    xs = rng.dirichlet(np.ones(k), size=sample_pairs)
    ys = rng.dirichlet(np.ones(k), size=sample_pairs)
    tv = np.abs(xs - ys).sum(axis=1)
    keep = tv > 1e-9
    xs, ys, tv = xs[keep], ys[keep], tv[keep]
    tx = grid_averages(model, [u], xs, n)[:, 0]
    ty = grid_averages(model, [u], ys, n)[:, 0]
    max_ratio: dict[int, float] = {}
    for horizon in range(1, n + 1):
        ratios = np.abs(tx[horizon] - ty[horizon]) / tv
        max_ratio[horizon] = float(ratios.max()) if len(ratios) else 0.0
    return LipschitzProbeReport(
        gamma_u=u.gamma,
        sup_norm_u=u.sup_norm,
        max_ratio=max_ratio,
        one_step_bound=u.sup_norm + 2.0 * u.gamma,
        uniform_bound=3.0 * u.gamma,
    )
