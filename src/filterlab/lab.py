"""End-to-end ergodicity experiments and the worked example builders.

Every report embeds the enumeration error budget (pruned mass) and the
tolerances used, so a reader can audit exactly what was computed.  Decay
rates are least-squares fits on log values over the last half of a horizon
and are reported with their residual, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import _fit_rate, check_condition_P
from .filter import ENUMERATION_BUDGET, filter_laws, grid_averages
from .measures import kantorovich
from .model import (
    DensityVector,
    HmmModel,
    _write_csv,
    partition_model,
    product_model,
    stationary,
)


def example_partition(p, partition, state_ids=None) -> HmmModel:
    """Model observing which partition block the chain entered.

    The observation masks the landing state to one block: informative exactly
    to the resolution of the partition.  Requires a true partition (disjoint
    blocks covering every state).
    """
    return partition_model(p, partition, state_ids=state_ids)


@dataclass
class PartitionHypothesisReport:
    """Which blocks support the weak-ergodicity argument for a partition model.

    A block qualifies when the chain's transition density is pinched between
    positive constants on the block times itself and the block carries
    stationary mass.
    """

    candidates: list
    stationary_ok: bool

    @property
    def ok(self) -> bool:
        return self.stationary_ok and len(self.candidates) > 0


def partition_hypothesis_report(model: HmmModel) -> PartitionHypothesisReport:
    """Auto-check the block-positivity hypotheses for every observation."""
    pi, erg = stationary(model)
    candidates = []
    for a_idx, a in enumerate(model.obs.cells):
        mask = model.m[:, :, a_idx].max(axis=0) > 0
        block = model.p[np.ix_(mask, mask)]
        pi_mass = pi.mass_of(mask)
        if pi_mass > 0 and block.size and block.min() > 0:
            candidates.append({
                "observation": a,
                "d0": float(block.min()),
                "D0": float(block.max()),
                "pi_mass": float(pi_mass),
            })
    return PartitionHypothesisReport(candidates=candidates,
                                     stationary_ok=erg.ergodic)


def example_product(p, q, tau_weights=None, state_ids=None, obs_ids=None
                    ) -> HmmModel:
    """Model with emissions depending only on the landing state."""
    return product_model(p, q, tau_weights=tau_weights, state_ids=state_ids,
                         obs_ids=obs_ids)


def product_hypothesis_check(model: HmmModel, F0, B0):
    """Wire a candidate (F0, B0) for a product-form model to the block checker."""
    pi, _ = stationary(model)
    return check_condition_P(model, pi, F0, B0)


def periodic_control_model() -> HmmModel:
    """Negative control: two-cycle chain with an uninformative observation.

    The underlying chain flips deterministically between its two states and
    the single observation carries no information, so the filter is the
    deterministic two-cycle itself: diagnostics must NOT report decay here.
    """
    return partition_model([[0.0, 1.0], [1.0, 0.0]], [[1, 2]])


# ---------------------------------------------------------------------------
# evaluation grids


def simplex_grid(space, step: float | None = None, seed: int = 0,
                 mc_points: int = 512) -> np.ndarray:
    """Mass-vector grid over the simplex of a state space.

    Regular mesh for two and three cells, seeded Dirichlet samples above
    (the exact sup over the simplex is unattainable there anyway).
    """
    k = space.n
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        h = 0.02 if step is None else step
        t = np.arange(0.0, 1.0 + h / 2, h)
        t = np.clip(t, 0.0, 1.0)
        return np.column_stack([t, 1.0 - t])
    if k == 3:
        h = 0.05 if step is None else step
        pts = []
        steps = int(round(1.0 / h))
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                a, b = i * h, j * h
                pts.append([a, b, max(0.0, 1.0 - a - b)])
        return np.asarray(pts)
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(k), size=mc_points)


# ---------------------------------------------------------------------------
# experiments


@dataclass
class WeakContractionReport:
    """Exact transport distances between two filter laws per horizon.

    ``distances[i, n-1]`` is the distance between the n-step laws of pair
    ``i``; ``lower_bounds`` the barycenter floor it can never undercut.
    """

    pairs: list
    n_max: int
    distances: np.ndarray
    lower_bounds: np.ndarray
    rates: list
    pruned_mass: float
    prune_eps: float

    @property
    def floor_ok(self) -> bool:
        return bool(np.all(self.distances >= self.lower_bounds - 1e-9))

    def to_csv(self, path) -> None:
        _write_csv(path, "pair,n,distance,lower_bound",
                   ((i, n, self.distances[i, n - 1], self.lower_bounds[i, n - 1])
                    for i in range(len(self.pairs)) for n in range(1, self.n_max + 1)))


def weak_contraction_report(model: HmmModel, pairs, n_max: int,
                            budget: int = ENUMERATION_BUDGET,
                            prune_eps: float = 0.0) -> WeakContractionReport:
    """Track how the filter laws of paired starts merge in transport distance."""
    P = model.markov_matrix
    dists = np.zeros((len(pairs), n_max))
    floors = np.zeros_like(dists)
    pruned = 0.0
    rates = []
    for i, (x, y) in enumerate(pairs):
        xm, ym = x.masses, y.masses
        laws = zip(filter_laws(model, x, n_max, prune_eps, budget),
                   filter_laws(model, y, n_max, prune_eps, budget))
        next(laws)  # horizon zero: the two starts themselves
        for n, (mu, nu) in enumerate(laws, start=1):
            pruned = max(pruned, mu.pruned_mass + nu.pruned_mass)
            dists[i, n - 1], _ = kantorovich(mu, nu)
            xm, ym = xm @ P, ym @ P
            floors[i, n - 1] = np.abs(xm - ym).sum()
        rates.append(_fit_rate(dists[i]))
    return WeakContractionReport(pairs=list(pairs), n_max=n_max,
                                 distances=dists, lower_bounds=floors,
                                 rates=rates, pruned_mass=pruned,
                                 prune_eps=prune_eps)


@dataclass
class OscDecayReport:
    """Oscillation of iterated averages of test functions over a grid.

    ``oscillations[u][n]`` is max minus min of the n-fold average of test
    function ``u`` over the evaluation grid; row 0 is the raw function.
    """

    names: list
    n_max: int
    oscillations: np.ndarray
    monotone_ok: bool
    rates: list
    decay_detected: list
    grid_points: int
    decay_ratio: float = 0.5

    def to_csv(self, path) -> None:
        _write_csv(path, "function,n,oscillation",
                   ((name, n, osc) for name, row in zip(self.names, self.oscillations)
                    for n, osc in enumerate(row)))


def osc_decay_report(model: HmmModel, u_list, n_max: int,
                     grid: np.ndarray | None = None) -> OscDecayReport:
    """Measure the oscillation decay of iterated averages on a grid.

    A plateau (final oscillation above ``OscDecayReport.decay_ratio``, a
    half, times the initial one) is flagged as no-decay; periodic fixtures
    must trip that flag.
    """
    if grid is None:
        grid = simplex_grid(model.states)
    vals = grid_averages(model, u_list, grid, n_max)
    osc = (vals.max(axis=2) - vals.min(axis=2)).T
    monotone_ok = bool(np.all(osc[:, 1:] <= osc[:, :-1] + 1e-12))
    rates = [_fit_rate(row) for row in osc]
    decay = [bool(row[-1] <= OscDecayReport.decay_ratio * row[0] + 1e-15) for row in osc]
    names = [u.name or f"u{i}" for i, u in enumerate(u_list)]
    return OscDecayReport(names=names, n_max=n_max, oscillations=osc,
                          monotone_ok=monotone_ok, rates=rates,
                          decay_detected=decay, grid_points=len(grid))


def barycenter_identity_check(model: HmmModel, starts, n_max: int,
                              budget: int = ENUMERATION_BUDGET) -> float:
    """Worst residual of "filter-law mean equals chain marginal" over starts.

    The mean of the exact n-step filter law must reproduce the n-step state
    marginal; both sides are computed independently.
    """
    P = model.markov_matrix
    worst = 0.0
    for x in starts:
        marginal = x.masses.copy()
        for law in filter_laws(model, x, n_max, budget=budget):
            worst = max(worst, float(np.abs(law.barycenter_masses() - marginal).sum()))
            marginal = marginal @ P
    return worst


@dataclass
class TightnessReport:
    """Mass the n-step filter law keeps near a probe center, per start."""

    center: DensityVector
    epsilon: float
    n_max: int
    masses: np.ndarray
    liminf_estimate: float
    pruned_mass: float

    def to_csv(self, path) -> None:
        _write_csv(path, "start,n,ball_mass",
                   ((i, n, m) for i, row in enumerate(self.masses)
                    for n, m in enumerate(row)))


def tightness_probe(model: HmmModel, x0: DensityVector, epsilon: float,
                    starts, n_max: int, budget: int = ENUMERATION_BUDGET
                    ) -> TightnessReport:
    """Exact mass of each n-step filter law in the ball around ``x0``.

    The liminf estimate is the smallest tail-half value across all starts;
    a positive value is tightness evidence for the probed horizon.
    """
    masses = np.zeros((len(starts), n_max + 1))
    pruned = 0.0
    for i, x in enumerate(starts):
        for n, law in enumerate(filter_laws(model, x, n_max, budget=budget)):
            pruned = max(pruned, law.pruned_mass)
            masses[i, n] = law.mass_in_ball(x0, epsilon)
    tail = masses[:, (n_max + 1) // 2:]
    return TightnessReport(center=x0, epsilon=epsilon, n_max=n_max,
                           masses=masses,
                           liminf_estimate=float(tail.min()),
                           pruned_mass=pruned)


def restricted_perron_density(model: HmmModel, F0, observation) -> DensityVector:
    """Attracting density of the stepping kernel restricted to a block.

    Left Perron direction of the block of the stepping matrix on F0; the
    normalized filter iterates under repeated such observations converge to
    it, which makes it a natural tightness-probe center.
    """
    mask = F0 if isinstance(F0, np.ndarray) else model.states.mask(F0)
    idx = np.nonzero(mask)[0]
    block = model.stepping_matrix(observation)[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eig(block.T)
    lead = int(np.argmax(vals.real))
    vec = np.abs(vecs[:, lead].real)
    masses = np.zeros(model.n_states)
    masses[idx] = vec / vec.sum()
    return DensityVector.from_masses(model.states, masses)
