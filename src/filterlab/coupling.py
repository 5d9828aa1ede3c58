"""Couplings of observation laws and of filter laws.

The observation coupling puts the common mass ``min(g(x,a), g(y,a)) tau(a)``
on the diagonal and couples the two excess parts by their normalized product,
which is the maximal-diagonal coupling of the two observation laws.  Feeding
the coupled observations through the two Bayes updates yields a coupling of
the one-step filter laws; iterating from a product start couples the n-step
laws of two initial measures and measures how much of the joint mass has
pulled within a prescribed total-variation distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BarycenterMismatch, SpaceMismatch
from .filter import ENUMERATION_BUDGET, _bayes_step, _check_budget, observation_law
from .measures import (MARGINAL_TOL, MERGE_TOL, PointMassMeasure, barycenter,
                       merge_atoms, tv_distance)
from .model import DensityVector, HmmModel


@dataclass
class ObsCoupling:
    """Coupling of the observation laws of two filter states.

    ``diagonal[a]`` is the mass on the pair (a, a); ``off_source``,
    ``off_target`` and ``off_mass`` list the cross pairs.  Marginals
    reproduce ``g(x, .) tau`` and ``g(y, .) tau`` exactly, and the diagonal
    carries all the mass the two laws share.
    """

    obs_cells: tuple
    diagonal: np.ndarray
    off_source: np.ndarray
    off_target: np.ndarray
    off_mass: np.ndarray
    g_x: np.ndarray
    g_y: np.ndarray
    tau: np.ndarray

    @property
    def diagonal_mass(self) -> float:
        return float(self.diagonal.sum())

    @property
    def total_mass(self) -> float:
        return self.diagonal_mass + float(self.off_mass.sum())

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        row = self.diagonal.copy()
        col = self.diagonal.copy()
        np.add.at(row, self.off_source, self.off_mass)
        np.add.at(col, self.off_target, self.off_mass)
        return row, col

    def marginal_residual(self) -> float:
        row, col = self.marginals()
        return float(max(np.abs(row - self.g_x * self.tau).max(),
                         np.abs(col - self.g_y * self.tau).max()))

    def diagonal_mass_on(self, obs_subset) -> float:
        mask = np.zeros(len(self.obs_cells), dtype=bool)
        for a in obs_subset:
            mask[self.obs_cells.index(a)] = True
        return float(self.diagonal[mask].sum())


def _obs_couplings(model: HmmModel, gx: np.ndarray, gy: np.ndarray):
    """Maximal-diagonal couplings of the observation laws with likelihoods gx, gy.

    Takes the likelihoods of two stacks of densities (rows x |A|) and returns
    the diagonal masses (rows x |A|) and the excess products (rows x |A| x
    |A|), zero on the diagonal: only one law exceeds.
    """
    tau = model.obs.tau_weights
    common = np.minimum(gx, gy)
    ex, ey = (gx - common) * tau, (gy - common) * tau
    # a zero total excess leaves ex all zero, so any positive divisor does
    excess = ex.sum(axis=1)
    excess = np.where(excess > 0.0, excess, 1.0)[:, None, None]
    return common * tau, ex[:, :, None] * ey[:, None, :] / excess


def vasershtein_obs_coupling(model: HmmModel, x: DensityVector,
                             y: DensityVector) -> ObsCoupling:
    """Maximal-diagonal coupling of the observation laws of ``x`` and ``y``.

    The diagonal mass equals one minus half the total variation between the
    two observation laws; the leftover excesses are coupled by their product
    normalized by the total excess mass (purely diagonal when there is none).
    """
    gx, gy = observation_law(model, x), observation_law(model, y)
    diag, off = _obs_couplings(model, gx[None, :], gy[None, :])
    src, tgt = np.nonzero(off[0] > 0.0)
    return ObsCoupling(obs_cells=model.obs.cells, diagonal=diag[0], off_source=src,
                       off_target=tgt, off_mass=off[0][src, tgt], g_x=gx, g_y=gy,
                       tau=model.obs.tau_weights)


class JointFilterMeasure:
    """Finitely supported coupling of two filter laws.

    Atom ``k`` puts weight ``weights[k]`` on the pair of densities
    ``(x_points[k], y_points[k])``.
    """

    __slots__ = ("space", "x_points", "y_points", "weights", "pruned_mass")

    def __init__(self, space, x_points, y_points, weights, pruned_mass=0.0):
        self.space = space
        self.x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
        self.y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
        self.weights = np.asarray(weights, dtype=float)
        self.pruned_mass = float(pruned_mass)
        if self.x_points.shape != self.y_points.shape:
            raise ValueError("coupled point arrays must have equal shapes")
        if len(self.weights) != len(self.x_points):
            raise ValueError("one weight per coupled pair required")

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def marginal_x(self) -> PointMassMeasure:
        return PointMassMeasure(self.space, self.x_points, self.weights,
                                pruned_mass=self.pruned_mass).merged()

    def marginal_y(self) -> PointMassMeasure:
        return PointMassMeasure(self.space, self.y_points, self.weights,
                                pruned_mass=self.pruned_mass).merged()

    def pair_tv(self) -> np.ndarray:
        lam = self.space.lambda_weights[None, :]
        return np.abs(self.x_points * lam - self.y_points * lam).sum(axis=1)

    def mass_within(self, rho: float) -> float:
        """Joint mass on pairs closer than ``rho`` in total variation."""
        return float(self.weights[self.pair_tv() < rho].sum())

    def merged(self) -> "JointFilterMeasure":
        """Merge pairs whose two halves each lie within ``MERGE_TOL`` in TV."""
        stacked = np.hstack([self.x_points, self.y_points])
        points, weights = merge_atoms(stacked, self.weights, self.space.lambda_weights,
                                      MERGE_TOL, blocks=2)
        k = self.space.n
        return JointFilterMeasure(self.space, points[:, :k], points[:, k:],
                                  weights, pruned_mass=self.pruned_mass)


def _coupled_step(model: HmmModel, joint: JointFilterMeasure) -> JointFilterMeasure:
    """One unmerged coupled step of every pair; pairs of zero mass are dropped."""
    live = joint.weights > 0.0
    lam, w0 = model.states.lambda_weights, joint.weights[live]
    gx, hx = _bayes_step(model, joint.x_points[live] * lam)
    gy, hy = _bayes_step(model, joint.y_points[live] * lam)
    diag, w = _obs_couplings(model, gx, gy)
    w += diag[:, :, None] * np.eye(model.n_obs)  # the excess products vanish there
    pair, a, b = np.nonzero(w > 0.0)
    return JointFilterMeasure(model.states, hx[pair, a] / lam, hy[pair, b] / lam,
                              w[pair, a, b] * w0[pair])


def coupled_filter_step(model: HmmModel, x: DensityVector, y: DensityVector
                        ) -> JointFilterMeasure:
    """Push the observation coupling through both Bayes updates.

    Each marginal of the result is exactly the one-step filter law of the
    corresponding start.
    """
    return _coupled_step(model, JointFilterMeasure(model.states, x.values, y.values,
                                                   [1.0]))


def product_coupling(mu: PointMassMeasure, nu: PointMassMeasure
                     ) -> JointFilterMeasure:
    """Independent coupling of two point-mass measures on K."""
    if not mu.space.same_as(nu.space):
        raise SpaceMismatch("measures live on different state spaces")
    xs = np.repeat(mu.points, nu.n_atoms, axis=0)
    ys = np.tile(nu.points, (mu.n_atoms, 1))
    ws = np.outer(mu.weights, nu.weights).ravel()
    return JointFilterMeasure(mu.space, xs, ys, ws)


def coupled_laws(model: HmmModel, mu: PointMassMeasure, nu: PointMassMeasure,
                 n_max: int, budget: int = ENUMERATION_BUDGET
                 ) -> Iterator[JointFilterMeasure]:
    """Coupled laws of the horizons 0, 1, ..., n_max from the product coupling.

    Steps all pairs at once, one horizon at a time, and merges equal pairs
    after every step; the law at horizon n couples the n-step laws of ``mu``
    and ``nu``.  ``budget`` bounds the children of each step, merged pairs
    times ``|A|**2``, and is checked before the step builds them.
    """
    joint = product_coupling(mu, nu).merged()
    yield joint
    for n in range(1, n_max + 1):
        _check_budget(joint.n_atoms * model.n_obs**2, budget, f"coupled step {n}")
        joint = _coupled_step(model, joint).merged()
        yield joint


def coupled_chain(model: HmmModel, mu: PointMassMeasure, nu: PointMassMeasure,
                  n: int, budget: int = ENUMERATION_BUDGET) -> JointFilterMeasure:
    """The coupled law after n steps: the last law :func:`coupled_laws` yields."""
    for joint in coupled_laws(model, mu, nu, n, budget):
        pass
    return joint


@dataclass
class EConditionReport:
    """Coupled-closeness evidence for one pair of starting measures.

    ``alpha_achieved`` is the joint mass the coupled n-step chain puts on
    pairs closer than ``rho`` in total variation.  This certifies closeness
    for the probed pair only; it is evidence toward the universally
    quantified coupling property, never a proof of it.
    """

    rho: float
    n: int
    alpha_achieved: float
    mu_label: str
    nu_label: str
    pruned_mass: float = 0.0
    note: str = ("evidence only: closeness certified for the probed pair of "
                 "barycenter-matched measures, not for all of them")

    def to_json(self) -> str:
        return json.dumps({
            "rho": self.rho, "N": self.n, "alpha": self.alpha_achieved,
            "mu": self.mu_label, "nu": self.nu_label,
            "pruned_mass": self.pruned_mass, "note": self.note,
        })


def extremal_pair(pi: DensityVector) -> tuple[PointMassMeasure, PointMassMeasure]:
    """The two extremal measures with barycenter pi.

    The point mass at pi is the most concentrated such measure; spreading pi
    over the cell vertices is the most dispersed one.
    """
    return PointMassMeasure.dirac(pi), PointMassMeasure.atomized(pi)


def condition_E_estimate(model: HmmModel, pi: DensityVector, rho: float,
                         n_max: int, budget: int = ENUMERATION_BUDGET,
                         extra_pairs=None) -> list[EConditionReport]:
    """Coupled-closeness evidence on the extremal barycenter-pi pair.

    For each horizon up to ``n_max``, couples the two extremal measures with
    barycenter ``pi`` (plus any user-supplied pairs, validated to share that
    barycenter within ``MARGINAL_TOL``) and reports the joint mass within ``rho``.
    """
    dirac_pi, atomized_pi = extremal_pair(pi)
    pairs = [(dirac_pi, atomized_pi, "dirac(pi)", "atomized(pi)")]
    for k, (mu, nu) in enumerate(extra_pairs or []):
        for name, m in (("mu", mu), ("nu", nu)):
            gap = tv_distance(barycenter(m), pi)
            if gap > MARGINAL_TOL:
                raise BarycenterMismatch(
                    f"extra pair {k}: {name} barycenter differs from pi by {gap!r}"
                )
        pairs.append((mu, nu, f"user_mu_{k}", f"user_nu_{k}"))
    return [EConditionReport(rho=rho, n=n, alpha_achieved=joint.mass_within(rho),
                             mu_label=mu_label, nu_label=nu_label,
                             pruned_mass=joint.pruned_mass)
            for mu, nu, mu_label, nu_label in pairs
            for n, joint in enumerate(coupled_laws(model, mu, nu, n_max, budget))]


def first_positive_alpha(reports: list[EConditionReport]) -> EConditionReport | None:
    """Smallest-horizon report with positive coupled mass, if any."""
    positive = [r for r in reports if r.alpha_achieved > 0]
    if not positive:
        return None
    return min(positive, key=lambda r: r.n)
