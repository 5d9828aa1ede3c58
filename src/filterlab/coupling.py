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

import numpy as np

from .errors import BarycenterMismatch, BudgetExceeded, SpaceMismatch
from .measures import PointMassMeasure, barycenter, merge_atoms, tv_distance
from .model import DensityVector, HmmModel
from .filter import observation_law

PAIR_MERGE_TOL = 1e-12


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

    def pairs(self):
        """All atoms as (a_index, b_index, mass) with positive mass."""
        for a, w in enumerate(self.diagonal):
            if w > 0:
                yield a, a, float(w)
        for a, b, w in zip(self.off_source, self.off_target, self.off_mass):
            if w > 0:
                yield int(a), int(b), float(w)


def vasershtein_obs_coupling(model: HmmModel, x: DensityVector,
                             y: DensityVector) -> ObsCoupling:
    """Maximal-diagonal coupling of the observation laws of ``x`` and ``y``.

    The diagonal mass equals one minus half the total variation between the
    two observation laws; the leftover excesses are coupled by their product
    normalized by the total excess mass (purely diagonal when there is none).
    """
    tau = model.obs.tau_weights
    gx = observation_law(model, x)
    gy = observation_law(model, y)
    common = np.minimum(gx, gy)
    diag = common * tau
    ex = (gx - common) * tau
    ey = (gy - common) * tau
    excess = ex.sum()
    if excess <= 0.0:
        off = np.zeros((0,))
        src = tgt = np.zeros((0,), dtype=np.int64)
    else:
        src_all = np.nonzero(ex > 0)[0]
        tgt_all = np.nonzero(ey > 0)[0]
        mass = np.outer(ex[src_all], ey[tgt_all]) / excess
        src = np.repeat(src_all, len(tgt_all))
        tgt = np.tile(tgt_all, len(src_all))
        off = mass.ravel()
    return ObsCoupling(
        obs_cells=model.obs.cells, diagonal=diag,
        off_source=src, off_target=tgt, off_mass=off,
        g_x=gx, g_y=gy, tau=tau,
    )


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

    def merged(self, tol: float = PAIR_MERGE_TOL) -> "JointFilterMeasure":
        """Merge pairs whose two halves each lie within ``tol`` in TV."""
        stacked = np.hstack([self.x_points, self.y_points])
        points, weights = merge_atoms(stacked, self.weights, self.space.lambda_weights,
                                      tol, blocks=2)
        k = self.space.n
        return JointFilterMeasure(self.space, points[:, :k], points[:, k:],
                                  weights, pruned_mass=self.pruned_mass)


def coupled_filter_step(model: HmmModel, x: DensityVector, y: DensityVector
                        ) -> JointFilterMeasure:
    """Push the observation coupling through both Bayes updates.

    Each marginal of the result is exactly the one-step filter law of the
    corresponding start.
    """
    coupling = vasershtein_obs_coupling(model, x, y)
    xm = x.masses
    ym = y.masses
    lam = model.states.lambda_weights
    xs, ys, ws = [], [], []
    for a, b, w in coupling.pairs():
        nx = xm @ model.stepping_matrices[a]
        ny = ym @ model.stepping_matrices[b]
        sx, sy = nx.sum(), ny.sum()
        px = (nx / sx) / lam if sx > 0 else x.values
        py = (ny / sy) / lam if sy > 0 else y.values
        xs.append(px)
        ys.append(py)
        ws.append(w)
    return JointFilterMeasure(model.states, xs, ys, ws)


def product_coupling(mu: PointMassMeasure, nu: PointMassMeasure
                     ) -> JointFilterMeasure:
    """Independent coupling of two point-mass measures on K."""
    if not mu.space.same_as(nu.space):
        raise SpaceMismatch("measures live on different state spaces")
    xs = np.repeat(mu.points, nu.n_atoms, axis=0)
    ys = np.tile(nu.points, (mu.n_atoms, 1))
    ws = np.outer(mu.weights, nu.weights).ravel()
    return JointFilterMeasure(mu.space, xs, ys, ws)


def coupled_chain(model: HmmModel, mu: PointMassMeasure, nu: PointMassMeasure,
                  n: int, budget: int = 10**6) -> JointFilterMeasure:
    """n applications of the coupled filter step from the product coupling.

    Equal pairs are merged after every step; the result couples the n-step
    laws of ``mu`` and ``nu``.
    """
    joint = product_coupling(mu, nu).merged()
    lam = model.states.lambda_weights
    for _ in range(n):
        xs, ys, ws = [], [], []
        for k in range(joint.n_atoms):
            if joint.weights[k] <= 0:
                continue
            x = DensityVector(model.states, joint.x_points[k], unnormalized=True)
            y = DensityVector(model.states, joint.y_points[k], unnormalized=True)
            step = coupled_filter_step(model, x, y)
            xs.append(step.x_points)
            ys.append(step.y_points)
            ws.append(step.weights * joint.weights[k])
        joint = JointFilterMeasure(
            model.states,
            np.concatenate(xs), np.concatenate(ys), np.concatenate(ws),
        ).merged()
        if joint.n_atoms > budget:
            raise BudgetExceeded(
                f"coupled chain support {joint.n_atoms} exceeds budget {budget}"
            )
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
                         n_max: int, budget: int = 10**6,
                         extra_pairs=None,
                         barycenter_tol: float = 1e-10) -> list[EConditionReport]:
    """Coupled-closeness evidence on the extremal barycenter-pi pair.

    For each horizon up to ``n_max``, couples the two extremal measures with
    barycenter ``pi`` (plus any user-supplied pairs, validated to share that
    barycenter) and reports the joint mass within ``rho``.
    """
    dirac_pi, atomized_pi = extremal_pair(pi)
    pairs = [(dirac_pi, atomized_pi, "dirac(pi)", "atomized(pi)")]
    for k, (mu, nu) in enumerate(extra_pairs or []):
        for name, m in (("mu", mu), ("nu", nu)):
            gap = tv_distance(barycenter(m), pi)
            if gap > barycenter_tol:
                raise BarycenterMismatch(
                    f"extra pair {k}: {name} barycenter differs from pi by {gap!r}"
                )
        pairs.append((mu, nu, f"user_mu_{k}", f"user_nu_{k}"))
    reports = []
    for mu, nu, mu_label, nu_label in pairs:
        for n in range(n_max + 1):
            joint = coupled_chain(model, mu, nu, n, budget=budget)
            reports.append(EConditionReport(
                rho=rho, n=n, alpha_achieved=joint.mass_within(rho),
                mu_label=mu_label, nu_label=nu_label,
                pruned_mass=joint.pruned_mass,
            ))
    return reports


def first_positive_alpha(reports: list[EConditionReport]) -> EConditionReport | None:
    """Smallest-horizon report with positive coupled mass, if any."""
    positive = [r for r in reports if r.alpha_achieved > 0]
    if not positive:
        return None
    return min(positive, key=lambda r: r.n)
