"""Total-variation geometry of the simplex and exact transport on point masses.

Measures on the filter's state space K are represented by finite weighted
lists of density vectors.  The transport distance between two such measures
uses total variation as ground cost and is solved exactly: a monotone
(sorted) coupling on two-cell state grids, a sparse LP everywhere else.  Both
paths return dual potentials, and every plan is certified by marginal
residuals and complementary slackness before it is accepted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BarycenterMismatch,
    MassMismatch,
    NegativeDensity,
    NegativeTarget,
    SolverFailure,
    SpaceMismatch,
)
from .model import DensityVector, StateSpace

MERGE_TOL = 1e-12
MARGINAL_TOL = 1e-10
SLACKNESS_TOL = 1e-9


def tv_distance(x: DensityVector, y: DensityVector) -> float:
    """Total variation between two densities: the lambda-weighted L1 distance."""
    if not x.space.same_as(y.space):
        raise SpaceMismatch("densities live on different state spaces")
    return float(np.abs(x.masses - y.masses).sum())


def merge_atoms(points, weights, lam, tol: float, blocks: int = 1):
    """Group atoms into the connected components of "TV <= tol".

    Each row of ``points`` is ``blocks`` densities against the cell weights
    ``lam``, and two rows are as far apart as their farthest pair of blocks.
    Components do not depend on input order or on bystander atoms.  Returns
    each component's lexicographically first point and its summed weight,
    in lexicographic order of the points.
    """
    if len(weights) == 0:
        return points, weights
    order = np.argsort(points[:, 0])
    points, weights = points[order], weights[order]
    if (np.diff(points[:, 0]) == 0).any():
        # ties: order them by later cells and collapse exact duplicates
        order = np.lexsort(points.T[::-1])
        points = points[order]
        starts = np.flatnonzero(np.r_[True, (points[1:] != points[:-1]).any(axis=1)])
        points, weights = points[starts], np.add.reduceat(weights[order], starts)
    lam = np.tile(lam, blocks)
    # a projection of all mass coordinates with weights |cos j| / blocks moves
    # by at most the row distance, so sorted on it only neighbours within tol
    # can be joined; unlike one column, pairs repeating one half do not tie on it
    key = points @ (lam * np.cos(np.arange(1, len(lam) + 1)) / blocks)
    by_key = np.argsort(key)
    key = key[by_key]
    edges = [np.zeros((2, 0), dtype=np.int64)]
    for d in range(1, len(key)):
        near = np.flatnonzero(key[d:] - key[:-d] <= tol)
        if len(near) == 0:
            break
        a, b = by_key[near], by_key[near + d]
        tv = np.abs(points[a] - points[b]) * lam
        hit = tv.reshape(len(a), blocks, -1).sum(axis=2).max(axis=1) <= tol
        edges.append(np.stack([a[hit], b[hit]]))
    rows, cols = np.concatenate(edges, axis=1)
    # label every atom by the smallest index in its component: min-label
    # propagation along the edges with pointer jumping
    label = np.arange(len(points))
    while True:
        new = label.copy()
        low = np.minimum(label[rows], label[cols])
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots = label == np.arange(len(points))
    return points[roots], np.bincount((np.cumsum(roots) - 1)[label], weights=weights)


class PointMassMeasure:
    """Finitely supported measure on K: weighted list of density vectors.

    ``points`` is an ``(n_atoms, n_cells)`` array of densities, ``weights``
    the nonnegative atom weights.  ``pruned_mass`` records mass dropped by an
    enumeration cut-off so error budgets stay auditable.
    """

    __slots__ = ("space", "points", "weights", "pruned_mass")

    def __init__(self, space: StateSpace, points, weights, pruned_mass: float = 0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if points.shape != (weights.size, space.n):
            raise ValueError("points must have shape (n_atoms, n_cells)")
        if np.any(weights < 0):
            raise NegativeDensity("atom weights must be nonnegative")
        if np.any(points < 0):
            raise NegativeDensity("atom densities must be nonnegative")
        self.space = space
        self.points = points
        self.weights = weights
        self.pruned_mass = float(pruned_mass)

    @classmethod
    def dirac(cls, x: DensityVector) -> "PointMassMeasure":
        return cls(x.space, x.values[None, :], [1.0])

    @classmethod
    def atomized(cls, pi: DensityVector) -> "PointMassMeasure":
        """The extremal measure spreading pi over point masses at the cells."""
        space = pi.space
        pts = np.diag(1.0 / space.lambda_weights)
        return cls(space, pts, pi.masses)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def point_masses(self) -> np.ndarray:
        """Lambda-mass of each atom's density (one for atoms in K)."""
        return self.points @ self.space.lambda_weights

    def atom(self, i: int) -> DensityVector:
        return DensityVector(self.space, self.points[i], unnormalized=True)

    def mass_matrix(self) -> np.ndarray:
        return self.points * self.space.lambda_weights[None, :]

    def barycenter_masses(self) -> np.ndarray:
        return self.weights @ self.mass_matrix()

    def mass_in_ball(self, center: DensityVector, eps: float) -> float:
        """Weight carried by atoms with TV-distance strictly below eps."""
        d = np.abs(self.mass_matrix() - center.masses[None, :]).sum(axis=1)
        return float(self.weights[d < eps].sum())

    def merged(self, tol: float = MERGE_TOL) -> "PointMassMeasure":
        """Merge atoms into the connected components of "TV <= tol"."""
        merged = merge_atoms(self.points, self.weights, self.space.lambda_weights, tol)
        return PointMassMeasure(self.space, *merged, pruned_mass=self.pruned_mass)

    def scaled(self, factor: float) -> "PointMassMeasure":
        return PointMassMeasure(self.space, self.points, self.weights * factor,
                                pruned_mass=self.pruned_mass)

    def __repr__(self):
        return (f"PointMassMeasure(n_atoms={self.n_atoms}, "
                f"total_mass={self.total_mass:.6g})")


def barycenter(mu: PointMassMeasure) -> DensityVector:
    """Weighted mean density; its total mass equals the measure's mass."""
    values = mu.weights @ mu.points
    return DensityVector(mu.space, values, unnormalized=True)


# ---------------------------------------------------------------------------
# exact optimal transport


@dataclass
class TransportPlan:
    """Sparse optimal plan with its optimality certificate.

    ``source`` / ``target`` index atoms of the two measures, ``mass`` the
    transported weights and ``cost`` the per-arc ground costs.  The dual
    potentials certify optimality: ``slackness_residual`` is the worst
    violation of ``u_i + v_j <= c_ij`` globally together with equality on the
    support.
    """

    source: np.ndarray
    target: np.ndarray
    mass: np.ndarray
    cost: np.ndarray
    objective: float
    potential_source: np.ndarray
    potential_target: np.ndarray
    marginal_residual: float
    slackness_residual: float
    method: str

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("i,j,mass,cost\n")
            for i, j, w, c in zip(self.source, self.target, self.mass, self.cost):
                fh.write(f"{i},{j},{float(w)!r},{float(c)!r}\n")


def _cost_matrix(mu: PointMassMeasure, nu: PointMassMeasure) -> np.ndarray:
    a = mu.mass_matrix()
    b = nu.mass_matrix()
    return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)


def _monotone_plan(w1, w2, key1, key2):
    """Sorted (comonotone) coupling for atoms keyed by a scalar coordinate."""
    o1 = np.argsort(key1, kind="stable")
    o2 = np.argsort(key2, kind="stable")
    src, tgt, mass = [], [], []
    i = j = 0
    r1 = w1[o1].copy()
    r2 = w2[o2].copy()
    while i < len(o1) and j < len(o2):
        take = min(r1[i], r2[j])
        if take > 0:
            src.append(o1[i])
            tgt.append(o2[j])
            mass.append(take)
        r1[i] -= take
        r2[j] -= take
        if r1[i] <= r2[j]:
            i += 1
        else:
            j += 1
    return np.array(src), np.array(tgt), np.array(mass)


def _line_potentials(key1, key2, w1, w2):
    """Optimal dual potentials for the cost 2|k - l| between atoms on a line.

    The one-Lipschitz potential integrates minus the sign of the difference
    of the two cumulative distributions; its value gap across any transported
    segment matches the distance exactly, which is what the complementary
    slackness certificate re-checks numerically.
    """
    pts = np.concatenate([key1, key2])
    jumps = np.concatenate([w1, -w2])
    uniq, inv = np.unique(pts, return_inverse=True)
    fdiff = np.zeros(len(uniq))
    np.add.at(fdiff, inv, jumps)
    cum = np.cumsum(fdiff)
    slope = -np.sign(cum[:-1])
    u_uniq = np.concatenate([[0.0], np.cumsum(slope * np.diff(uniq))])
    u = 2.0 * u_uniq[np.searchsorted(uniq, key1)]
    v = -2.0 * u_uniq[np.searchsorted(uniq, key2)]
    return u, v


def _lp_plan(w1, w2, C):
    # imported here: scipy is most of the import time of filterlab, and only
    # transport on three or more cells needs it
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = C.shape
    ci = np.arange(m * n)
    A1 = sparse.coo_matrix((np.ones(m * n), (np.repeat(np.arange(m), n), ci)),
                           shape=(m, m * n))
    A2 = sparse.coo_matrix((np.ones(m * n), (np.tile(np.arange(n), m), ci)),
                           shape=(n, m * n))
    A = sparse.vstack([A1, A2]).tocsc()
    # HiGHS's default feasibility tolerances (1e-7) let plans miss _certify
    res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([w1, w2]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": MARGINAL_TOL,
                           "dual_feasibility_tolerance": MARGINAL_TOL})
    if not res.success:
        raise SolverFailure(f"transport LP failed: {res.message}")
    plan = res.x.reshape(m, n)
    src, tgt = np.nonzero(plan > 0)
    y = res.eqlin.marginals
    return src, tgt, plan[src, tgt], y[:m], y[m:]


def _certify(src, tgt, mass, C, w1, w2, u, v):
    m, n = C.shape
    row = np.zeros(m)
    col = np.zeros(n)
    np.add.at(row, src, mass)
    np.add.at(col, tgt, mass)
    marg = max(np.abs(row - w1).max(), np.abs(col - w2).max())
    reduced = C - u[:, None] - v[None, :]
    slack = max(0.0, float(-reduced.min()))
    if len(src):
        slack = max(slack, float(np.abs(reduced[src, tgt]).max()))
    return float(marg), slack


def kantorovich(mu: PointMassMeasure, nu: PointMassMeasure,
                mass_tol: float = MARGINAL_TOL) -> tuple[float, TransportPlan]:
    """Exact transport distance with total-variation ground cost.

    Requires equal total mass; for mass ``r != 1`` the distance scales as
    ``r`` times the distance of the normalized measures, which is what the
    plan objective delivers directly.  Raises :class:`SolverFailure` if the
    optimality certificate does not close.
    """
    if not mu.space.same_as(nu.space):
        raise SpaceMismatch("measures live on different state spaces")
    r1, r2 = mu.total_mass, nu.total_mass
    if abs(r1 - r2) > mass_tol * max(1.0, r1, r2):
        raise MassMismatch(f"total masses differ: {r1!r} vs {r2!r}")
    keep1 = mu.weights > 0
    keep2 = nu.weights > 0
    if not keep1.any() or not keep2.any():
        raise MassMismatch("transport between zero-mass measures is undefined")
    w1 = mu.weights[keep1]
    w2 = nu.weights[keep2]
    w2 = w2 * (w1.sum() / w2.sum())
    idx1 = np.nonzero(keep1)[0]
    idx2 = np.nonzero(keep2)[0]
    C = _cost_matrix(mu, nu)[np.ix_(keep1, keep2)]

    pm1 = mu.point_masses[keep1]
    pm2 = nu.point_masses[keep2]
    one_dimensional = (
        mu.space.n == 2
        and np.ptp(np.concatenate([pm1, pm2])) <= 1e-12
    )
    attempts = ["monotone", "lp"] if one_dimensional else ["lp"]
    last_error = None
    for method in attempts:
        if method == "monotone":
            key1 = mu.mass_matrix()[keep1, 0]
            key2 = nu.mass_matrix()[keep2, 0]
            src, tgt, mass = _monotone_plan(w1, w2, key1, key2)
            u, v = _line_potentials(key1, key2, w1, w2)
        else:
            src, tgt, mass, u, v = _lp_plan(w1, w2, C)
        marg, slack = _certify(src, tgt, mass, C, w1, w2, u, v)
        if marg <= MARGINAL_TOL and slack <= SLACKNESS_TOL:
            cost = C[src, tgt]
            objective = float(mass @ cost)
            plan = TransportPlan(
                source=idx1[src], target=idx2[tgt], mass=mass, cost=cost,
                objective=objective, potential_source=u, potential_target=v,
                marginal_residual=marg, slackness_residual=slack, method=method,
            )
            return objective, plan
        last_error = f"{method}: marginal residual {marg:g}, slackness {slack:g}"
    raise SolverFailure(f"no certified plan found ({last_error})")


# ---------------------------------------------------------------------------
# dual side and barycenter bounds


@dataclass(frozen=True)
class LipschitzWitness:
    """A test function on K with declared Lipschitz constant for the dual form."""

    fn: Callable[[np.ndarray], np.ndarray]
    gamma: float
    name: str = ""

    def expectation(self, mu: PointMassMeasure) -> float:
        vals = np.asarray(self.fn(mu.mass_matrix()), dtype=float)
        return float(mu.weights @ vals)


def hahn_witness(mu: PointMassMeasure, nu: PointMassMeasure) -> LipschitzWitness:
    """The sign-split witness z -> z(F1) - z(F2) of the two barycenters.

    F1 collects the cells where mu's barycenter dominates nu's; the witness
    has Lipschitz constant one and attains the barycenter gap.
    """
    j = np.where(mu.barycenter_masses() >= nu.barycenter_masses(), 1.0, -1.0)
    return LipschitzWitness(fn=lambda masses: masses @ j, gamma=1.0,
                            name="barycenter-sign-split")


def kantorovich_dual_check(mu: PointMassMeasure, nu: PointMassMeasure,
                           u_samples: Sequence[LipschitzWitness]) -> float:
    """Best dual lower bound over the sampled Lipschitz-one witnesses.

    Verifies the bound against the exact primal value and raises
    :class:`SolverFailure` on a primal/dual sandwich violation.
    """
    bound = max((w.expectation(mu) - w.expectation(nu) for w in u_samples),
                default=0.0)
    distance, _ = kantorovich(mu, nu)
    if bound > distance + 1e-10:
        raise SolverFailure(
            f"dual witness value {bound!r} exceeds primal optimum {distance!r}"
        )
    return bound


def barycenter_lower_bound(mu: PointMassMeasure, nu: PointMassMeasure) -> float:
    """Transport distance is at least the barycenter gap in total variation."""
    if not mu.space.same_as(nu.space):
        raise SpaceMismatch("measures live on different state spaces")
    if abs(mu.total_mass - nu.total_mass) > MARGINAL_TOL:
        raise MassMismatch("equal total mass required")
    return float(np.abs(mu.barycenter_masses() - nu.barycenter_masses()).sum())


# ---------------------------------------------------------------------------
# constructive barycenter matching


def barycenter_match(phi: PointMassMeasure, b: DensityVector,
                     mass_tol: float = MARGINAL_TOL) -> PointMassMeasure:
    """Move phi's atoms so the barycenter becomes ``b`` at minimal total cost.

    Returns a measure with the same weights beta_k and new points zeta_k such
    that sum beta_k zeta_k = b and sum beta_k ||xi_k - zeta_k|| equals the
    distance between the old and new barycenters, which is the cheapest any
    coupling can be.  The construction peels the last atom, splits the state
    cells by the sign of (current barycenter - target), removes the overlap
    ``min(beta_N xi_N, a - b)`` on the heavy side, and refills the light side
    proportionally; ties go to the heavy side.
    """
    if np.any(b.values < 0):
        raise NegativeTarget("target density must be nonnegative")
    if not phi.space.same_as(b.space):
        raise SpaceMismatch("target lives on a different state space")
    a_mass = phi.barycenter_masses()
    b_mass = b.masses.copy()
    if abs(a_mass.sum() - b_mass.sum()) > mass_tol * max(1.0, a_mass.sum()):
        raise MassMismatch(
            f"target mass {b_mass.sum()!r} != barycenter mass {a_mass.sum()!r}"
        )
    xis = phi.mass_matrix()
    betas = phi.weights
    n = phi.n_atoms
    zetas = np.array(xis, dtype=float)
    active = [k for k in range(n) if betas[k] > 0]

    a = a_mass.copy()
    b_cur = b_mass.copy()
    matched_early = False
    for pos in range(len(active) - 1, 0, -1):
        k = active[pos]
        diff = a - b_cur
        delta = 0.5 * np.abs(diff).sum()
        if delta <= 1e-15 * max(1.0, a.sum()):
            matched_early = True  # remaining atoms already average to the target
            break
        f1 = diff >= 0
        contrib = betas[k] * xis[k]
        c = np.where(f1, np.minimum(contrib, diff), 0.0)
        c = np.maximum(c, 0.0)
        delta0 = c.sum()
        zeta = np.where(f1, xis[k] - c / betas[k],
                        xis[k] + (delta0 / delta) * (-diff) / betas[k])
        zetas[k] = np.maximum(zeta, 0.0)
        b_cur = np.maximum(b_cur - betas[k] * zetas[k], 0.0)
        a = a - contrib
    if active and not matched_early:
        k0 = active[0]
        zetas[k0] = b_cur / betas[k0]

    points = zetas / phi.space.lambda_weights[None, :]
    return PointMassMeasure(phi.space, points, betas)


def nearest_barycenter_distance(mu: PointMassMeasure, y: DensityVector
                                ) -> tuple[PointMassMeasure, float]:
    """Closest measure with barycenter ``r*y`` and the certified distance.

    The returned distance is the exact transport cost to the constructed
    measure; combined with the barycenter lower bound it pins the infimum
    over all measures with that barycenter to ``r * ||x - y||``.
    """
    r = mu.total_mass
    target = DensityVector(mu.space, y.values * r, unnormalized=True)
    psi = barycenter_match(mu, target)
    achieved, _ = kantorovich(mu, psi)
    return psi, achieved


def half_mass_check(mu: PointMassMeasure, F, pi: DensityVector | None = None,
                    tol: float = MARGINAL_TOL) -> tuple[float, float]:
    """Mass of atoms holding at least half the reference mass of ``F``.

    For any measure with barycenter ``pi``, the set of points x with
    ``x(F) >= pi(F)/2`` carries mass at least ``pi(F)/2``.  Returns the
    achieved mass and that bound.  ``pi`` defaults to the measure's own
    barycenter; a supplied ``pi`` is checked against it.
    """
    if abs(mu.total_mass - 1.0) > tol:
        raise MassMismatch("half-mass bound applies to probability measures")
    bary = barycenter(mu)
    if pi is None:
        pi = bary
    elif tv_distance(bary, pi) > tol:
        raise BarycenterMismatch(
            f"measure barycenter differs from pi by {tv_distance(bary, pi)!r}"
        )
    mask = F if isinstance(F, np.ndarray) else mu.space.mask(F)
    threshold = pi.mass_of(mask) / 2.0
    atom_f_mass = mu.mass_matrix()[:, mask].sum(axis=1)
    achieved = float(mu.weights[atom_f_mass >= threshold - 1e-15].sum())
    return achieved, threshold


def brute_force_uniform_assignment(mu: PointMassMeasure, nu: PointMassMeasure) -> float:
    """Independent oracle: minimum-cost atom permutation for uniform weights.

    Only valid when both measures carry equally many atoms of equal weight;
    by Birkhoff's theorem the optimum of the transport problem is then
    attained at a permutation.
    """
    if mu.n_atoms != nu.n_atoms:
        raise MassMismatch("assignment oracle needs equal atom counts")
    C = _cost_matrix(mu, nu)
    w = mu.weights[0]
    best = None
    for perm in itertools.permutations(range(nu.n_atoms)):
        cost = sum(C[i, j] for i, j in enumerate(perm))
        if best is None or cost < best:
            best = cost
    return float(w * best)
