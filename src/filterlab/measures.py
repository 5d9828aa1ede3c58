"""Total-variation geometry of the simplex and exact transport on point masses.

Measures on the filter's state space K are represented by finite weighted
lists of density vectors.  The transport distance between two such measures
uses total variation as ground cost and is solved exactly: a monotone
(sorted) coupling on two-cell state grids, an LP by column generation
everywhere else.  Both paths return dual potentials, and every plan is
certified by marginal residuals and complementary slackness over all atom
pairs before it is accepted; neither builds an m-by-n cost array.
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
from .model import DensityVector, StateSpace, _write_csv

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

    def merged(self) -> "PointMassMeasure":
        """Merge atoms into the connected components of "TV <= MERGE_TOL"."""
        merged = merge_atoms(self.points, self.weights, self.space.lambda_weights,
                             MERGE_TOL)
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
        _write_csv(path, "i,j,mass,cost",
                   zip(self.source, self.target, self.mass, self.cost))


class _TvRows:
    """TV ground costs between the rows of two mass matrices, computed on demand.

    ``C[lo:hi]`` is a block of rows and ``C[i, j]`` the costs of the arcs
    ``(i, j)``; a dense cost array reads the same way, so it can stand in
    for this one.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self.shape = (len(a), len(b))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return np.abs(self.a[key, None, :] - self.b[None, :, :]).sum(axis=2)
        i, j = key
        return np.abs(self.a[i] - self.b[j]).sum(axis=1)


def _cost_matrix(mu: PointMassMeasure, nu: PointMassMeasure) -> np.ndarray:
    """Dense ground costs, for the assignment oracle only."""
    return _TvRows(mu.mass_matrix(), nu.mass_matrix())[:]


def _line_sums(w1, w2, key1, key2):
    """Each side's key order and cumulative weight sums along it.

    Compensated as in Ogita, Rump and Oishi's Sum2 (each addition's exact
    TwoSum error is added back), the sums err by about eps times the total
    at any length.  The plan and its potentials both read them.
    """
    sides = []
    for w, key in ((w1, key1), (w2, key2)):
        order = np.argsort(key, kind="stable")
        w = w[order]
        c = np.cumsum(w)
        prev = np.r_[0.0, c[:-1]]
        z = c - prev
        err = (prev - (c - z)) + (w - z)
        sides += [order, np.maximum.accumulate(c + np.cumsum(err))]  # nondecreasing
    return sides


def _monotone_plan(w1, w2, key1, key2):
    """Sorted (comonotone) coupling for atoms keyed by a scalar coordinate.

    The arcs are the gaps between consecutive breakpoints of the two sums of
    :func:`_line_sums`, each joining the atoms whose intervals hold it; mass
    past the lighter side's total is left unplanned.  Each atom's planned
    mass is its weight within a few units in the last place of the total.
    """
    o1, c1, o2, c2 = _line_sums(w1, w2, key1, key2)
    cuts = np.union1d(c1, c2)
    cuts = cuts[cuts <= min(c1[-1], c2[-1])]
    # segment k, from cut k-1 to cut k, lies in the interval of the atom
    # that follows every breakpoint at or below cut k-1
    seg = np.arange(len(cuts))
    src = np.searchsorted(np.searchsorted(cuts, c1), seg)
    tgt = np.searchsorted(np.searchsorted(cuts, c2), seg)
    return o1[src], o2[tgt], np.diff(cuts, prepend=0.0)


def _line_potentials(key1, key2, w1, w2):
    """Optimal dual potentials for the cost 2|k - l| between atoms on a line.

    The one-Lipschitz potential integrates minus the sign of the difference
    of the two cumulative distributions; its value gap across any transported
    segment matches the distance exactly, which is what the complementary
    slackness certificate re-checks numerically.  Both distributions are
    the sums of :func:`_line_sums`, which the plan cuts.
    """
    o1, c1, o2, c2 = _line_sums(w1, w2, key1, key2)
    uniq = np.union1d(key1, key2)
    gap = (np.r_[0.0, c1][np.searchsorted(key1[o1], uniq, "right")]
           - np.r_[0.0, c2][np.searchsorted(key2[o2], uniq, "right")])
    slope = -np.sign(gap[:-1])
    u_uniq = np.concatenate([[0.0], np.cumsum(slope * np.diff(uniq))])
    u = 2.0 * u_uniq[np.searchsorted(uniq, key1)]
    v = -2.0 * u_uniq[np.searchsorted(uniq, key2)]
    return u, v


def _line_min_reduced(key1, key2, u, v) -> float:
    """Minimum of ``2|k_i - l_j| - u_i - v_j`` over every pair (i, j).

    Sorted on the target keys, the targets at or above ``k_i`` contribute
    the suffix minimum of ``2l - v`` minus ``2k_i``, those below it the
    prefix minimum of ``-2l - v`` plus ``2k_i``: O((m+n) log(m+n)) work and
    no m-by-n array.
    """
    order = np.argsort(key2)
    l, vl = key2[order], v[order]
    above = np.minimum.accumulate((2.0 * l - vl)[::-1])[::-1]
    below = np.minimum.accumulate(-2.0 * l - vl)
    p = np.searchsorted(l, key1)
    best = np.full(len(key1), np.inf)
    up, down = p < len(l), p > 0
    best[up] = above[p[up]] - 2.0 * key1[up]
    best[down] = np.minimum(best[down], below[p[down] - 1] + 2.0 * key1[down])
    return float((best - u).min())


_ROW_BLOCK = 256  # rows of the cost matrix read at a time
_NEAREST = 4      # start arcs per atom, to its nearest atoms of the other side
# violations of u + v <= C smaller than this are rounding: costs are at most
# 2, and C - u - v computed at that scale errs by a few units of 2.2e-16
_PRICE_TOL = 1e-14


class _LpPlan(tuple):
    """``(src, tgt, mass, u, v)`` of an LP plan and its potentials.

    ``min_reduced`` is the minimum of ``C - u - v`` over every arc, from the
    last reduced-cost scan: the global half of the slackness certificate.
    """

    def __new__(cls, src, tgt, mass, u, v, min_reduced: float):
        plan = super().__new__(cls, (src, tgt, mass, u, v))
        plan.min_reduced = min_reduced
        return plan


def _start_arcs(C) -> np.ndarray:
    """Each atom's nearest atoms of the other side, as keys ``i * n + j``."""
    m, n = C.shape
    kr, kc = min(_NEAREST, n), min(_NEAREST, m)
    rows = []
    best = np.full((kc, n), np.inf)
    best_i = np.zeros((kc, n), dtype=np.int64)
    for lo in range(0, m, _ROW_BLOCK):
        block = C[lo:lo + _ROW_BLOCK]
        near = np.argpartition(block, kr - 1, axis=1)[:, :kr]
        rows.append((lo + np.arange(len(block)))[:, None] * n + near)
        # the running kc smallest costs of every column
        vals = np.vstack([best, block])
        idx = np.vstack([best_i, np.broadcast_to(lo + np.arange(len(block))[:, None],
                                                 block.shape)])
        keep = np.argpartition(vals, kc - 1, axis=0)[:kc]
        best = np.take_along_axis(vals, keep, axis=0)
        best_i = np.take_along_axis(idx, keep, axis=0)
    return np.concatenate([r.ravel() for r in rows] + [(best_i * n + np.arange(n)).ravel()])


def _price(C, u, v, arcs):
    """One scan of the reduced costs ``C - u - v`` in row blocks.

    Returns their minimum over every arc (i, j), and the most violated arc
    outside the sorted key set ``arcs`` of each row and of each column,
    where one is violated by more than rounding.
    """
    m, n = C.shape
    worst, new = np.inf, []
    col_low, col_arg = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
    for lo in range(0, m, _ROW_BLOCK):
        reduced = C[lo:lo + _ROW_BLOCK] - u[lo:lo + _ROW_BLOCK, None] - v[None, :]
        worst = min(worst, float(reduced.min()))
        a, b = np.searchsorted(arcs, [lo * n, (lo + len(reduced)) * n])
        reduced[np.divmod(arcs[a:b] - lo * n, n)] = np.inf
        i, j = np.arange(len(reduced)), reduced.argmin(axis=1)
        hit = reduced[i, j] < -_PRICE_TOL
        new.append((lo + i[hit]) * n + j[hit])
        i, j = reduced.argmin(axis=0), np.arange(n)
        low = reduced[i, j] < col_low
        col_low[low], col_arg[low] = reduced[i[low], j[low]], lo + i[low]
    hit = np.flatnonzero(col_low < -_PRICE_TOL)
    return worst, np.unique(np.concatenate(new + [col_arg[hit] * n + hit]))


def _lp_plan(w1, w2, C) -> _LpPlan:
    """Optimal plan by column generation on a growing set of arcs.

    ``C`` is read in row blocks (``C[lo:hi]``) and on arcs (``C[i, j]``),
    as a dense array or :class:`_TvRows` allows.  The arcs start as each
    atom's nearest atoms of the other side plus the monotone plan in input
    order, which makes the restricted LP feasible.  Each round solves the
    LP on the arcs and adds the most violated arc of each row and of each
    column; the round whose scan adds none ends the loop, and that scan is
    the global slackness check.  The set only grows, so the loop ends.
    """
    # imported here: scipy is most of the import time of filterlab, and only
    # transport on three or more cells needs it
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = C.shape
    src, tgt, _ = _monotone_plan(w1, w2, np.arange(m), np.arange(n))
    arcs = np.unique(np.concatenate([_start_arcs(C), src * n + tgt]))
    b_eq = np.concatenate([w1, w2])
    while True:
        i, j = np.divmod(arcs, n)
        A = sparse.csc_matrix((np.ones(2 * len(arcs)), np.column_stack([i, m + j]).ravel(),
                               np.arange(0, 2 * len(arcs) + 1, 2)), shape=(m + n, len(arcs)))
        # HiGHS's default feasibility tolerances (1e-7) let plans miss
        # _certify; its presolve slows these small LPs by about a third
        res = linprog(C[i, j], A_eq=A, b_eq=b_eq, bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": MARGINAL_TOL,
                               "dual_feasibility_tolerance": MARGINAL_TOL,
                               "presolve": False})
        if not res.success:
            raise SolverFailure(f"transport LP failed: {res.message}")
        u, v = res.eqlin.marginals[:m], res.eqlin.marginals[m:]
        worst, new = _price(C, u, v, arcs)
        if not len(new):
            break
        arcs = np.union1d(arcs, new)
    on = res.x > 0
    return _LpPlan(i[on], j[on], res.x[on], u, v, worst)


def _certify(src, tgt, mass, cost, w1, w2, u, v, min_reduced):
    """Marginal residual and slackness of a plan with potentials u, v.

    ``cost`` holds the plan's arc costs and ``min_reduced`` a lower bound on
    ``C - u - v`` over every arc, from the path's own global check.
    """
    row = np.bincount(src, weights=mass, minlength=len(w1))
    col = np.bincount(tgt, weights=mass, minlength=len(w2))
    marg = max(np.abs(row - w1).max(), np.abs(col - w2).max())
    slack = max(0.0, -min_reduced)
    if len(src):
        slack = max(slack, float(np.abs(cost - u[src] - v[tgt]).max()))
    return float(marg), slack


def kantorovich(mu: PointMassMeasure, nu: PointMassMeasure
                ) -> tuple[float, TransportPlan]:
    """Exact transport distance with total-variation ground cost.

    Requires equal total mass within ``MARGINAL_TOL`` (relative); for mass
    ``r != 1`` the distance scales as ``r`` times the distance of the
    normalized measures, which is what the plan objective delivers directly.
    One path per input, certified once: the monotone plan on two cells whose
    point masses spread by at most 1e-12, else the LP; a plan that misses
    its certificate raises :class:`SolverFailure`.  No m-by-n array is built.
    """
    if not mu.space.same_as(nu.space):
        raise SpaceMismatch("measures live on different state spaces")
    r1, r2 = mu.total_mass, nu.total_mass
    if abs(r1 - r2) > MARGINAL_TOL * max(1.0, r1, r2):
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
    a = mu.mass_matrix()[keep1]
    b = nu.mass_matrix()[keep2]
    C = _TvRows(a, b)

    # spread of the atoms' point masses: on two cells C_ij lies within it
    # of 2|k_i - l_j|, the cost the monotone path solves for
    spread = np.ptp(np.concatenate([mu.point_masses[keep1], nu.point_masses[keep2]]))
    if mu.space.n == 2 and spread <= 1e-12:
        method = "monotone"
        key1, key2 = a[:, 0], b[:, 0]
        src, tgt, mass = _monotone_plan(w1, w2, key1, key2)
        u, v = _line_potentials(key1, key2, w1, w2)
        min_reduced = _line_min_reduced(key1, key2, u, v) - spread
    else:
        method = "lp"
        # the start plan is monotone in input order: order the atoms
        # along the projection key merge_atoms sorts on
        proj = np.cos(np.arange(1, mu.space.n + 1))
        o1 = np.argsort(a @ proj, kind="stable")
        o2 = np.argsort(b @ proj, kind="stable")
        lp = _lp_plan(w1[o1], w2[o2], _TvRows(a[o1], b[o2]))
        src, tgt, mass, pu, pv = lp
        src, tgt = o1[src], o2[tgt]
        u, v = np.empty(len(o1)), np.empty(len(o2))
        u[o1], v[o2] = pu, pv
        min_reduced = lp.min_reduced
    cost = C[src, tgt]
    marg, slack = _certify(src, tgt, mass, cost, w1, w2, u, v, min_reduced)
    if marg > MARGINAL_TOL or slack > SLACKNESS_TOL:
        raise SolverFailure(f"{method} plan not certified: marginal residual "
                            f"{marg:g}, slackness {slack:g}")
    objective = float(mass @ cost)
    plan = TransportPlan(
        source=idx1[src], target=idx2[tgt], mass=mass, cost=cost,
        objective=objective, potential_source=u, potential_target=v,
        marginal_residual=marg, slackness_residual=slack, method=method,
    )
    return objective, plan


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


def barycenter_match(phi: PointMassMeasure, b: DensityVector) -> PointMassMeasure:
    """Move phi's atoms so the barycenter becomes ``b`` at minimal total cost.

    Returns a measure with the same weights beta_k and new points zeta_k such
    that sum beta_k zeta_k = b and sum beta_k ||xi_k - zeta_k|| equals the
    distance between the old and new barycenters, which is the cheapest any
    coupling can be.  The construction peels the last atom, splits the state
    cells by the sign of (current barycenter - target), removes the overlap
    ``min(beta_N xi_N, a - b)`` on the heavy side, and refills the light side
    proportionally; ties go to the heavy side.  The target's mass must
    match the barycenter's within ``MARGINAL_TOL`` (relative).
    """
    if np.any(b.values < 0):
        raise NegativeTarget("target density must be nonnegative")
    if not phi.space.same_as(b.space):
        raise SpaceMismatch("target lives on a different state space")
    a_mass = phi.barycenter_masses()
    b_mass = b.masses.copy()
    if abs(a_mass.sum() - b_mass.sum()) > MARGINAL_TOL * max(1.0, a_mass.sum()):
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


def half_mass_check(mu: PointMassMeasure, F, pi: DensityVector | None = None
                    ) -> tuple[float, float]:
    """Mass of atoms holding at least half the reference mass of ``F``.

    For any measure with barycenter ``pi``, the set of points x with
    ``x(F) >= pi(F)/2`` carries mass at least ``pi(F)/2``.  Returns the
    achieved mass and that bound.  ``pi`` defaults to the measure's own
    barycenter; a supplied ``pi`` is checked against it.  Both the unit
    mass and that check hold within ``MARGINAL_TOL``.
    """
    if abs(mu.total_mass - 1.0) > MARGINAL_TOL:
        raise MassMismatch("half-mass bound applies to probability measures")
    bary = barycenter(mu)
    if pi is None:
        pi = bary
    elif tv_distance(bary, pi) > MARGINAL_TOL:
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
