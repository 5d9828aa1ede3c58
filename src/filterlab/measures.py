"""Total-variation geometry of the simplex and exact transport on point masses.

Measures on the filter's state space K are finite weighted lists of atoms,
held as their cell masses (density times lambda), the one format every
operation here reads; densities are derived only when asked for.  The
transport distance between two such measures uses total variation as
ground cost and is solved exactly: a monotone (sorted) coupling on two-cell
state grids, an LP by column generation everywhere else.  Both paths return
dual potentials, and every plan is certified by marginal residuals and
complementary slackness over all atom pairs before it is accepted.  The
monotone path builds no m-by-n array; the LP keeps at most a fixed budget
of cost rows (``_KEEP_BYTES``) and reads the rest in blocks.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BarycenterMismatch,
    MassMismatch,
    NegativeDensity,
    NegativeTarget,
    SolverFailure,
)
from .model import (DensityVector, StateSpace, _check_nonnegative, _check_space, _freeze,
                    _write_csv)

MERGE_TOL = 1e-12
MARGINAL_TOL = 1e-10
SLACKNESS_TOL = 1e-9


def _check_equal_mass(r1: float, r2: float) -> None:
    """Equal total masses, within ``MARGINAL_TOL`` relative to ``max(1, r1, r2)``."""
    if abs(r1 - r2) > MARGINAL_TOL * max(1.0, r1, r2):
        raise MassMismatch(f"total masses differ: {r1!r} vs {r2!r}")


def tv_distance(x: DensityVector, y: DensityVector) -> float:
    """Total variation between two densities: the lambda-weighted L1 distance."""
    _check_space(x.space, y.space, "densities live on different state spaces")
    return float(np.abs(x.masses - y.masses).sum())


@lru_cache
def _merge_proj(n_cells: int, blocks: int) -> np.ndarray:
    """The key's weights ``cos(1..n_cells) / blocks``, computed once per shape."""
    return _freeze(np.cos(np.arange(1, n_cells + 1)) / blocks)


def _merge_key(masses: np.ndarray, blocks: int = 1) -> np.ndarray:
    """The sort key of :func:`merge_atoms`, ``masses @ cos(1..K) / blocks``.

    Each row's key depends on that row alone: below 8 cells OpenBLAS's
    product rounds every row alike, and from 8 cells on, where it rounds a
    row by its place in the array, the products are summed by numpy's
    pairwise sum.  ``test_permutation_invariant`` checks both sides.
    """
    proj = _merge_proj(masses.shape[1], blocks)
    return masses @ proj if masses.shape[1] < 8 else (masses * proj).sum(axis=1)


def merge_atoms(masses, weights, tol: float, blocks: int = 1):
    """Group atoms into the connected components of "TV <= tol".

    Each row of ``masses`` is ``blocks`` vectors of cell masses side by
    side, and two rows are as far apart as their farthest pair of blocks.
    Components do not depend on input order or on bystander atoms.  Returns
    each component's lexicographically first row and its summed weight.
    Components come in key order, the key being the projection
    ``masses @ cos(1..K) / blocks`` (:func:`_merge_key`): each is placed by
    its first atom in that order, atoms of equal key taken in lexicographic
    order.  Weights are summed in (key, row, weight) order, so the result is
    the same bytes under any input order.
    """
    # a projection of all mass coordinates with weights |cos j| / blocks moves
    # by at most the row distance, so sorted on it only neighbours within tol
    # can be joined; unlike one column, pairs repeating one half do not tie on it
    key = _merge_key(masses, blocks)
    order = np.argsort(key)
    key = key[order]
    masses, weights = np.take(masses, order, axis=0), weights[order]
    tied = key[1:] == key[:-1]
    if tied.any():
        # ties, exact duplicates among them: order the rows of equal key
        # lexicographically, duplicates by weight, and collapse the
        # duplicates, so their sums do not depend on the input order
        run = np.zeros(len(key), dtype=bool)
        run[1:] = tied
        run[:-1] |= tied
        run = np.flatnonzero(run)
        order = np.arange(len(key))
        order[run] = run[np.lexsort((weights[run], *masses[run].T[::-1], key[run]))]
        masses, weights = np.take(masses, order, axis=0), weights[order]
        dup = tied & (masses[1:] == masses[:-1]).all(axis=1)
        if dup.any():
            starts = np.flatnonzero(np.concatenate(([True], ~dup)))
            # merged() refuses a sum that overflows; numpy need not warn first
            with np.errstate(over="ignore"):
                weights = np.add.reduceat(weights, starts)
            masses, key = np.take(masses, starts, axis=0), key[starts]
    edges = []
    for d in range(1, len(key)):
        a = np.flatnonzero(key[d:] - key[:-d] <= tol)
        if len(a) == 0:
            break
        tv = np.abs(np.take(masses, a, axis=0) - np.take(masses, a + d, axis=0))
        hit = a[tv.reshape(len(a), blocks, -1).sum(axis=2).max(axis=1) <= tol]
        edges.append(np.stack([hit, hit + d]))
    rows, cols = np.concatenate(edges, axis=1) if edges else ((), ())
    if len(rows) == 0:
        # no edge: every atom is its own component, already in order
        return masses, weights
    # label every atom by the smallest index in its component: min-label
    # propagation along the edges with pointer jumping
    label = np.arange(len(masses))
    while True:
        new = label.copy()
        low = np.minimum(label[rows], label[cols])
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots = label == np.arange(len(masses))
    comp = (np.cumsum(roots) - 1)[label]
    # each component of several atoms keeps its lexicographically first row
    shared = np.flatnonzero(np.bincount(comp)[comp] > 1)
    shared = shared[np.lexsort((*masses[shared].T[::-1], comp[shared]))]
    first = shared[np.concatenate(([True], comp[shared[1:]] != comp[shared[:-1]]))]
    merged = masses[roots]
    merged[comp[first]] = masses[first]
    return merged, np.bincount(comp, weights=weights)


class _AtomStore:
    """Weighted atoms held as rows of cell masses: the store of both measure classes.

    A row holds ``_BLOCKS`` vectors of cell masses side by side: one for a
    :class:`PointMassMeasure`, two (the pair's halves) for a
    :class:`~filterlab.coupling.JointFilterMeasure`.
    """

    __slots__ = ("space", "_masses", "weights", "pruned_mass")
    _BLOCKS = 1

    @classmethod
    def _of_gated(cls, space: StateSpace, masses, weights, pruned_mass: float = 0.0):
        """``from_masses`` without the sign check: for rows and weights that passed it."""
        mu = object.__new__(cls)
        mu.space, mu._masses = space, np.asarray(masses, dtype=float)
        mu.weights, mu.pruned_mass = np.asarray(weights, dtype=float), float(pruned_mass)
        return mu

    @classmethod
    def from_masses(cls, space: StateSpace, masses, weights, pruned_mass: float = 0.0):
        """The measure whose atoms have the cell masses ``masses``, kept without a copy.

        ``masses`` holds one row of ``_BLOCKS * space.n`` cells per weight;
        weights and masses must be nonnegative and finite
        (:class:`NegativeDensity`).
        """
        mu = cls._of_gated(space, masses, weights, pruned_mass)
        _check_nonnegative(mu.weights, NegativeDensity, "atom weights")
        _check_nonnegative(mu._masses, NegativeDensity, "atom densities")
        return mu

    @classmethod
    def _from_points(cls, space: StateSpace, halves, weights, pruned_mass: float):
        """Densities enter here, once: ``_BLOCKS`` arrays of them, one row per weight."""
        halves = [np.atleast_2d(np.asarray(p, dtype=float)) for p in halves]
        if any(h.shape != (np.size(weights), space.n) for h in halves):
            raise ValueError("points must have shape (n_atoms, n_cells)")
        masses = np.hstack(halves) * np.tile(space.lambda_weights, cls._BLOCKS)
        return cls.from_masses(space, masses, weights, pruned_mass)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def merged(self):
        """Merge atoms into the connected components of "TV <= MERGE_TOL".

        Two rows are as far apart as their farthest pair of blocks
        (:func:`merge_atoms`); the result is a measure of the same class.
        """
        masses, weights = merge_atoms(self._masses, self.weights, MERGE_TOL, self._BLOCKS)
        if weights.size and not weights.max() < np.inf:  # gated rows; a sum can overflow
            raise NegativeDensity("atom weights must be nonnegative and finite")
        return type(self)._of_gated(self.space, masses, weights, self.pruned_mass)


class PointMassMeasure(_AtomStore):
    """Finitely supported measure on K: a weighted list of atoms.

    The atoms are held as cell masses, the ``(n_atoms, n_cells)`` array
    :meth:`mass_matrix` returns; ``points``, their densities, is derived
    when read and cannot be written.  ``weights`` are the nonnegative atom
    weights.  ``pruned_mass`` records mass dropped by an enumeration cut-off
    so error budgets stay auditable.
    """

    __slots__ = ()

    def __new__(cls, space: StateSpace, points, weights, pruned_mass: float = 0.0):
        return cls._from_points(space, [points], weights, pruned_mass)

    @classmethod
    def dirac(cls, x: DensityVector) -> "PointMassMeasure":
        return cls(x.space, x.values[None, :], [1.0])

    @classmethod
    def atomized(cls, pi: DensityVector) -> "PointMassMeasure":
        """The extremal measure spreading pi over point masses at the cells."""
        return cls.from_masses(pi.space, np.eye(pi.space.n), pi.masses)

    @property
    def points(self) -> np.ndarray:
        """The atoms' densities, derived from their cell masses when read."""
        return _freeze(self._masses / self.space.lambda_weights)

    @property
    def point_masses(self) -> np.ndarray:
        """Lambda-mass of each atom's density (one for atoms in K)."""
        return self._masses.sum(axis=1)

    def atom(self, i: int) -> DensityVector:
        return DensityVector.from_masses(self.space, self._masses[i], unnormalized=True)

    def mass_matrix(self) -> np.ndarray:
        """The atoms' cell masses: the array the measure holds, not a copy."""
        return self._masses

    def barycenter_masses(self) -> np.ndarray:
        return self.weights @ self._masses

    def mass_in_ball(self, center: DensityVector, eps: float) -> float:
        """Weight carried by atoms with TV-distance strictly below eps."""
        _check_space(center.space, self.space, "ball centre lives on a different state space")
        d = np.abs(self._masses - center.masses[None, :]).sum(axis=1)
        return float(self.weights[d < eps].sum())

    def scaled(self, factor: float) -> "PointMassMeasure":
        return PointMassMeasure.from_masses(self.space, self._masses, self.weights * factor,
                                            pruned_mass=self.pruned_mass)

    def __repr__(self):
        return (f"PointMassMeasure(n_atoms={self.n_atoms}, "
                f"total_mass={self.total_mass:.6g})")


def barycenter(mu: PointMassMeasure) -> DensityVector:
    """Weighted mean density; its total mass equals the measure's mass."""
    return DensityVector.from_masses(mu.space, mu.barycenter_masses(), unnormalized=True)


def _check_barycenter(mu: PointMassMeasure, pi: DensityVector, what: str) -> None:
    """The one barycenter gate: ``mu``'s barycenter is ``pi`` within ``MARGINAL_TOL`` in TV."""
    gap = tv_distance(barycenter(mu), pi)
    if gap > MARGINAL_TOL:
        raise BarycenterMismatch(f"{what} barycenter differs from pi by {gap!r}")


# ---------------------------------------------------------------------------
# exact optimal transport


@dataclass(eq=False)
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
                   zip(self.source.tolist(), self.target.tolist(),
                       self.mass.tolist(), self.cost.tolist()))


class _TvRows:
    """TV ground costs between the rows of two mass matrices, computed on demand.

    ``C[lo:hi]`` is a block of rows and ``C[i, j]`` the costs of the arcs
    ``(i, j)``, computed on each read.  :meth:`blocks` reads every row in
    blocks of ``_ROW_BLOCK``: the leading blocks that fit in ``_KEEP_BYTES``
    are computed once, on its first call, and kept; the others are computed
    again on each call, so memory stays within the budget plus a few
    blocks.  Rows and arcs agree bit for bit.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b
        self.shape = (len(a), len(b))

    @staticmethod
    def _tv(a, b, out=None):
        # summed one cell at a time, left to right: a reduction over a short
        # last axis is several times slower, and rows and arcs of one pair
        # then agree bit for bit at any number of cells
        total = np.subtract(a[..., 0], b[..., 0], out=out)
        np.abs(total, out=total)
        term = np.empty_like(total)
        for c in range(1, a.shape[-1]):
            total += np.abs(np.subtract(a[..., c], b[..., c], out=term), out=term)
        return total

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._tv(self.a[key, None, :], self.b[None, :, :])
        i, j = key
        return self._tv(self.a[i], self.b[j])

    @cached_property
    def _kept(self) -> np.ndarray:
        """The leading whole row blocks within ``_KEEP_BYTES``, computed on first read."""
        m, n = self.shape
        rows = min(m, _KEEP_BYTES // (8 * max(n, 1)) // _ROW_BLOCK * _ROW_BLOCK)
        kept = np.empty((rows, n))
        for lo in range(0, rows, _ROW_BLOCK):
            hi = lo + _ROW_BLOCK
            self._tv(self.a[lo:hi, None, :], self.b[None], out=kept[lo:hi])
        return kept

    @cached_property
    def work(self) -> np.ndarray:
        """A scratch block of rows for the scans that read these costs."""
        return np.empty((min(self.shape[0], _ROW_BLOCK), self.shape[1]))

    def blocks(self):
        """``(lo, C[lo:lo + _ROW_BLOCK])`` for every block of rows, in order."""
        kept = self._kept
        for lo in range(0, self.shape[0], _ROW_BLOCK):
            yield lo, kept[lo:lo + _ROW_BLOCK] if lo < len(kept) else self[lo:lo + _ROW_BLOCK]


def _cost_matrix(mu: PointMassMeasure, nu: PointMassMeasure) -> np.ndarray:
    """Dense ground costs, for the assignment oracle only."""
    return _TvRows(mu.mass_matrix(), nu.mass_matrix())[:]


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct values of ``a`` and ``b`` in ascending order, as ``np.union1d``.

    The sort path of ``np.unique`` written out: one sort of both, and the
    first of each run of equal values (so of -0.0 and 0.0 whichever the sort
    puts first).  ``np.unique`` imports ``numpy.ma`` on its first call.  The
    inputs hold no NaN, which ``np.union1d`` would collapse into one.
    """
    c = np.concatenate((a, b))
    c.sort()
    first = np.empty(len(c), dtype=bool)
    first[:1] = True
    np.not_equal(c[1:], c[:-1], out=first[1:])
    return c[first]


def _line_sums(w1, w2, key1, key2):
    """Each side's key order and cumulative weight sums along it.

    Compensated as in Ogita, Rump and Oishi's Sum2 (each addition's exact
    TwoSum error is added back), the sums err by about eps times the total
    at any length.  The plan, its potentials and its reduced costs read them.
    """
    sides = []
    for w, key in ((w1, key1), (w2, key2)):
        order = np.argsort(key, kind="stable")
        w = w[order]
        c = np.cumsum(w)
        prev = np.concatenate(([0.0], c[:-1]))
        z = c - prev
        err = (prev - (c - z)) + (w - z)
        sides += [order, np.maximum.accumulate(c + np.cumsum(err))]  # nondecreasing
    return sides


def _monotone_plan(o1, c1, o2, c2):
    """Sorted (comonotone) coupling for atoms keyed by a scalar coordinate.

    The arcs are the gaps between consecutive breakpoints of the two sums of
    :func:`_line_sums`, each joining the atoms whose intervals hold it; mass
    past the lighter side's total is left unplanned.  Each atom's planned
    mass is its weight within a few units in the last place of the total.
    """
    cuts = _sorted_union(c1, c2)
    cuts = cuts[cuts <= min(c1[-1], c2[-1])]
    # segment k, from cut k-1 to cut k, lies in the interval of the atom
    # that follows every breakpoint at or below cut k-1
    seg = np.arange(len(cuts))
    src = np.searchsorted(np.searchsorted(cuts, c1), seg)
    tgt = np.searchsorted(np.searchsorted(cuts, c2), seg)
    return o1[src], o2[tgt], cuts - np.concatenate(([0.0], cuts[:-1]))


def _line_potentials(key1, key2, o1, c1, o2, c2):
    """Optimal dual potentials for the cost 2|k - l| between atoms on a line.

    The one-Lipschitz potential integrates minus the sign of the difference
    of the two cumulative distributions; its value gap across any transported
    segment matches the distance exactly, which is what the complementary
    slackness certificate re-checks numerically.  Both distributions are
    the sums of :func:`_line_sums`, which the plan cuts.
    """
    uniq = _sorted_union(key1, key2)
    gap = (np.r_[0.0, c1][np.searchsorted(key1[o1], uniq, "right")]
           - np.r_[0.0, c2][np.searchsorted(key2[o2], uniq, "right")])
    slope = -np.sign(gap[:-1])
    u_uniq = np.concatenate([[0.0], np.cumsum(slope * np.diff(uniq))])
    u = 2.0 * u_uniq[np.searchsorted(uniq, key1)]
    v = -2.0 * u_uniq[np.searchsorted(uniq, key2)]
    return u, v


def _line_min_reduced(key1, key2, o2, u, v) -> float:
    """Minimum of ``2|k_i - l_j| - u_i - v_j`` over every pair (i, j).

    In the targets' key order ``o2``, the targets at or above ``k_i``
    contribute the suffix minimum of ``2l - v`` minus ``2k_i``, those below
    it the prefix minimum of ``-2l - v`` plus ``2k_i``: O((m+n) log(m+n))
    work and no m-by-n array.  A minimum does not depend on how tied keys
    are ordered.
    """
    l, vl = key2[o2], v[o2]
    above = np.minimum.accumulate((2.0 * l - vl)[::-1])[::-1]
    below = np.minimum.accumulate(-2.0 * l - vl)
    p = np.searchsorted(l, key1)
    best = np.full(len(key1), np.inf)
    up, down = p < len(l), p > 0
    best[up] = above[p[up]] - 2.0 * key1[up]
    best[down] = np.minimum(best[down], below[p[down] - 1] + 2.0 * key1[down])
    return float((best - u).min())


_ROW_BLOCK = 256  # rows of the cost matrix read at a time
_KEEP_BYTES = 32 << 20  # bytes of cost rows _TvRows.blocks keeps once computed
# violations of u + v <= C smaller than this are rounding: costs are at most
# 2, and C - u - v computed at that scale errs by a few units of 2.2e-16
_PRICE_TOL = 1e-14


def _start_arcs(C, w1, w2) -> np.ndarray:
    """The first arcs of the transport LP, as sorted keys ``i * n + j``.

    The monotone plans along the projection key :func:`_merge_key` and along
    each cell's masses.  Each is a coupling of ``w1`` and ``w2``, so the
    restricted LP is feasible; the cells' plans hold many of the optimal arcs
    that rank far down their row and column.
    """
    n = C.shape[1]
    keys = [(_merge_key(C.a), _merge_key(C.b))]
    keys += [(C.a[:, c], C.b[:, c]) for c in range(C.a.shape[1])]
    plans = []
    for key1, key2 in keys:
        src, tgt, _ = _monotone_plan(*_line_sums(w1, w2, key1, key2))
        plans.append(src * n + tgt)
    return _sorted_union(plans[0], np.concatenate(plans[1:]))


def _price(C, u, v, arcs):
    """One scan of the reduced costs ``C - u - v`` in row blocks, through ``C.work``.

    Returns their minimum over every arc (i, j), and the most violated arc
    outside the sorted key set ``arcs`` of each row and of each column,
    where one is violated by more than rounding.
    """
    m, n = C.shape
    worst, new = np.inf, []
    col_low, col_arg = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
    for lo, block in C.blocks():
        reduced = np.subtract(block, u[lo:lo + len(block), None], out=C.work[:len(block)])
        reduced -= v
        worst = min(worst, float(reduced.min()))
        a, b = np.searchsorted(arcs, [lo * n, (lo + len(reduced)) * n])
        reduced.ravel()[arcs[a:b] - lo * n] = np.inf
        i, j = np.arange(len(reduced)), reduced.argmin(axis=1)
        hit = reduced[i, j] < -_PRICE_TOL
        new.append((lo + i[hit]) * n + j[hit])
        # a column's argmin only where it is violated and beats earlier blocks:
        # argmin down whole columns would copy the block transposed
        block_low = reduced.min(axis=0)
        j = np.flatnonzero((block_low < col_low) & (block_low < -_PRICE_TOL))
        col_arg[j] = lo + reduced[:, j].argmin(axis=0)
        np.minimum(col_low, block_low, out=col_low)
    hit = np.flatnonzero(col_low < -_PRICE_TOL)
    return worst, _sorted_union(np.concatenate(new), col_arg[hit] * n + hit)


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's bundled HiGHS bindings, loaded on first use without ``scipy.optimize``.

    ``from scipy.optimize._highspy import _core`` runs all of
    ``scipy.optimize/__init__`` (hundreds of modules, tens of MB) to reach
    one extension that loads alone in milliseconds.  The extension is found
    in scipy's package directory and registered under its own name before it
    is executed, so a later ``import scipy.optimize`` reuses it (pybind11
    registers its types once per process); one already imported is returned
    as it is.  Where scipy keeps no such file, the plain import names the fault.
    """
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    import importlib.util
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        finder = FileFinder(os.path.join(root, "optimize", "_highspy"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_HIGHS_CORE)
        if spec is not None:
            break
    else:
        from scipy.optimize._highspy import _core
        return _core
    core = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return core


def _lp_plan(w1, w2, C):
    """Optimal plan between atoms of weights ``w1`` and ``w2``, by column generation.

    ``C`` is the pair's :class:`_TvRows`, which keeps the leading row blocks
    within ``_KEEP_BYTES`` once computed (32 MiB: every row of a pair up to
    2,048 atoms a side), so each of those costs is computed once per solve;
    rows past the budget are computed again on each scan.  The arcs start as
    :func:`_start_arcs`, the monotone plans along the projection key and
    along each cell.  Each round solves the LP on the arcs and adds the most
    violated arc of each row and of each column; the round whose scan adds
    none ends the loop, and that scan is the global slackness check.  The
    set only grows, so the loop ends.

    One HiGHS model holds the m + n marginal rows; each round appends its
    new arcs as columns and solves again from the last basis.  Returns
    ``(src, tgt, mass, u, v, min_reduced)``: the plan, its potentials and
    the minimum of ``C - u - v`` over every arc from the last scan, the
    global half of the slackness certificate.
    """
    # HiGHS is driven directly: linprog rebuilds the model and checks every
    # input and option per call
    highs = _highs_core()

    def ok(status, call):
        if status != highs.HighsStatus.kOk:
            raise SolverFailure(f"transport LP: HiGHS {call} returned {status.name}")

    m, n = C.shape
    arcs = _start_arcs(C, w1, w2)
    lp = highs._Highs()
    # HiGHS's default feasibility tolerances (1e-7) let plans miss
    # _certify; its presolve slows these small LPs by about a third.
    # Strategy 0 lets HiGHS choose: dual simplex for the first solve, primal
    # from the last optimal basis once new columns make it dual infeasible
    for option, value in (("output_flag", False), ("solver", "simplex"),
                          ("simplex_strategy", 0), ("presolve", "off"),
                          ("primal_feasibility_tolerance", MARGINAL_TOL),
                          ("dual_feasibility_tolerance", MARGINAL_TOL)):
        ok(lp.setOptionValue(option, value), f"option {option}")
    b_eq = np.concatenate([w1, w2])
    ok(lp.addRows(m + n, b_eq, b_eq, 0, np.zeros(m + n, dtype=np.int32),
                  np.zeros(0, dtype=np.int32), np.zeros(0)), "addRows")
    columns, new = [], arcs
    while True:
        i, j = np.divmod(new, n)
        k = len(new)
        ok(lp.addCols(k, C[i, j], np.zeros(k), np.full(k, np.inf), 2 * k,
                      np.arange(0, 2 * k, 2, dtype=np.int32),
                      np.column_stack([i, m + j]).ravel().astype(np.int32),
                      np.ones(2 * k)), "addCols")
        columns.append(new)
        ok(lp.run(), "run")
        status = lp.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverFailure(f"transport LP failed: {lp.modelStatusToString(status)}")
        solution = lp.getSolution()
        dual = np.asarray(solution.row_dual)
        u, v = dual[:m], dual[m:]
        worst, new = _price(C, u, v, arcs)
        if not len(new):
            break
        arcs = _sorted_union(arcs, new)
    x = np.asarray(solution.col_value)
    on = x > 0
    i, j = np.divmod(np.concatenate(columns)[on], n)
    return i, j, x[on], u, v, worst


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
    its certificate raises :class:`SolverFailure`.  The monotone path builds
    no m-by-n array.  The LP starts from the monotone plans along the
    projection key and along each cell, and keeps its TV cost rows, up to
    ``_KEEP_BYTES`` (32 MiB), once computed: about 0.07 s for 729 atoms a
    side and 0.45 s for 2,187 on a 2-vCPU host.
    """
    _check_space(mu.space, nu.space, "measures live on different state spaces")
    _check_equal_mass(mu.total_mass, nu.total_mass)
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
        sums = _line_sums(w1, w2, key1, key2)
        src, tgt, mass = _monotone_plan(*sums)
        u, v = _line_potentials(key1, key2, *sums)
        min_reduced = _line_min_reduced(key1, key2, sums[2], u, v) - spread
    else:
        method = "lp"
        src, tgt, mass, u, v, min_reduced = _lp_plan(w1, w2, C)
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
class LipschitzFunction:
    """Bounded test function on K with declared Lipschitz data.

    ``fn`` maps an array of cell-mass vectors with shape ``(..., n_cells)``
    to values of shape ``(...)``; ``gamma`` and ``sup_norm`` are the declared
    Lipschitz constant (against total variation) and sup norm.  As a dual
    witness for transport only ``gamma`` is needed, and ``sup_norm`` may
    stay unbounded.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    gamma: float
    sup_norm: float = math.inf
    name: str = ""

    def __call__(self, x) -> float:
        masses = x.masses if isinstance(x, DensityVector) else np.asarray(x)
        return float(self.fn(masses))

    def on_masses(self, masses: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(masses), dtype=float)

    def expectation(self, mu: PointMassMeasure) -> float:
        """The integral of the function against ``mu``."""
        return float(mu.weights @ self.on_masses(mu.mass_matrix()))


# the dual witnesses of transport are test functions like any other
LipschitzWitness = LipschitzFunction


def hahn_witness(mu: PointMassMeasure, nu: PointMassMeasure) -> LipschitzWitness:
    """The sign-split witness z -> z(F1) - z(F2) of the two barycenters.

    F1 collects the cells where mu's barycenter dominates nu's; the witness
    has Lipschitz constant one and attains the barycenter gap.
    """
    _check_space(mu.space, nu.space, "measures live on different state spaces")
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
    _check_space(mu.space, nu.space, "measures live on different state spaces")
    _check_equal_mass(mu.total_mass, nu.total_mass)
    return float(np.abs(mu.barycenter_masses() - nu.barycenter_masses()).sum())


# ---------------------------------------------------------------------------
# constructive barycenter matching


def barycenter_match(phi: PointMassMeasure, b: DensityVector) -> PointMassMeasure:
    """Move phi's atoms so the barycenter becomes ``b`` at minimal total cost.

    Returns a measure with the same weights beta_k and new points zeta_k such
    that sum beta_k zeta_k = b and sum beta_k ||xi_k - zeta_k|| equals the
    distance between the old and new barycenters, which is the cheapest any
    coupling can be.  The transfer is proportional, in cell masses: with
    barycenter a and d = a - b, every atom gives up the share d/a of its
    mass on each cell where a exceeds b (at most all of it, as b >= 0) and
    spreads what it gave over the cells where b exceeds a in proportion to
    their shortfall.  Each atom keeps its lambda-mass, and no weight is
    divided by.  The target's mass must match the barycenter's.
    """
    if np.any(b.values < 0):
        raise NegativeTarget("target density must be nonnegative")
    _check_space(phi.space, b.space, "target lives on a different state space")
    xis = phi.mass_matrix()
    a = phi.weights @ xis
    _check_equal_mass(float(a.sum()), float(b.masses.sum()))
    d = a - b.masses
    over = d > 0
    given = xis * (np.where(over, d, 0.0) / np.where(over, a, 1.0))
    zetas = xis - given
    need = np.maximum(-d, 0.0)
    if need.sum() > 0:
        zetas += np.outer(given.sum(axis=1), need / need.sum())
    return PointMassMeasure.from_masses(phi.space, zetas, phi.weights)


def nearest_barycenter_distance(mu: PointMassMeasure, y: DensityVector
                                ) -> tuple[PointMassMeasure, float]:
    """Closest measure with barycenter ``r*y`` and the certified distance.

    The distance is the cost of moving each atom in place to its match from
    :func:`barycenter_match`, the upper bound; no measure with barycenter
    ``r*y`` lies closer than the barycenter gap ``r * ||x - y||``, the lower
    bound.  The two must meet within ``MARGINAL_TOL`` relative to
    ``max(1, r)``, or :class:`SolverFailure` is raised; no transport
    problem is solved.
    """
    _check_space(mu.space, y.space, "target lives on a different state space")
    r = mu.total_mass
    target = DensityVector(mu.space, y.values * r, unnormalized=True)
    psi = barycenter_match(mu, target)
    achieved = float(mu.weights @ np.abs(mu.mass_matrix() - psi.mass_matrix()).sum(axis=1))
    gap = float(np.abs(mu.barycenter_masses() - target.masses).sum())
    if abs(achieved - gap) > MARGINAL_TOL * max(1.0, r):
        raise SolverFailure(f"barycenter match costs {achieved!r} against a gap of {gap!r}")
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
    if pi is None:
        pi = barycenter(mu)
    else:
        _check_barycenter(mu, pi, "measure")
    mask = mu.space.mask(F)
    threshold = pi.mass_of(mask) / 2.0
    atom_f_mass = mu.mass_matrix()[:, mask].sum(axis=1)
    achieved = float(mu.weights[atom_f_mass >= threshold - 1e-15].sum())
    return achieved, threshold


def brute_force_uniform_assignment(mu: PointMassMeasure, nu: PointMassMeasure) -> float:
    """Independent oracle: minimum-cost atom permutation for uniform weights.

    Only valid when both measures carry equally many atoms of equal weight;
    by Birkhoff's theorem the optimum of the transport problem is then
    attained at a permutation.  Any other input, empty measures included,
    raises :class:`MassMismatch`.
    """
    _check_space(mu.space, nu.space, "measures live on different state spaces")
    if mu.n_atoms != nu.n_atoms:
        raise MassMismatch("assignment oracle needs equal atom counts")
    weights = np.concatenate([mu.weights, nu.weights])
    if not len(weights) or (weights != weights[0]).any():
        raise MassMismatch("assignment oracle needs atoms, every atom of both "
                           "measures carrying the same weight")
    C = _cost_matrix(mu, nu)
    best = None
    for perm in itertools.permutations(range(nu.n_atoms)):
        cost = sum(C[i, j] for i, j in enumerate(perm))
        if best is None or cost < best:
            best = cost
    return float(weights[0] * best)
