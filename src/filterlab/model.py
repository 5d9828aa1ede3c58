"""Hidden Markov models with densities on finite weighted grids.

A model lives on a finite state grid with cell weights ``lambda`` and a finite
observation grid with cell weights ``tau``.  The joint one-step law is given by
a nonnegative density tensor ``m[s, t, a]`` with respect to ``lambda (x) tau``:
starting from state cell ``s``, the probability of moving to cell ``t`` while
emitting observation ``a`` is ``m[s, t, a] * lambda[t] * tau[a]``.

Everything downstream (filtering, transport geometry, contraction bounds) is
built on top of the objects defined here.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadPartition,
    NegativeDensity,
    NonStochastic,
    NonStochasticEmission,
    SpaceMismatch,
    StateSpaceMismatch,
    UnknownObservation,
)

# Relative tolerance for "each row integrates to one"; rows inside the
# tolerance are renormalized so exact identities hold to machine precision.
STOCHASTIC_TOL = 1e-9

# Membership tolerance for normalized densities (elements of the simplex K).
NORMALIZED_TOL = 1e-12


def _check_stochastic(integrals: np.ndarray, cells, error, what: str = "") -> float:
    """The one row gate: every row integrates to one within ``STOCHASTIC_TOL``.

    Returns the worst deviation; else raises ``error`` naming the worst row.
    ``not off <= tol`` also refuses a NaN integral, and argmax names the first NaN.
    """
    dev = np.abs(integrals - 1.0)
    off = float(np.max(dev))
    if not off <= STOCHASTIC_TOL:
        bad = int(np.argmax(dev))
        raise error(f"{what}row {cells[bad]!r} integrates to {float(integrals[bad])!r}")
    return off


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_nonnegative(values: np.ndarray, error, what: str) -> None:
    """Refuse a negative, NaN or infinite entry, in two reductions and no temporary.

    A NaN makes the minimum NaN, which fails ``>= 0``; an empty array passes.
    """
    if values.size and not (values.min() >= 0 and values.max() < np.inf):
        raise error(f"{what} must be nonnegative and finite")


def _check_space(space, other, what: str, error=SpaceMismatch) -> None:
    """The one foreign-grid gate: refuse with ``error(what)`` unless the grids are equal."""
    if not space.same_as(other):
        raise error(what)


class _Grid:
    """Finite grid: ordered cell ids plus a positive weight per cell.

    The one implementation behind :class:`StateSpace` and :class:`ObsSpace`.
    Grids compare by value: same class, same cells, same weights.
    """

    # set by each subclass: the space, ids and weight names its messages use
    # (the weights live in the field ``<weight name>_weights``), then the noun
    # and error class of an unknown cell
    _names = ()

    def __post_init__(self):
        space, ids, name, _, _ = self._names
        cells, w = tuple(self.cells), _freeze(getattr(self, f"{name}_weights"))
        if len(cells) == 0:
            raise ValueError(f"{space} needs at least one cell")
        if len(set(cells)) != len(cells):
            raise ValueError(f"{ids} must be unique")
        if w.shape != (len(cells),):
            raise ValueError(f"one {name} weight per cell required")
        if not (w > 0).all() or not np.isfinite(w).all():
            raise ValueError(f"{name} weights must be positive and finite")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, f"{name}_weights", w)
        object.__setattr__(self, "_weights", w)  # the same array, read by the grid

    @classmethod
    def _counted(cls, n: int, ids=None, weights=None):
        """``n`` cells with ids 1..n and counting weights, unless given."""
        return cls(tuple(range(1, n + 1)) if ids is None else ids,
                   [1.0] * n if weights is None else weights)

    @property
    def n(self) -> int:
        return len(self.cells)

    @cached_property
    def _where(self) -> dict:
        """Each cell id's index, for :meth:`index`."""
        return {c: i for i, c in enumerate(self.cells)}

    def index(self, cell) -> int:
        try:
            return self._where[cell]
        except (KeyError, TypeError):  # TypeError: an unhashable cell
            *_, noun, error = self._names
            raise error(f"unknown {noun} {cell!r}") from None

    def mask(self, subset: Iterable) -> np.ndarray:
        """The one subset rule: cell ids, or a boolean mask of the grid's length."""
        if isinstance(subset, np.ndarray) and subset.dtype == bool:
            if subset.shape != (self.n,):
                raise ValueError(f"subset mask has shape {subset.shape}, not ({self.n},)")
            return subset
        out = np.zeros(self.n, dtype=bool)
        for c in subset:
            out[self.index(c)] = True
        return out

    def __eq__(self, other):
        return (type(self) is type(other) and self.cells == other.cells
                and np.array_equal(self._weights, other._weights))

    same_as = __eq__

    def __hash__(self):
        return hash((type(self), self.cells, self._weights.tobytes()))


@dataclass(frozen=True, eq=False)
class StateSpace(_Grid):
    """Finite state grid: ordered cell ids plus a positive weight per cell."""

    cells: tuple
    lambda_weights: np.ndarray
    _names = ("state space", "state cell ids", "lambda", "state cell", KeyError)


@dataclass(frozen=True, eq=False)
class ObsSpace(_Grid):
    """Finite observation grid: ordered ids plus a positive tau weight each."""

    cells: tuple
    tau_weights: np.ndarray
    _names = ("observation space", "observation ids", "tau", "observation",
              UnknownObservation)


class DensityVector:
    """A density over the state cells with respect to lambda.

    Normalized instances (lambda-integral one, within 1e-12) are the points of
    the filter's state space K.  Pass ``unnormalized=True`` where an operation
    explicitly works with general finite measures.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: StateSpace, values, *, unnormalized: bool = False):
        vals = _freeze(values)
        off = self._check_rows(space, vals[None], normalized=not unnormalized)
        if off:
            raise ValueError(
                f"density has lambda-integral {off[1]!r}, expected 1; "
                "pass unnormalized=True for general measures"
            )
        self.space = space
        self.values = vals

    @staticmethod
    def _check_rows(space: StateSpace, rows: np.ndarray, *, normalized: bool = True):
        """The checks of a density, on every row of ``rows`` at once.

        Refuses rows of the wrong length and negative or non-finite values.
        With ``normalized``, returns ``(i, mass)`` for the first row whose
        lambda-integral is off one by more than ``NORMALIZED_TOL``; else None.
        """
        if rows.ndim != 2 or rows.shape[1] != space.n:
            raise ValueError("one density value per state cell required")
        _check_nonnegative(rows, NegativeDensity, "density values")
        if normalized:
            for i, mass in enumerate((rows @ space.lambda_weights).tolist()):
                if abs(mass - 1.0) > NORMALIZED_TOL:
                    return i, mass
        return None

    @classmethod
    def from_masses(cls, space: StateSpace, masses, *, unnormalized: bool = False):
        masses = np.asarray(masses, dtype=float)
        return cls(space, masses / space.lambda_weights, unnormalized=unnormalized)

    @classmethod
    def point_mass(cls, space: StateSpace, cell) -> "DensityVector":
        """The density concentrating all mass on a single cell."""
        masses = np.zeros(space.n)
        masses[space.index(cell)] = 1.0
        return cls.from_masses(space, masses)

    @classmethod
    def uniform(cls, space: StateSpace) -> "DensityVector":
        return cls.from_masses(space, np.full(space.n, 1.0 / space.n))

    @property
    def masses(self) -> np.ndarray:
        """Cell masses: density times lambda weight."""
        return self.values * self.space.lambda_weights

    @property
    def mass(self) -> float:
        return float(self.values @ self.space.lambda_weights)

    def mass_of(self, subset) -> float:
        """Mass carried by a subset of cells (ids or boolean mask)."""
        return float(self.masses[self.space.mask(subset)].sum())

    def __repr__(self):
        return f"DensityVector({np.array2string(self.values, precision=6)})"


@dataclass(frozen=True, eq=False)
class SteppingKernel:
    """Sub-Markov matrix for one observation: entry (s,t) = m(s,t,a)*lambda(t).

    Acts on row vectors of cell masses; the total output mass is the
    likelihood of the observation.
    """

    observation: object
    matrix: np.ndarray

    def __init__(self, observation, matrix):
        mat = _freeze(matrix)
        _check_nonnegative(mat, NegativeDensity, "stepping kernel entries")
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "matrix", mat)


class HmmModel:
    """Immutable HMM with densities on finite weighted grids.

    Rows of the density tensor are validated to integrate to one against
    ``lambda (x) tau`` within ``STOCHASTIC_TOL`` and then renormalized; the
    worst pre-normalization deviation is kept in ``normalization_residual``.
    """

    __slots__ = (
        "states",
        "obs",
        "m",
        "p",
        "markov_matrix",
        "stepping_matrices",
        "normalization_residual",
    )

    def __init__(self, states: StateSpace, obs: ObsSpace, m):
        m = np.array(m, dtype=float)
        if m.shape != (states.n, states.n, obs.n):
            raise ValueError(
                f"density tensor must have shape (|S|,|S|,|A|)="
                f"({states.n},{states.n},{obs.n}), got {m.shape}"
            )
        _check_nonnegative(m, NegativeDensity, "density tensor")
        lam = states.lambda_weights
        tau = obs.tau_weights
        row_integrals = np.einsum("sta,t,a->s", m, lam, tau)
        residual = _check_stochastic(row_integrals, states.cells, NonStochastic)
        m = m / row_integrals[:, None, None]
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "m", _freeze(m))
        object.__setattr__(self, "normalization_residual", residual)
        # p(s,t) = sum_a m(s,t,a) tau(a); P(s,t) = p(s,t) lambda(t)
        p = np.einsum("sta,a->st", m, tau)
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "markov_matrix", _freeze(p * lam[None, :]))
        steps = _freeze(np.moveaxis(m * lam[None, :, None], 2, 0))
        object.__setattr__(self, "stepping_matrices", steps)

    def __setattr__(self, *_):
        raise AttributeError("HmmModel is immutable")

    @property
    def n_states(self) -> int:
        return self.states.n

    @property
    def n_obs(self) -> int:
        return self.obs.n

    def stepping_matrix(self, a) -> np.ndarray:
        return self.stepping_matrices[self.obs.index(a)]


def build_model(spec: dict) -> HmmModel:
    """Build and validate a model from its dictionary description.

    Expected shape::

        {"states": {"ids": [...], "lambda": [...]},
         "obs":    {"ids": [...], "tau": [...]},
         "m":      {"dense": [[[...]]]}          # indexed [s][t][a]
                   | {"p": [[...]], "q": [[...]]}  # m(s,t,a) = p(s,t) q(t,a)
        }

    ``lambda``/``tau`` default to counting weights when omitted.
    """
    st, ob, mspec = spec["states"], spec["obs"], spec["m"]
    if "dense" not in mspec and "p" in mspec and "q" in mspec:
        return product_model(mspec["p"], mspec["q"], ob.get("tau"), st["ids"], ob["ids"],
                             st.get("lambda"))
    states = StateSpace._counted(len(st["ids"]), st["ids"], st.get("lambda"))
    obs = ObsSpace._counted(len(ob["ids"]), ob["ids"], ob.get("tau"))
    if "dense" not in mspec:
        raise ValueError("m must supply either 'dense' or factored 'p'/'q'")
    return HmmModel(states, obs, np.asarray(mspec["dense"], dtype=float))


def load_model(path) -> HmmModel:
    with open(path) as fh:
        return build_model(json.load(fh))


def _write_csv(path, header: str, rows) -> None:
    """The one CSV writer: every cell by ``str``.

    Callers pass Python scalars (``.tolist()``), whose floats ``str`` writes
    as ``repr`` does, which round-trips; a numpy 2 scalar's ``repr`` would
    read ``np.float64(...)``.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def stepping_kernel(model: HmmModel, a) -> SteppingKernel:
    """The kernel "transition and observe ``a``" acting on cell masses.

    Summed against the tau weights over all observations these recover the
    Markov kernel matrix exactly (for counting tau, the plain sum).
    """
    return SteppingKernel(a, model.stepping_matrix(a))


def markov_kernel(model: HmmModel) -> np.ndarray:
    """Row-stochastic transition matrix P(s,t) = p(s,t) * lambda(t)."""
    return model.markov_matrix


def _chain(m: np.ndarray, tau: np.ndarray, model: HmmModel):
    """Densities and tau weights of ``(m, tau)`` followed by one step of ``model``.

    The intermediate state is integrated against lambda; the observations of
    the result are the pairs, ordered lexicographically.
    """
    s = model.n_states
    m = np.einsum("ska,k,ktb->stab", m, model.states.lambda_weights, model.m)
    return m.reshape(s, s, -1), np.outer(tau, model.obs.tau_weights).ravel()


def compose(model1: HmmModel, model2: HmmModel) -> HmmModel:
    """Chain two models over the same state grid.

    The composite observes the pair (a1, a2); its density integrates the
    intermediate state against lambda.  Associative up to float roundoff.
    """
    _check_space(model1.states, model2.states, "composition requires identical state spaces",
                 StateSpaceMismatch)
    m12, tau = _chain(model1.m, model1.obs.tau_weights, model2)
    ids = [(a, b) for a in model1.obs.cells for b in model2.obs.cells]
    return HmmModel(model1.states, ObsSpace(ids, tau), m12)


def iterate(model: HmmModel, n: int) -> HmmModel:
    """The model that collects observations in blocks of ``n``.

    Observation cells are length-``n`` tuples materialized in lexicographic
    order; their tau weights multiply.
    """
    if n < 1:
        raise ValueError("iterate requires n >= 1")
    if n == 1:
        return model
    m, tau = model.m, model.obs.tau_weights
    for _ in range(n - 1):
        m, tau = _chain(m, tau, model)
    ids = list(itertools.product(model.obs.cells, repeat=n))
    return HmmModel(model.states, ObsSpace(ids, tau), m)


@dataclass(eq=False)
class ErgodicityReport:
    """Direct-solve outcome plus per-step worst-case mixing distances.

    ``sup_tv[k]`` is ``max_s || P^{k+1}(s,.) - pi ||`` in total variation.
    ``ergodic`` is decided on P's support: one closed class, and that class
    aperiodic; a periodic or reducible chain still gets its stationary law,
    flagged.  ``null_dim`` is the dimension of the solution space of
    ``pi P = pi``, the number of closed classes of P's support: above one the
    chain is reducible and its stationary law is not unique.
    """

    converged: bool
    iterations: int
    residual: float
    sup_tv: np.ndarray
    ergodic: bool
    note: str = ""
    null_dim: int = 1


def stationary(model: HmmModel) -> tuple[DensityVector, ErgodicityReport]:
    """Stationary density by a direct solve plus ergodicity diagnostics.

    Solves ``pi P = pi`` with ``sum(pi) = 1`` by least squares, so no
    iteration runs (``iterations`` is 0); the report is ``converged`` when
    the residual is at most 1e-12.  A solution space of dimension above one
    (a reducible chain: several closed classes of P's support, counted in
    booleans) is reported in ``null_dim`` and in the note, and the law
    returned is then the minimum-norm solution, a mixture of the chain's
    closed classes.  The chain is ``ergodic`` when it has one closed class
    and some power of that class's support is positive (it is aperiodic);
    by Wielandt's bound some power is positive only if the power
    ``(c - 1)**2 + 1`` of a ``c``-cell class is, so squaring the boolean
    support up to it decides.  ``sup_tv``, the worst-case distance of
    ``P^n`` rows to pi, is measured up to 512 steps, or until it reaches
    1e-12.  Ties and periodicity are reported, never resolved.
    """
    tol, diag_horizon = 1e-12, 512
    P = model.markov_matrix
    k = model.n_states
    reach = (P > 0) | np.eye(k, dtype=bool)
    for j in range(k):  # Warshall's closure: add the paths through cell j
        reach |= reach[:, j:j + 1] & reach[j]
    closed = ~(reach & ~reach.T).any(axis=1)  # every cell reached reaches back
    # each closed class counted once, at its first cell
    null_dim = int((closed & (reach.argmax(axis=1) == np.arange(k))).sum())
    ergodic = False
    if null_dim == 1:
        power = (P > 0)[np.ix_(closed, closed)]
        for _ in range(((len(power) - 1) ** 2).bit_length()):  # 2**j >= (c - 1)**2 + 1
            power = power @ power
        ergodic = bool(power.all())
    A = P.T - np.eye(k)
    x = np.linalg.lstsq(np.vstack([A, np.ones(k)]), np.r_[np.zeros(k), 1.0],
                        rcond=None)[0]
    x = np.maximum(x, 0.0)
    x /= x.sum()
    residual = float(np.abs(x @ P - x).sum())
    rows = np.eye(k)
    sup_tv = []
    for _ in range(diag_horizon):
        rows = rows @ P
        sup_tv.append(float(np.abs(rows - x[None, :]).sum(axis=1).max()))
        if sup_tv[-1] <= tol:
            break
    if null_dim > 1:
        note = (f"reducible: pi P = pi has a {null_dim}-dimensional solution space, "
                "so the stationary law is not unique; the minimum-norm one is returned")
    else:
        note = "" if ergodic else ("periodic: no power of the closed class's support "
                                   "is positive, so P^n does not converge")
    report = ErgodicityReport(
        converged=residual <= tol,
        iterations=0,
        residual=residual,
        sup_tv=np.asarray(sup_tv),
        ergodic=ergodic,
        note=note,
        null_dim=null_dim,
    )
    return DensityVector.from_masses(model.states, x), report


@dataclass(frozen=True)
class SimulationPath:
    """One sampled trajectory: hidden states plus emitted observations.

    ``states`` has length ``n + 1`` (the initial state first); ``observations``
    has length ``n`` and ``observations[k]`` was emitted while entering
    ``states[k + 1]``.
    """

    states: tuple
    observations: tuple


def simulate(model: HmmModel, x0: DensityVector, n: int, seed: int) -> SimulationPath:
    """Sample a hidden path and observations; deterministic under the seed."""
    if n < 1:
        raise ValueError("simulate requires n >= 1")
    _check_space(x0.space, model.states, "initial density lives on a different state space")
    rng = np.random.default_rng(seed)
    lam = model.states.lambda_weights
    tau = model.obs.tau_weights
    start = x0.masses
    start = start / start.sum()
    s = int(rng.choice(model.n_states, p=start))
    # joint[(t, a)] = m(s,t,a) lambda(t) tau(a), one table per source cell
    joint = model.m * lam[None, :, None] * tau[None, None, :]
    joint = joint.reshape(model.n_states, -1)
    joint = joint / joint.sum(axis=1, keepdims=True)
    # one uniform per step through the row CDF, as ``rng.choice(p=joint[s])`` draws;
    # bisect_right on Python floats picks the cell searchsorted(side="right") does
    cdf = joint.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    cdf = cdf.tolist()
    states = [model.states.cells[s]]
    observations = []
    for u in rng.random(n).tolist():
        t, a = divmod(bisect.bisect_right(cdf[s], u), model.n_obs)
        states.append(model.states.cells[t])
        observations.append(model.obs.cells[a])
        s = t
    return SimulationPath(tuple(states), tuple(observations))


# ---------------------------------------------------------------------------
# fixture builders reused across the package


def partition_model(p, partition: Sequence[Sequence], state_ids=None,
                    lambda_weights=None) -> HmmModel:
    """Model that observes which block of a state partition was entered.

    ``m(s,t,a) = p(s,t) * 1[t in block a]`` with counting tau, informative
    exactly to the resolution of the partition: the :func:`product_model` of
    ``p`` and the blocks' 0/1 indicator emission.  Raises
    :class:`BadPartition` unless the blocks cover every state exactly once.
    """
    states = StateSpace._counted(len(p), state_ids, lambda_weights)
    q = np.zeros((states.n, len(partition)))
    for a, block in enumerate(partition):
        rows = [states.index(c) for c in block]
        if not rows:
            raise BadPartition("empty partition block")
        np.add.at(q, (rows, a), 1.0)  # a cell listed twice in a block counts twice
    if np.any(q.sum(axis=1) != 1.0):
        raise BadPartition("blocks must cover every state exactly once")
    return product_model(p, q, state_ids=states.cells, lambda_weights=states.lambda_weights)


def product_model(p, q, tau_weights=None, state_ids=None, obs_ids=None,
                  lambda_weights=None) -> HmmModel:
    """Model whose emission depends only on the landing state: m = p(s,t) q(t,a)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, n_obs = q.shape
    states = StateSpace._counted(n, state_ids, lambda_weights)
    obs = ObsSpace._counted(n_obs, obs_ids, tau_weights)
    if p.shape != (states.n, states.n) or q.shape != (states.n, obs.n):
        raise ValueError("factored form needs p of shape (|S|,|S|), q of (|S|,|A|)")
    _check_stochastic(q @ obs.tau_weights, states.cells, NonStochasticEmission, "emission ")
    _check_stochastic(p @ states.lambda_weights, states.cells, NonStochastic,
                      "p is not row-stochastic under lambda: ")
    m = p[:, :, None] * q[None, :, :]
    return HmmModel(states, obs, m)
