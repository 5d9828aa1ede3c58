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

import itertools
import json
from dataclasses import dataclass
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


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateSpace:
    """Finite state grid: ordered cell ids plus a positive weight per cell."""

    cells: tuple
    lambda_weights: np.ndarray

    def __init__(self, cells: Sequence, lambda_weights: Sequence[float]):
        cells = tuple(cells)
        lam = _freeze(lambda_weights)
        if len(cells) == 0:
            raise ValueError("state space needs at least one cell")
        if len(set(cells)) != len(cells):
            raise ValueError("state cell ids must be unique")
        if lam.shape != (len(cells),):
            raise ValueError("one lambda weight per cell required")
        if np.any(lam <= 0):
            raise ValueError("lambda weights must be positive")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "lambda_weights", lam)

    @property
    def n(self) -> int:
        return len(self.cells)

    def index(self, cell) -> int:
        try:
            return self.cells.index(cell)
        except ValueError:
            raise KeyError(f"unknown state cell {cell!r}") from None

    def mask(self, subset: Iterable) -> np.ndarray:
        """Boolean mask of a subset given by cell ids."""
        out = np.zeros(self.n, dtype=bool)
        for c in subset:
            out[self.index(c)] = True
        return out

    def same_as(self, other: "StateSpace") -> bool:
        return self.cells == other.cells and np.array_equal(
            self.lambda_weights, other.lambda_weights
        )


@dataclass(frozen=True)
class ObsSpace:
    """Finite observation grid: ordered ids plus a positive tau weight each."""

    cells: tuple
    tau_weights: np.ndarray

    def __init__(self, cells: Sequence, tau_weights: Sequence[float]):
        cells = tuple(cells)
        tau = _freeze(tau_weights)
        if len(cells) == 0:
            raise ValueError("observation space needs at least one cell")
        if len(set(cells)) != len(cells):
            raise ValueError("observation ids must be unique")
        if tau.shape != (len(cells),):
            raise ValueError("one tau weight per cell required")
        if np.any(tau <= 0):
            raise ValueError("tau weights must be positive")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "tau_weights", tau)

    @property
    def n(self) -> int:
        return len(self.cells)

    def index(self, cell) -> int:
        try:
            return self.cells.index(cell)
        except ValueError:
            raise UnknownObservation(f"unknown observation {cell!r}") from None

    def mask(self, subset: Iterable) -> np.ndarray:
        out = np.zeros(self.n, dtype=bool)
        for c in subset:
            out[self.index(c)] = True
        return out


class DensityVector:
    """A density over the state cells with respect to lambda.

    Normalized instances (lambda-integral one, within 1e-12) are the points of
    the filter's state space K.  Pass ``unnormalized=True`` where an operation
    explicitly works with general finite measures.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: StateSpace, values, *, unnormalized: bool = False):
        vals = _freeze(values)
        if vals.shape != (space.n,):
            raise ValueError("one density value per state cell required")
        if np.any(vals < 0):
            raise NegativeDensity("density values must be nonnegative")
        if not unnormalized:
            mass = float(vals @ space.lambda_weights)
            if abs(mass - 1.0) > NORMALIZED_TOL:
                raise ValueError(
                    f"density has lambda-integral {mass!r}, expected 1; "
                    "pass unnormalized=True for general measures"
                )
        self.space = space
        self.values = vals

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
        mask = subset if isinstance(subset, np.ndarray) else self.space.mask(subset)
        return float(self.masses[mask].sum())

    def __repr__(self):
        return f"DensityVector({np.array2string(self.values, precision=6)})"


@dataclass(frozen=True)
class SteppingKernel:
    """Sub-Markov matrix for one observation: entry (s,t) = m(s,t,a)*lambda(t).

    Acts on row vectors of cell masses; the total output mass is the
    likelihood of the observation.
    """

    observation: object
    matrix: np.ndarray

    def __init__(self, observation, matrix):
        mat = _freeze(matrix)
        if np.any(mat < 0):
            raise NegativeDensity("stepping kernel entries must be nonnegative")
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
        if np.any(m < 0):
            raise NegativeDensity("density tensor must be nonnegative")
        lam = states.lambda_weights
        tau = obs.tau_weights
        row_integrals = np.einsum("sta,t,a->s", m, lam, tau)
        residual = float(np.max(np.abs(row_integrals - 1.0)))
        if residual > STOCHASTIC_TOL:
            bad = int(np.argmax(np.abs(row_integrals - 1.0)))
            raise NonStochastic(
                f"row {states.cells[bad]!r} integrates to {row_integrals[bad]!r}"
            )
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
    st = spec["states"]
    ids = st["ids"]
    lam = st.get("lambda", [1.0] * len(ids))
    states = StateSpace(ids, lam)
    ob = spec["obs"]
    oids = ob["ids"]
    tau = ob.get("tau", [1.0] * len(oids))
    obs = ObsSpace(oids, tau)
    mspec = spec["m"]
    if "dense" in mspec:
        m = np.asarray(mspec["dense"], dtype=float)
    elif "p" in mspec and "q" in mspec:
        p = np.asarray(mspec["p"], dtype=float)
        q = np.asarray(mspec["q"], dtype=float)
        if p.shape != (states.n, states.n) or q.shape != (states.n, obs.n):
            raise ValueError("factored form needs p of shape (|S|,|S|), q of (|S|,|A|)")
        m = p[:, :, None] * q[None, :, :]
    else:
        raise ValueError("m must supply either 'dense' or factored 'p'/'q'")
    return HmmModel(states, obs, m)


def load_model(path) -> HmmModel:
    with open(path) as fh:
        return build_model(json.load(fh))


def _write_csv(path, header: str, rows) -> None:
    """The one CSV writer: floats as ``repr(float(v))``, which round-trips
    (a numpy 2 scalar's own ``repr`` reads ``np.float64(...)``), the rest by ``str``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")


def stepping_kernel(model: HmmModel, a) -> SteppingKernel:
    """The kernel "transition and observe ``a``" acting on cell masses.

    Summed against the tau weights over all observations these recover the
    Markov kernel matrix exactly (for counting tau, the plain sum).
    """
    return SteppingKernel(a, model.stepping_matrix(a))


def markov_kernel(model: HmmModel) -> np.ndarray:
    """Row-stochastic transition matrix P(s,t) = p(s,t) * lambda(t)."""
    return model.markov_matrix


def compose(model1: HmmModel, model2: HmmModel) -> HmmModel:
    """Chain two models over the same state grid.

    The composite observes the pair (a1, a2); its density integrates the
    intermediate state against lambda.  Associative up to float roundoff.
    """
    if not model1.states.same_as(model2.states):
        raise StateSpaceMismatch("composition requires identical state spaces")
    lam = model1.states.lambda_weights
    m12 = np.einsum("ska,k,ktb->stab", model1.m, lam, model2.m)
    s = model1.n_states
    m12 = m12.reshape(s, s, model1.n_obs * model2.n_obs)
    ids = [(a, b) for a in model1.obs.cells for b in model2.obs.cells]
    tau = np.outer(model1.obs.tau_weights, model2.obs.tau_weights).ravel()
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
    lam = model.states.lambda_weights
    s = model.n_states
    cur = model.m
    for _ in range(n - 1):
        cur = np.einsum("ska,k,ktb->stab", cur, lam, model.m).reshape(s, s, -1)
    ids = list(itertools.product(model.obs.cells, repeat=n))
    tau = model.obs.tau_weights
    tau_n = tau
    for _ in range(n - 1):
        tau_n = np.outer(tau_n, tau).ravel()
    return HmmModel(model.states, ObsSpace(ids, tau_n), cur)


@dataclass
class ErgodicityReport:
    """Direct-solve outcome plus per-step worst-case mixing distances.

    ``sup_tv[k]`` is ``max_s || P^{k+1}(s,.) - pi ||`` in total variation.
    ``ergodic`` records whether that sequence fell below tolerance inside the
    diagnostic horizon; when it did not (periodic or reducible chains) the
    stationary law is still returned but flagged.  ``null_dim`` is the
    dimension of the solution space of ``pi P = pi``: above one the chain is
    reducible and its stationary law is not unique.
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
    the residual is at most 1e-12, and ``ergodic`` when the worst-case
    distance of ``P^n`` rows to pi falls to 1e-12 within 512 steps.  A solution
    space of dimension above one (a reducible chain) is reported in
    ``null_dim`` and in the note, and the law returned is then the
    minimum-norm solution, a mixture of the chain's closed classes.  Ties and
    periodicity are reported, never resolved: the report's flags say whether
    the worst-case mixing distance actually decayed.
    """
    tol, diag_horizon = 1e-12, 512
    P = model.markov_matrix
    k = model.n_states
    A = P.T - np.eye(k)
    s = np.linalg.svd(A, compute_uv=False)
    null_dim = int((s <= s.max() * k * np.finfo(float).eps).sum())
    x = np.linalg.lstsq(np.vstack([A, np.ones(k)]), np.r_[np.zeros(k), 1.0],
                        rcond=None)[0]
    x = np.maximum(x, 0.0)
    x /= x.sum()
    residual = float(np.abs(x @ P - x).sum())
    rows = np.eye(k)
    sup_tv = []
    ergodic = False
    for _ in range(diag_horizon):
        rows = rows @ P
        sup_tv.append(float(np.abs(rows - x[None, :]).sum(axis=1).max()))
        if sup_tv[-1] <= tol:
            ergodic = True
            break
    notes = [] if null_dim == 1 else [
        f"reducible: pi P = pi has a {null_dim}-dimensional solution space, "
        "so the stationary law is not unique; the minimum-norm one is returned"]
    if not ergodic:
        notes.append("sup-distance plateau within diagnostic horizon; "
                     "chain may be periodic or reducible")
    report = ErgodicityReport(
        converged=residual <= tol,
        iterations=0,
        residual=residual,
        sup_tv=np.asarray(sup_tv),
        ergodic=ergodic,
        note="; ".join(notes),
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
    if not x0.space.same_as(model.states):
        raise SpaceMismatch("initial density lives on a different state space")
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
    # one uniform per step through the row CDF, as ``rng.choice(p=joint[s])`` draws
    cdf = joint.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(n)
    states = [model.states.cells[s]]
    observations = []
    for k in range(n):
        flat = int(cdf[s].searchsorted(u[k], side="right"))
        t, a = divmod(flat, model.n_obs)
        states.append(model.states.cells[t])
        observations.append(model.obs.cells[a])
        s = t
    return SimulationPath(tuple(states), tuple(observations))


# ---------------------------------------------------------------------------
# fixture builders reused across the package


def partition_model(p, partition: Sequence[Sequence], state_ids=None,
                    lambda_weights=None) -> HmmModel:
    """Model that observes which block of a state partition was entered.

    ``m(s,t,a) = p(s,t) * 1[t in block a]`` with counting tau.  Raises
    :class:`BadPartition` unless the blocks cover every state exactly once.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError("p must be square")
    ids = tuple(state_ids) if state_ids is not None else tuple(range(1, n + 1))
    lam = lambda_weights if lambda_weights is not None else [1.0] * n
    states = StateSpace(ids, lam)
    row = p @ states.lambda_weights
    if np.max(np.abs(row - 1.0)) > STOCHASTIC_TOL:
        raise NonStochastic("p is not row-stochastic under lambda")
    seen = []
    masks = []
    for block in partition:
        mask = states.mask(block)
        if not mask.any():
            raise BadPartition("empty partition block")
        masks.append(mask)
        seen.extend(states.index(c) for c in block)
    if sorted(seen) != list(range(n)):
        raise BadPartition("blocks must cover every state exactly once")
    obs = ObsSpace(tuple(range(1, len(masks) + 1)), [1.0] * len(masks))
    m = np.stack([p * mask[None, :] for mask in masks], axis=2)
    return HmmModel(states, obs, m)


def product_model(p, q, tau_weights=None, state_ids=None, obs_ids=None,
                  lambda_weights=None) -> HmmModel:
    """Model whose emission depends only on the landing state: m = p(s,t) q(t,a)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, n_obs = q.shape
    if p.shape != (n, n):
        raise ValueError("p must be square and match q's state dimension")
    ids = tuple(state_ids) if state_ids is not None else tuple(range(1, n + 1))
    lam = lambda_weights if lambda_weights is not None else [1.0] * n
    states = StateSpace(ids, lam)
    oids = tuple(obs_ids) if obs_ids is not None else tuple(range(1, n_obs + 1))
    tau = tau_weights if tau_weights is not None else [1.0] * n_obs
    obs = ObsSpace(oids, tau)
    rows = q @ obs.tau_weights
    if np.max(np.abs(rows - 1.0)) > STOCHASTIC_TOL:
        bad = int(np.argmax(np.abs(rows - 1.0)))
        raise NonStochasticEmission(
            f"emission row {ids[bad]!r} integrates to {rows[bad]!r}"
        )
    prow = p @ states.lambda_weights
    if np.max(np.abs(prow - 1.0)) > STOCHASTIC_TOL:
        raise NonStochastic("p is not row-stochastic under lambda")
    m = p[:, :, None] * q[None, :, :]
    return HmmModel(states, obs, m)
