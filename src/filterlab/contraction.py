"""Contraction certificates for products of nonnegative kernels.

A kernel whose positive entries fill an exact rectangle of rows and columns
contracts the projective geometry of densities it acts on: the worst
cross-ratio of its entries yields a factor ``(kappa - 1) / (kappa + 1)`` per
application, and a product of such kernels merges any two starts at the rate
``2 * prod (kappa_m - 1) / (kappa_m + 1)`` in total variation.

On top of that sit the model-level checkers: an eventually-subrectangular
product witness, the rank-one-closure probe for normalized stepping products,
the block-positivity certificate for the density tensor, and the derived
uniform-likelihood/contraction constants, whose two inequalities are decided
on the vertices of the threshold polytope.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    AmbiguousSupport,
    BudgetExceeded,
    CertificateInvalid,
    DegenerateProduct,
    DivisionByZeroMass,
    FilterlabError,
    HypothesisViolated,
    KappaBelowOne,
    NonpositiveEntry,
)
from .filter import ENUMERATION_BUDGET, _cell_sum, _check_budget
from .model import DensityVector, HmmModel, _check_space

# (density row, observation sequence) branches, and stepping-product entries,
# that one block of e1_constants holds; its pairs are compared a row offset
# at a time
_E1_BLOCK = 1 << 13


def _positive_mask(kernel: np.ndarray, zero_tol: float) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=float)
    if zero_tol > 0.0:
        ambiguous = (kernel > 0.0) & (kernel < zero_tol)
        if ambiguous.any():
            i, j = np.argwhere(ambiguous)[0]
            raise AmbiguousSupport(
                f"entry ({i},{j})={float(kernel[i, j])!r} lies strictly between 0 "
                f"and the support tolerance {zero_tol!r}"
            )
        return kernel >= zero_tol
    return kernel > 0.0


@dataclass(frozen=True)
class RectSupport:
    """Row and column index sets on which a kernel is strictly positive."""

    rows: tuple
    cols: tuple


def rectangular_support(kernel, zero_tol: float = 0.0) -> RectSupport | None:
    """The support rectangle of a kernel, or None if the support is not one.

    Entries strictly between zero and a positive ``zero_tol`` raise rather
    than being coerced either way.
    """
    pos = _positive_mask(kernel, zero_tol)
    if not pos.any() or not _is_rectangle(pos):
        return None
    rows, cols = (np.flatnonzero(pos.any(axis=axis)) for axis in (1, 0))
    return RectSupport(tuple(int(r) for r in rows), tuple(int(c) for c in cols))


def _is_rectangle(pos: np.ndarray) -> np.ndarray:
    """Whether each boolean pattern fills the product of its rows and columns."""
    return (pos.sum(axis=(-2, -1))
            == pos.any(axis=-1).sum(axis=-1) * pos.any(axis=-2).sum(axis=-1))


def _rows_cols(kernel: np.ndarray, rows, cols) -> tuple[list, list]:
    """The given row and column sets, else those of the support rectangle."""
    if rows is None or cols is None:
        sup = rectangular_support(kernel)
        if sup is None:
            raise NonpositiveEntry("kernel has no rectangular support; pass rows/cols")
        rows = sup.rows if rows is None else rows
        cols = sup.cols if cols is None else cols
    return list(rows), list(cols)


def is_subrectangular(kernel) -> bool:
    """Positivity at (i1,j1) and (i2,j2) forces it at (i1,j2) and (i2,j1).

    Equivalent to the positive set (entries above zero) being an exact
    rectangle; the zero kernel satisfies the implication vacuously.
    """
    return bool(_is_rectangle(_positive_mask(kernel, 0.0)))


def cross_ratio_kappa(kernel, rows=None, cols=None, max_dense: int = 2_000_000
                      ) -> float:
    """Square root of the worst entry cross-ratio on the support rectangle.

    The worst ``k(a,c) k(b,d) / (k(b,c) k(a,d))`` over all index quadruples
    is, over column pairs (c, d), the largest row ratio ``k(s,c) / k(s,d)``
    divided by the smallest: the exact maximum in O(rows * cols**2) work.
    The ratios are formed for a chunk of columns d at a time, whose array
    holds at most ``max_dense`` entries (one column at least).
    """
    kernel = np.asarray(kernel, dtype=float)
    rows, cols = _rows_cols(kernel, rows, cols)
    block = kernel[np.ix_(rows, cols)]
    if np.any(block <= 0):
        i, j = np.argwhere(block <= 0)[0]
        raise NonpositiveEntry(
            f"kernel entry at support position ({i},{j}) is not positive"
        )
    nf, ng = block.shape
    chunk = max(1, max_dense // (nf * ng))
    worst = 1.0
    for lo in range(0, ng, chunk):
        ratios = block[:, :, None] / block[:, None, lo:lo + chunk]
        worst = max(worst, float((ratios.max(axis=0) / ratios.min(axis=0)).max()))
    return float(np.sqrt(worst))


def hopf_bound(kappas) -> float:
    """Total-variation merge bound 2 * prod (kappa_m - 1)/(kappa_m + 1)."""
    kappas = np.asarray(kappas, dtype=float)
    if np.any(kappas < 1.0):
        raise KappaBelowOne(f"cross-ratio coefficients must be >= 1, got {kappas}")
    return float(2.0 * np.prod((kappas - 1.0) / (kappas + 1.0)))


@dataclass
class HopfCheck:
    """Both sides of the projective contraction estimate for one product."""

    achieved: float
    bound: float
    kappas: tuple
    supports: tuple

    @property
    def ok(self) -> bool:
        return self.achieved <= self.bound + 1e-12


def verify_hopf(kernels, x, y) -> HopfCheck:
    """Evaluate the contraction estimate on a concrete kernel product.

    ``x`` and ``y`` are nonnegative mass row-vectors.  Hypotheses checked:
    every factor has rectangular support, both starts charge the first row
    set, and the product keeps positive mass from each first-row state.
    Raises :class:`HypothesisViolated` naming the failing hypothesis, and
    :class:`FilterlabError` if the (proved) estimate were ever exceeded.
    """
    kernels = [np.asarray(k, dtype=float) for k in kernels]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    supports = []
    kappas = []
    for m, k in enumerate(kernels):
        sup = rectangular_support(k)
        if sup is None:
            raise HypothesisViolated(f"kernel {m} does not have rectangular support")
        supports.append(sup)
        kappas.append(cross_ratio_kappa(k, sup.rows, sup.cols))
    f1 = list(supports[0].rows)
    if x[f1].sum() <= 0.0:
        raise HypothesisViolated("x carries no mass on the first row set")
    if y[f1].sum() <= 0.0:
        raise HypothesisViolated("y carries no mass on the first row set")
    product = functools.reduce(np.matmul, kernels)
    row_mass = product[f1].sum(axis=1)
    if np.any(row_mass <= 0.0):
        bad = f1[int(np.argmin(row_mass))]
        raise HypothesisViolated(
            f"product loses all mass from first-row state {bad}"
        )
    xp = x @ product
    yp = y @ product
    achieved = float(np.abs(xp / xp.sum() - yp / yp.sum()).sum())
    bound = hopf_bound(kappas)
    check = HopfCheck(achieved=achieved, bound=bound,
                      kappas=tuple(kappas), supports=tuple(supports))
    if not check.ok:
        raise FilterlabError(
            f"contraction estimate violated: achieved {achieved!r} > bound {bound!r}"
        )
    return check


def birkhoff_osc_step(kernel, u, v, rows=None, cols=None) -> tuple[float, float]:
    """One-step oscillation contraction of the ratio of two kernel integrals.

    Returns ``(osc_F(v1/u1), factor * osc_G(v/u))`` where ``u1 = K u``,
    ``v1 = K v`` and ``factor = (kappa - 1)/(kappa + 1)``.  Raises on a
    vanishing denominator and if the inequality between the two sides fails.
    """
    kernel = np.asarray(kernel, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rows, cols = _rows_cols(kernel, rows, cols)
    if np.any(u[cols] <= 0.0):
        raise DivisionByZeroMass("u vanishes on the column set; v/u unbounded")
    u1 = kernel @ u
    v1 = kernel @ v
    if np.any(u1[rows] <= 0.0):
        raise DivisionByZeroMass("kernel integral of u vanishes on the row set")
    ratio1 = v1[rows] / u1[rows]
    ratio0 = v[cols] / u[cols]
    kappa = cross_ratio_kappa(kernel, rows, cols)
    lhs = float(ratio1.max() - ratio1.min())
    rhs = float((kappa - 1.0) / (kappa + 1.0) * (ratio0.max() - ratio0.min()))
    if lhs > rhs + 1e-12:
        raise FilterlabError(
            f"oscillation step violated: {lhs!r} > {rhs!r}"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# model-level condition checkers


def check_condition_A(model: HmmModel, max_len: int,
                      budget: int = ENUMERATION_BUDGET):
    """Shortest observation sequence whose stepping product is subrectangular.

    Decided on supports, which multiply as boolean matrices: a breadth-first
    search, in length then lexicographic order, that steps each pattern of
    the finite support semigroup once and computes no float product.
    Returns the shortest, lexicographically first witness, or ``None`` once
    the closure is exhausted: no product of any length is subrectangular.
    Raises :class:`BudgetExceeded`, naming the limit, when ``max_len`` or
    ``budget`` (patterns held, checked before each level) stops it first.
    """
    supports = model.stepping_matrices > 0.0
    k, n_obs = model.n_states, model.n_obs
    seen = {np.zeros((k, k), bool).tobytes()}  # a zero product witnesses nothing
    frontier, seqs = np.eye(k, dtype=bool)[None], np.zeros((1, 0), dtype=np.int64)
    for length in range(1, max_len + 2):
        _check_budget(len(seen) + len(frontier) * n_obs, budget,
                      f"support patterns at length {length}")
        children = (frontier[:, None] @ supports[None]).reshape(-1, k, k)
        # the first sequence of every pattern not met before, in sequence order
        first = {c.tobytes(): i for i, c in reversed(list(enumerate(children)))}
        keep = np.array(sorted(i for key, i in first.items() if key not in seen), int)
        seen.update(first)
        if not keep.size:
            return None
        if length > max_len:
            raise BudgetExceeded(f"max_len {max_len} reached, closure not exhausted")
        frontier = children[keep]
        seqs = np.column_stack([seqs[keep // n_obs], keep % n_obs])
        hits = np.flatnonzero(_is_rectangle(frontier))
        if hits.size:
            return tuple(model.obs.cells[a] for a in seqs[hits[0]])


@dataclass(eq=False)
class KrReport:
    """Rank-one approach of normalized stepping products along a sequence.

    ``ratios[k]`` is the second-to-first singular value ratio of the
    normalized product of the first ``k + 1`` stepping kernels.  The verdict
    is convergence evidence with a fitted geometric rate, never a proof of
    membership in the closure.
    """

    sequence: tuple
    ratios: np.ndarray
    verdict: bool
    rate: float | None
    rate_residual: float | None
    tol: float


def _fit_rate(values: np.ndarray) -> tuple[float | None, float | None]:
    """Geometric rate fitted on the last half of a positive sequence."""
    n = len(values)
    idx = np.arange(n)[n // 2:]
    idx = idx[values[idx] > 0]
    if len(idx) < 2:
        return None, None
    coeffs, res, *_ = np.polyfit(idx.astype(float), np.log(values[idx]), 1,
                                 full=True)
    return float(np.exp(coeffs[0])), float(res[0]) if len(res) else 0.0


def check_condition_KR(model: HmmModel, seq=None, depth: int | None = None
                       ) -> KrReport:
    """Probe whether normalized stepping products approach a rank-one kernel.

    Either follow a given observation sequence or search greedily (smallest
    singular-value ratio, ties to the lexicographically first observation) up
    to ``depth``.  Verdict requires the ratio to stay below 1e-8 (recorded
    in ``tol``) for 3 consecutive lengths.
    """
    if (seq is None) == (depth is None):
        raise ValueError("pass exactly one of seq or depth")
    tol, sustain = 1e-8, 3
    # a given sequence offers one observation per step, the search all of them
    offers = ([np.array([model.obs.index(a)]) for a in seq] if seq is not None
              else [np.arange(model.n_obs)] * depth)
    ratios = []
    chosen = []
    product = None
    for offer in offers:
        cands = model.stepping_matrices[offer]
        if product is not None:
            cands = product @ cands
        top = cands.max(axis=(1, 2))
        live = top > 0.0
        if not live.any():
            raise DegenerateProduct(f"product vanished at step {len(chosen) + 1}")
        cands, offer = cands[live] / top[live, None, None], offer[live]
        s = np.linalg.svd(cands, compute_uv=False)
        r = s[:, 1] / s[:, 0] if s.shape[1] > 1 else np.zeros(len(s))
        best = int(np.argmin(r))  # the first minimum
        product = cands[best]
        chosen.append(model.obs.cells[offer[best]])
        ratios.append(float(r[best]))
    ratios = np.asarray(ratios)
    below = ratios < tol
    verdict = any(below[k:k + sustain].all()
                  for k in range(max(0, len(ratios) - sustain + 1)))
    rate, residual = _fit_rate(ratios)
    return KrReport(sequence=tuple(chosen), ratios=ratios, verdict=bool(verdict),
                    rate=rate, rate_residual=residual, tol=tol)


@dataclass
class ConditionViolation:
    """First failed clause of a block-positivity check, with indices."""

    clause: str
    message: str
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return False


@dataclass
class PCertificate:
    """Block-positivity certificate for the density tensor.

    On rows ``F0``, each observation in ``B0`` reaches exactly the columns
    ``F1(a)`` inside ``F0``, with density values pinched between ``d0`` and
    ``D0`` and landing sets of lambda-mass at least ``beta0``.
    """

    F0: tuple
    B0: tuple
    d0: float
    D0: float
    beta0: float
    F1: dict
    pi_F0: float

    @property
    def ok(self) -> bool:
        return True

    @property
    def kappa(self) -> float:
        return self.D0 / self.d0

    def to_json(self) -> str:
        return json.dumps({
            "F0": list(self.F0), "B0": list(self.B0),
            "d0": self.d0, "D0": self.D0, "beta0": self.beta0,
            "F1": {str(a): list(v) for a, v in self.F1.items()},
            "pi_F0": self.pi_F0, "kappa": self.kappa,
        })


def check_condition_P(model: HmmModel, pi: DensityVector, F0, B0):
    """Verify the block-positivity hypotheses for candidate sets F0 and B0.

    Returns a :class:`PCertificate` or a :class:`ConditionViolation`
    describing the first failed clause; violations are data, not errors.  A
    ``pi`` on another grid than the model's raises :class:`SpaceMismatch`.
    """
    _check_space(pi.space, model.states, "pi lives on a different state space than the model")
    f0, b0 = model.states.mask(F0), model.obs.mask(B0)
    f0_cells = tuple(c for c, m in zip(model.states.cells, f0) if m)
    b0_cells = tuple(c for c, m in zip(model.obs.cells, b0) if m)
    pi_f0 = pi.mass_of(f0)
    if pi_f0 <= 0.0:
        return ConditionViolation("1", "stationary mass of F0 is zero",
                                  {"F0": f0_cells})
    if not b0.any():  # tau weights are positive
        return ConditionViolation("2", "tau mass of B0 is zero", {"B0": b0_cells})
    lam = model.states.lambda_weights
    d0 = np.inf
    D0 = 0.0
    beta0 = np.inf
    f1_map = {}
    for a_idx in np.nonzero(b0)[0]:
        a = model.obs.cells[a_idx]
        block = model.m[f0][:, :, a_idx]
        f1 = block.max(axis=0) > 0.0
        if not f1.any():
            return ConditionViolation(
                "3b", f"observation {a!r} reaches no state from F0", {"obs": a}
            )
        outside = f1 & ~f0
        if outside.any():
            t = model.states.cells[int(np.nonzero(outside)[0][0])]
            return ConditionViolation(
                "3a", f"landing set of {a!r} leaves F0 at state {t!r}",
                {"obs": a, "state": t},
            )
        sub = block[:, f1]
        if np.any(sub <= 0.0):
            s_pos, t_pos = np.argwhere(sub <= 0.0)[0]
            s = f0_cells[int(s_pos)]
            t = tuple(np.array(model.states.cells, dtype=object)[f1])[int(t_pos)]
            return ConditionViolation(
                "3c", f"density vanishes at ({s!r},{t!r},{a!r}) inside F0 x F1",
                {"obs": a, "from": s, "to": t},
            )
        # zero block on F0 x (F0 \ F1(a)) holds by construction of F1(a)
        d0 = min(d0, float(sub.min()))
        D0 = max(D0, float(sub.max()))
        beta0 = min(beta0, float(lam[f1].sum()))
        f1_map[a] = tuple(c for c, m in zip(model.states.cells, f1) if m)
    return PCertificate(F0=f0_cells, B0=b0_cells, d0=d0, D0=D0,
                        beta0=beta0, F1=f1_map, pi_F0=pi_f0)


@dataclass
class E1Verification:
    """Check of the derived uniform-likelihood / closeness constants.

    ``decided`` is true when the check is a proof: every sequence of B0^N was
    enumerated and the inequalities were evaluated on the vertices of the
    threshold polytope, each with a finite positive likelihood, so ``min_g``
    and ``max_tv`` are the exact extremes.  ``n_pairs`` counts the density
    pairs evaluated per sequence.
    """

    n_pairs: int
    n_sequences: int
    exhaustive_sequences: bool
    g_violations: int
    h_violations: int
    min_g: float
    max_tv: float
    decided: bool

    @property
    def ok(self) -> bool:
        return self.g_violations == 0 and self.h_violations == 0


@dataclass
class E1Certificate:
    """Constants certifying coupled closeness at level rho.

    ``N`` steps of observations drawn from ``B0`` pull any two densities that
    hold mass ``threshold`` on ``F0`` within ``rho`` of each other, each such
    observation block having likelihood at least ``eta``; ``xi`` lower-bounds
    the mass any barycenter-pi measure puts on that set of densities.
    """

    rho: float
    N: int
    kappa: float
    xi: float
    beta: float
    eta: float
    F0: tuple
    B0: tuple
    threshold: float
    verification: E1Verification | None = None

    @property
    def alpha(self) -> float:
        """Coupled-mass lower bound xi^2 * beta * eta."""
        return self.xi**2 * self.beta * self.eta

    def to_json(self) -> str:
        payload = {
            "rho": self.rho, "N": self.N, "kappa": self.kappa,
            "xi": self.xi, "beta": self.beta, "eta": self.eta,
            "alpha": self.alpha,
            "F0": list(self.F0), "B0": list(self.B0),
            "threshold": self.threshold,
        }
        if self.verification is not None:
            payload["verification"] = asdict(self.verification)
        return json.dumps(payload)


def _sample_threshold_densities(rng, model, f0_mask, threshold, count):
    """Random masses with at least ``threshold`` on F0, threshold cases included.

    Sample i mixes a flat Dirichlet draw on F0 with one on the other cells
    (i % 3 == 0, exactly at the threshold: worst admissible starts), takes
    the F0 draw alone (i % 3 == 1), or mixes it with one on all cells; one
    ``rng.dirichlet`` call per draw, sample by sample.
    """
    k = model.n_states
    idx_f0 = np.nonzero(f0_mask)[0]
    others = np.nonzero(~f0_mask)[0]
    out = np.zeros((count, k))
    for i in range(count):
        out[i, idx_f0] = rng.dirichlet(np.ones(len(idx_f0)))
        if i % 3 == 1:
            continue
        if i % 3 == 0 and len(others):
            rest = np.zeros(k)
            rest[others] = rng.dirichlet(np.ones(len(others)))
        else:
            rest = rng.dirichlet(np.ones(k))
        out[i] = threshold * out[i] + (1.0 - threshold) * rest
    return out


def _contraction_horizon(kappa: float, rho: float) -> int:
    """The smallest N >= 1 with ``2 factor**N < rho``, factor = (kappa-1)/(kappa+1).

    The closed form ceil(log(rho / 2) / log(factor)) is corrected against
    that inequality in floats, so N is the one a step-by-step search finds.
    Raises :class:`BudgetExceeded` past 10**6 steps, also for a factor that
    is not below one: an infinite kappa, or one so large the factor rounds
    to one.
    """
    factor = (kappa - 1.0) / (kappa + 1.0)
    if not factor < 1.0:
        raise BudgetExceeded("contraction horizon exceeds 1e6 steps")
    if factor <= 0.0:
        return 1
    # log(rho) - log(2), not log(rho / 2): half the smallest subnormal is 0
    n = min(max(1, math.ceil((math.log(rho) - math.log(2.0)) / math.log(factor))),
            10**6 + 1)
    while n > 1 and 2.0 * factor**(n - 1) < rho:
        n -= 1
    while n <= 10**6 and 2.0 * factor**n >= rho:
        n += 1
    if n > 10**6:
        raise BudgetExceeded("contraction horizon exceeds 1e6 steps")
    return n


def _threshold_vertices(f0_mask, threshold):
    """Vertices of {x in the simplex : x(F0) >= threshold}, one mass per row.

    They are the unit masses on F0 and, for each cell i in F0 and j outside
    it, ``threshold * e_i + (1 - threshold) * e_j``.
    """
    eye = np.eye(len(f0_mask))
    inside, outside = eye[f0_mask], eye[~f0_mask]
    mixed = threshold * inside[:, None] + (1.0 - threshold) * outside[None, :]
    return np.vstack([inside, mixed.reshape(-1, len(f0_mask))])


def _sequence_products(mats, n, depth):
    """Stepping products of all ``len(mats)**n`` sequences, in lexicographic order.

    Yields one ``(len(mats)**depth, k, k)`` block per prefix of length
    ``n - depth``.  The walk starts at the empty prefix, the identity, and
    extends a prefix's product a level at a time by one stacked product with
    ``mats``; the identity times a finite matrix is that matrix, so each
    product is the left fold ``((M1 M2) M3) ...`` that ``functools.reduce``
    forms, bit for bit, from one matrix product per node of the prefix tree.
    """
    k = mats.shape[1]

    def walk(products, length):
        block = length == n - depth  # a block's prefix: extend it to the block
        for _ in range(depth if block else 1):
            products = np.matmul(products[:, None], mats).reshape(-1, k, k)
        if block:
            yield products
        else:
            for child in products:
                yield from walk(child[None], length + 1)

    yield from walk(np.eye(k)[None], 0)


def e1_constants(model: HmmModel, pi: DensityVector, cert: PCertificate,
                 rho: float, sample_pairs: int | None = None,
                 sequence_budget: int = 10**4, seed: int = 0) -> E1Certificate:
    """Derive the closeness constants from a block-positivity certificate.

    ``N`` is the smallest horizon at which the contraction factor
    ``(kappa-1)/(kappa+1)`` beats ``rho``; the likelihood floor ``eta`` and
    the mass bounds ``xi``, ``beta`` follow from the certificate.  The claimed
    inequalities are then evaluated on observation blocks from B0 (all of
    them while ``|B0|**N <= sequence_budget``, else 1,000 drawn with
    ``seed``) for densities holding the threshold mass on F0.  By default
    those densities are the vertices of that polytope and every pair of
    them: the likelihood is linear and the update linear-fractional, so the
    vertices attain the smallest likelihood and the largest distance of
    updated densities, and the check decides both inequalities.  An integer
    ``sample_pairs`` evaluates that many random pairs instead.  Raises
    :class:`BudgetExceeded` when ``N`` would pass 10**6 steps (as it does
    for an infinite kappa) or ``beta`` or ``eta`` would overflow a float.
    """
    if not 0.0 < rho <= 2.0:
        raise ValueError("rho must lie in (0, 2]")
    if sample_pairs is not None and sample_pairs <= 0:
        raise ValueError("sample_pairs must be positive, or None for the vertex decision")
    revalidated = check_condition_P(model, pi, cert.F0, cert.B0)
    if not revalidated.ok:
        raise CertificateInvalid(
            f"certificate no longer validates: {revalidated.message}"
        )
    for name in ("d0", "D0", "beta0"):
        if abs(getattr(revalidated, name) - getattr(cert, name)) > 1e-12:
            raise CertificateInvalid(f"certificate constant {name} is stale")
    n = _contraction_horizon(cert.kappa, rho)
    xi = cert.pi_F0 / 2.0
    tau_b0 = float(model.obs.tau_weights[model.obs.mask(cert.B0)].sum())
    # a power past the float range ends the check; one that underflows to 0
    # leaves it undecided
    try:
        beta = tau_b0**n
    except OverflowError:
        raise BudgetExceeded(f"beta = tau(B0)**N overflows at N = {n}") from None
    # d0 * beta0 * tau(a) <= 1 for a in B0 (the block's part of a row
    # integrates to at most one), so the floor's base exceeds one only
    # where some tau(a) < 1
    try:
        eta = xi * (cert.d0 * cert.beta0)**n
    except OverflowError:
        raise BudgetExceeded(f"eta = xi (d0 beta0)**N overflows at N = {n}") from None

    f0_mask = model.states.mask(cert.F0)
    b0_idx = [model.obs.index(a) for a in cert.B0]
    exhaustive = len(b0_idx) ** n <= sequence_budget
    # built only to sample (importing numpy.random costs a process about 6 MB),
    # and drawn in the same order: sequences first, then the pairs
    if not exhaustive or sample_pairs is not None:
        rng = np.random.default_rng(seed)
    if not exhaustive:
        sequences = rng.choice(b0_idx, size=(1000, n))
    if sample_pairs is None:
        zs = _threshold_vertices(f0_mask, xi)
        # each distinct pair of rows is (i, i + d) for exactly one offset d
        offsets = range(1, len(zs))
    else:
        xs = _sample_threshold_densities(rng, model, f0_mask, xi, sample_pairs)
        ys = _sample_threshold_densities(rng, model, f0_mask, xi, sample_pairs)
        zs = np.vstack([xs, ys])  # the pairs (x_i, y_i) lie sample_pairs rows apart
        offsets = [sample_pairs]
    n_pairs = sum(len(zs) - d for d in offsets)
    k = model.n_states
    g_viol = h_viol = 0
    min_g, max_tv, all_usable = np.inf, 0.0, True
    block = max(1, _E1_BLOCK // max(len(zs), k * k))
    if exhaustive:
        n_sequences = len(b0_idx) ** n
        # each block: the |B0|**depth sequences under one prefix, the most that fit
        depth = 0
        while depth < n and len(b0_idx) ** (depth + 1) <= block:
            depth += 1
        products = _sequence_products(model.stepping_matrices[b0_idx], n, depth)
    else:
        n_sequences = len(sequences)
        products = (functools.reduce(np.matmul, (model.stepping_matrices[a]
                                                 for a in sequences[s:s + block].T))
                    for s in range(0, n_sequences, block))
    for product in products:
        # rows (density, sequence) by cells from one GEMM; each row summed
        # by itself, so its sum does not depend on the rows beside it
        gz = (zs @ product.transpose(1, 0, 2).reshape(k, -1)).reshape(len(zs), -1, k)
        sz = _cell_sum(gz.reshape(-1, k))
        # a likelihood below the smallest normal float has too few digits to
        # normalise a density or to bound a mix of the vertices: it counts as 0
        sz[sz < np.finfo(float).tiny] = 0.0
        min_g = min(min_g, float(sz.min()))
        g_viol += int((sz < eta - 1e-12).sum())
        sz = sz.reshape(len(zs), -1)
        usable = np.isfinite(sz) & (sz > 0)
        all_usable &= bool(usable.all())
        hz = gz / np.where(usable, sz, 1.0)[..., None]
        for d in offsets:
            tv = _cell_sum(np.abs(hz[:-d] - hz[d:]).reshape(-1, k))
            tv = tv[(usable[:-d] & usable[d:]).ravel()]
            max_tv = max(max_tv, float(tv.max(initial=0.0)))
            h_viol += int((tv >= rho).sum())
    verification = E1Verification(
        n_pairs=n_pairs, n_sequences=n_sequences,
        exhaustive_sequences=exhaustive, g_violations=g_viol,
        h_violations=h_viol, min_g=float(min_g), max_tv=max_tv,
        decided=exhaustive and sample_pairs is None and all_usable,
    )
    return E1Certificate(rho=rho, N=n, kappa=cert.kappa, xi=xi, beta=beta, eta=eta,
                         F0=cert.F0, B0=cert.B0, threshold=xi,
                         verification=verification)
