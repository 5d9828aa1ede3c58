"""Contraction certificates for products of nonnegative kernels.

A kernel whose positive entries fill an exact rectangle of rows and columns
contracts the projective geometry of densities it acts on: the worst
cross-ratio of its entries yields a factor ``(kappa - 1) / (kappa + 1)`` per
application, and a product of such kernels merges any two starts at the rate
``2 * prod (kappa_m - 1) / (kappa_m + 1)`` in total variation.

On top of that sit the model-level checkers: an eventually-subrectangular
product witness, the rank-one-closure probe for normalized stepping products,
the block-positivity certificate for the density tensor, and the derived
uniform-likelihood/contraction constants with their sampled verification.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

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
from .filter import ENUMERATION_BUDGET, _check_budget
from .model import DensityVector, HmmModel

# (sample pair, observation sequence) branches e1_constants checks at once
_E1_BLOCK = 1 << 13


def _positive_mask(kernel: np.ndarray, zero_tol: float) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=float)
    if zero_tol > 0.0:
        ambiguous = (kernel > 0.0) & (kernel < zero_tol)
        if ambiguous.any():
            i, j = np.argwhere(ambiguous)[0]
            raise AmbiguousSupport(
                f"entry ({i},{j})={kernel[i, j]!r} lies strictly between 0 "
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

    Exhaustive over all index quadruples when the intermediate array stays
    small, otherwise via the equivalent column-pair ratio reduction; both
    compute the exact maximum.
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
    if (nf * ng) ** 2 <= max_dense:
        cr = np.einsum("ac,bd->abcd", block, block) / np.einsum(
            "bc,ad->abcd", block, block
        )
        return float(np.sqrt(cr.max()))
    # max over (t1,t2) of (max_s k(s,t1)/k(s,t2)) / (min_s k(s,t1)/k(s,t2))
    worst = 1.0
    for t2 in range(ng):
        ratios = block / block[:, t2][:, None]
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
    product = kernels[0]
    for k in kernels[1:]:
        product = product @ k
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


@dataclass
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
    offers = ([[model.obs.index(a)] for a in seq] if seq is not None
              else [range(model.n_obs)] * depth)
    ratios = []
    chosen = []
    product = None
    for offer in offers:
        best = None
        for a in offer:
            step = model.stepping_matrices[a]
            cand = step if product is None else product @ step
            if cand.max() <= 0.0:
                continue
            cand = cand / cand.max()
            s = np.linalg.svd(cand, compute_uv=False)
            r = float(s[1] / s[0]) if len(s) > 1 else 0.0
            if best is None or r < best[0]:
                best = (r, a, cand)
        if best is None:
            raise DegenerateProduct(f"product vanished at step {len(chosen) + 1}")
        r, a, product = best
        chosen.append(model.obs.cells[a])
        ratios.append(r)
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
    describing the first failed clause; violations are data, not errors.
    """
    f0 = F0 if isinstance(F0, np.ndarray) else model.states.mask(F0)
    b0 = B0 if isinstance(B0, np.ndarray) else model.obs.mask(B0)
    f0_cells = tuple(c for c, m in zip(model.states.cells, f0) if m)
    b0_cells = tuple(c for c, m in zip(model.obs.cells, b0) if m)
    pi_f0 = pi.mass_of(f0)
    if pi_f0 <= 0.0:
        return ConditionViolation("1", "stationary mass of F0 is zero",
                                  {"F0": f0_cells})
    if not b0.any() or model.obs.tau_weights[b0].sum() <= 0.0:
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
    """Sampled check of the derived uniform-likelihood / closeness constants."""

    n_pairs: int
    n_sequences: int
    exhaustive_sequences: bool
    g_violations: int
    h_violations: int
    min_g: float
    max_tv: float

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
            v = self.verification
            payload["verification"] = {
                "n_pairs": v.n_pairs, "n_sequences": v.n_sequences,
                "exhaustive_sequences": v.exhaustive_sequences,
                "g_violations": v.g_violations, "h_violations": v.h_violations,
                "min_g": v.min_g, "max_tv": v.max_tv,
            }
        return json.dumps(payload)


def _sample_threshold_densities(rng, model, f0_mask, threshold, count):
    """Random masses with at least ``threshold`` on F0, threshold cases included.

    Sample i mixes a flat Dirichlet draw on F0 with one on the other cells
    (i % 3 == 0, exactly at the threshold: worst admissible starts), takes
    the F0 draw alone (i % 3 == 1), or mixes it with one on all cells.  The
    draws are one ``standard_gamma`` stream, split and normalized as
    ``Generator.dirichlet`` does sample by sample, so the variates are the
    ones a loop of ``rng.dirichlet`` calls would return.
    """
    k = model.n_states
    idx_f0 = np.nonzero(f0_mask)[0]
    others = np.nonzero(~f0_mask)[0]
    style = np.arange(count) % 3
    at_threshold = (style == 0) & (len(others) > 0)
    mixed = (style != 1) & ~at_threshold
    sizes = len(idx_f0) + np.where(at_threshold, len(others), np.where(mixed, k, 0))
    gammas = rng.standard_gamma(1.0, size=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes

    def dirichlet(rows, offset, size):
        x = gammas[starts[rows, None] + offset + np.arange(size)]
        # dirichlet sums left to right and scales by the reciprocal
        return x * (1.0 / np.cumsum(x, axis=1)[:, -1:])

    out = np.zeros((count, k))
    out[:, idx_f0] = dirichlet(np.arange(count), 0, len(idx_f0))
    for rows, cells in ((at_threshold, others), (mixed, np.arange(k))):
        rest = np.zeros((int(rows.sum()), k))
        rest[:, cells] = dirichlet(np.flatnonzero(rows), len(idx_f0), len(cells))
        out[rows] = threshold * out[rows] + (1.0 - threshold) * rest
    return out


def e1_constants(model: HmmModel, pi: DensityVector, cert: PCertificate,
                 rho: float, sample_pairs: int = 1000,
                 sequence_budget: int = 10**4, seed: int = 0) -> E1Certificate:
    """Derive the closeness constants from a block-positivity certificate.

    ``N`` is the smallest horizon at which the contraction factor
    ``(kappa-1)/(kappa+1)`` beats ``rho``; the likelihood floor ``eta`` and
    the mass bounds ``xi``, ``beta`` follow from the certificate.  A sampled
    verifier then evaluates the claimed inequalities on random density pairs
    holding the threshold mass on F0 and on observation blocks from B0.
    """
    if not 0.0 < rho <= 2.0:
        raise ValueError("rho must lie in (0, 2]")
    revalidated = check_condition_P(model, pi, cert.F0, cert.B0)
    if not revalidated.ok:
        raise CertificateInvalid(
            f"certificate no longer validates: {revalidated.message}"
        )
    for name in ("d0", "D0", "beta0"):
        if abs(getattr(revalidated, name) - getattr(cert, name)) > 1e-12:
            raise CertificateInvalid(f"certificate constant {name} is stale")
    kappa = cert.kappa
    factor = (kappa - 1.0) / (kappa + 1.0)
    n = 1
    while 2.0 * factor**n >= rho:
        n += 1
        if n > 10**6:
            raise FilterlabError("contraction horizon exceeds 1e6 steps")
    xi = cert.pi_F0 / 2.0
    tau_b0 = float(model.obs.tau_weights[model.obs.mask(cert.B0)].sum())
    beta = tau_b0**n
    eta = xi * cert.d0**n * cert.beta0**n

    rng = np.random.default_rng(seed)
    f0_mask = model.states.mask(cert.F0)
    b0_idx = [model.obs.index(a) for a in cert.B0]
    n_seq_total = len(b0_idx) ** n
    exhaustive = n_seq_total <= sequence_budget
    if exhaustive:
        sequences = np.array(list(itertools.product(b0_idx, repeat=n)))
    else:
        sequences = rng.choice(b0_idx, size=(1000, n))
    xs = _sample_threshold_densities(rng, model, f0_mask, xi, sample_pairs)
    ys = _sample_threshold_densities(rng, model, f0_mask, xi, sample_pairs)
    zs, k, ones = np.vstack([xs, ys]), model.n_states, np.ones(model.n_states)
    g_viol = h_viol = 0
    min_g, max_tv = np.inf, 0.0
    block = max(1, _E1_BLOCK // max(1, sample_pairs))
    for s in range(0, len(sequences), block):
        seqs = sequences[s:s + block]
        product = model.stepping_matrices[seqs[:, 0]]
        for a in seqs[:, 1:].T:
            product = product @ model.stepping_matrices[a]
        # rows (side, pair, sequence) by cells from one GEMM; sums as matrix-
        # vector products, which beat a reduction over a short axis
        gz = (zs @ product.transpose(1, 0, 2).reshape(k, -1)).reshape(2, -1, k)
        sz = gz.reshape(-1, k) @ ones
        min_g = min(min_g, float(sz.min()))
        g_viol += int((sz < eta - 1e-12).sum())
        sz = sz.reshape(2, -1)
        if not (sz > 0).all():
            ok = (sz > 0).all(axis=0)
            gz, sz = gz[:, ok], sz[:, ok]
        hz = gz / sz[..., None]
        tv = np.abs(hz[0] - hz[1]) @ ones
        max_tv = max(max_tv, float(tv.max(initial=0.0)))
        h_viol += int((tv >= rho).sum())
    verification = E1Verification(
        n_pairs=sample_pairs, n_sequences=len(sequences),
        exhaustive_sequences=exhaustive, g_violations=g_viol,
        h_violations=h_viol, min_g=float(min_g), max_tv=max_tv,
    )
    return E1Certificate(rho=rho, N=n, kappa=kappa, xi=xi, beta=beta, eta=eta,
                         F0=cert.F0, B0=cert.B0, threshold=xi,
                         verification=verification)
