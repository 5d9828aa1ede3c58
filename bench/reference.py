"""Reference computations the benchmark checks filterlab's outputs against.

Nothing here imports filterlab or scipy: every function works on numpy arrays
built from a model's density tensor ``m[s, t, a]`` and its cell weights
``lam`` (states) and ``tau`` (observations).  Points of the belief simplex are
carried as cell-mass vectors (density times ``lam``), so total variation is
the plain L1 distance between them.
"""

from __future__ import annotations

import itertools

import numpy as np


class Mismatch(Exception):
    """A program output disagrees with its reference or a required property."""


def require(ok, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def stepping(m, lam) -> np.ndarray:
    """Stepping matrices K[a][s, t] = m(s, t, a) * lam(t), one per observation."""
    return np.moveaxis(np.asarray(m, float) * np.asarray(lam, float)[None, :, None], 2, 0)


def markov(m, lam, tau) -> np.ndarray:
    """Row-stochastic transition matrix P = sum_a K[a] * tau(a)."""
    return np.tensordot(np.asarray(tau, float), stepping(m, lam), axes=1)


# ---------------------------------------------------------------------------
# filter laws


def enumerate_law(m, lam, tau, start_masses, n: int):
    """Every observation sequence of length ``n`` with its filter point.

    Returns ``(points, weights)``: normalized cell masses per sequence and the
    sequence probability (likelihood times tau mass).  Sequences of zero
    probability are dropped.
    """
    K = stepping(m, lam)
    tau = np.asarray(tau, float)
    cur = np.asarray(start_masses, float)[None, :]
    tw = np.ones(1)
    for _ in range(n):
        cur = np.stack([cur @ K[a] for a in range(len(K))], axis=1).reshape(-1, K.shape[1])
        tw = np.outer(tw, tau).ravel()
    mass = cur.sum(axis=1)
    keep = mass > 0
    return cur[keep] / mass[keep, None], mass[keep] * tw[keep]


def mixture_law(m, lam, tau, atoms, atom_weights, n: int):
    """Law after ``n`` steps of a start measure with several atoms."""
    pts, ws = [], []
    for x, w in zip(atoms, atom_weights):
        p, q = enumerate_law(m, lam, tau, x, n)
        pts.append(p)
        ws.append(q * w)
    return np.concatenate(pts), np.concatenate(ws)


def tolerance_components(points, weights, tol: float = 1e-12):
    """Group atoms into connected components of the relation "TV <= tol".

    Unlike a sweep against one anchor per group, this is a true equivalence:
    the result does not depend on input order or on atoms far away.  Returns
    one representative point (the component's weighted mean) and the summed
    weight per component.
    """
    uniq, inv = np.unique(points, axis=0, return_inverse=True)
    w = np.bincount(inv.ravel(), weights=weights, minlength=len(uniq))
    order = np.argsort(uniq[:, 0], kind="stable")
    key = uniq[order, 0]
    rows, cols = [], []
    # TV >= |difference of first coordinates|, so only neighbours inside a
    # window of width tol on the sorted first coordinate can be joined
    for d in range(1, len(uniq)):
        near = np.nonzero(key[d:] - key[:-d] <= tol)[0]
        if len(near) == 0:
            break
        a, b = order[near], order[near + d]
        hit = np.abs(uniq[a] - uniq[b]).sum(axis=1) <= tol
        rows.append(a[hit])
        cols.append(b[hit])
    rows = np.concatenate(rows) if rows else np.zeros(0, int)
    cols = np.concatenate(cols) if cols else np.zeros(0, int)
    n_comp, label = _components(len(uniq), rows, cols)
    comp_w = np.bincount(label, weights=w, minlength=n_comp)
    comp_pts = np.zeros((n_comp, uniq.shape[1]))
    np.add.at(comp_pts, label, uniq * w[:, None])
    safe = np.where(comp_w > 0, comp_w, 1.0)
    return comp_pts / safe[:, None], comp_w


def _components(n: int, rows, cols):
    """Connected components of an undirected graph given by its edge list."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots, label = np.unique(label, return_inverse=True)
    return len(roots), label


def match_atoms(ref_points, points, tol: float) -> np.ndarray:
    """Index of the nearest reference atom within ``tol`` (TV) of each given atom.

    Raises :class:`Mismatch` unless the matching is one to one and onto.
    """
    require(len(ref_points) == len(points),
            f"atom count {len(points)} != reference {len(ref_points)}")
    order = np.argsort(ref_points[:, 0], kind="stable")
    key = ref_points[order, 0]
    lo = np.searchsorted(key, points[:, 0] - tol, "left")
    hi = np.searchsorted(key, points[:, 0] + tol, "right")
    match = np.full(len(points), -1)
    best = np.full(len(points), np.inf)
    for d in range(int((hi - lo).max(initial=0))):
        j = lo + d
        todo = np.nonzero(j < hi)[0]
        cand = order[j[todo]]
        tv = np.abs(ref_points[cand] - points[todo]).sum(axis=1)
        closer = (tv <= tol) & (tv < best[todo])
        match[todo[closer]] = cand[closer]
        best[todo[closer]] = tv[closer]
    require((match >= 0).all(), f"{int((match < 0).sum())} atoms have no reference atom")
    require(len(np.unique(match)) == len(match), "two atoms match one reference atom")
    return match


def probe_functions(points) -> np.ndarray:
    """Fixed test functions of cell masses, one column each."""
    return np.column_stack([points[:, 0], (points**2).sum(axis=1), points.max(axis=1)])


class LawReference:
    """A filter law's reference atoms, expectations and barycenter.

    Built once from the unmerged sequences ``(points, weights)`` of the law
    of ``start_masses`` after ``n`` steps of the chain ``P``; calling it with
    the program's merged law (cell masses and weights) checks that law.
    """

    def __init__(self, points, weights, start_masses, P, n: int):
        self.comp_pts, self.comp_w = tolerance_components(points, weights)
        self.expect = weights @ probe_functions(points)
        self.bary = np.asarray(start_masses, float) @ np.linalg.matrix_power(P, n)

    def __call__(self, points, weights) -> None:
        match = match_atoms(self.comp_pts, points, 1e-10)
        werr = float(np.abs(weights - self.comp_w[match]).max())
        require(werr <= 1e-12, f"atom weights differ from reference by {werr:g}")
        eerr = float(np.abs(weights @ probe_functions(points) - self.expect).max())
        require(eerr <= 1e-12, f"test-function expectations differ by {eerr:g}")
        berr = float(np.abs(weights @ points - self.bary).sum())
        require(berr <= 1e-12, f"barycenter differs from x P^n by {berr:g}")


def averages_on_grid(m, lam, tau, grid_masses, fn, n: int) -> np.ndarray:
    """(T^n u)(x) for every grid point x: E[u] under each point's n-step law."""
    K = stepping(m, lam)
    tau = np.asarray(tau, float)
    out = np.zeros(len(grid_masses))
    for seq in itertools.product(range(len(K)), repeat=n):
        stepped = np.array(grid_masses, float)
        tw = 1.0
        for a in seq:
            stepped = stepped @ K[a]
            tw *= tau[a]
        g = stepped.sum(axis=1)
        pos = g > 0
        out[pos] += tw * g[pos] * fn(stepped[pos] / g[pos, None])
    return out


# ---------------------------------------------------------------------------
# stationary law


def stationary_direct(P) -> np.ndarray:
    """pi with pi P = pi and sum(pi) = 1, by solving the linear system directly."""
    k = P.shape[0]
    A = np.vstack([P.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    require(rank == k, "stationary law is not unique: the chain is reducible")
    require(float(np.abs(A @ pi - b).max()) <= 1e-12, "stationary system has no exact solution")
    return pi


# ---------------------------------------------------------------------------
# transport


def cdf_distance(key1, w1, key2, w2) -> float:
    """Closed form on two cells: 2 * integral |F_mu - F_nu| of the first mass."""
    keys = np.concatenate([key1, key2])
    jumps = np.concatenate([w1, -np.asarray(w2)])
    order = np.argsort(keys, kind="stable")
    keys, jumps = keys[order], jumps[order]
    return float(2.0 * np.abs(np.cumsum(jumps)[:-1]) @ np.diff(keys))


def check_transport(mu_pts, mu_w, nu_pts, nu_w, distance, source, target, mass,
                    u, v, tol: float = 1e-9, block: int = 256) -> None:
    """Optimality of a transport plan with total-variation ground cost.

    Recomputes both marginals and the arc costs, checks that the potentials
    are dual feasible over all atom pairs (in row blocks, so memory stays
    linear), that primal and dual values agree, and on two cells that the
    distance equals the closed form.  Potentials index atoms of positive
    weight, in order.
    """
    row = np.bincount(source, weights=mass, minlength=len(mu_w))
    col = np.bincount(target, weights=mass, minlength=len(nu_w))
    merr = max(float(np.abs(row - mu_w).max()), float(np.abs(col - nu_w).max()))
    require(merr <= 1e-10, f"plan marginals miss the weights by {merr:g}")
    require((mass >= 0).all(), "plan has negative mass")
    cost = np.abs(mu_pts[source] - nu_pts[target]).sum(axis=1)
    primal = float(mass @ cost)
    require(abs(primal - distance) <= tol, f"plan cost {primal!r} != distance {distance!r}")
    k1 = np.nonzero(mu_w > 0)[0]
    k2 = np.nonzero(nu_w > 0)[0]
    require(len(u) == len(k1) and len(v) == len(k2), "potentials do not index the atoms")
    a, b = mu_pts[k1], nu_pts[k2]
    worst = -np.inf
    for i in range(0, len(a), block):
        c = np.abs(a[i:i + block, None, :] - b[None, :, :]).sum(axis=2)
        worst = max(worst, float((u[i:i + block, None] + v[None, :] - c).max()))
    require(worst <= tol, f"dual potentials violate u + v <= c by {worst:g}")
    dual = float(mu_w[k1] @ u + nu_w[k2] @ v)
    require(abs(dual - distance) <= tol, f"dual value {dual!r} != distance {distance!r}")
    gap = float(np.abs(mu_w @ mu_pts - nu_w @ nu_pts).sum())
    require(distance >= gap - tol, f"distance {distance!r} below barycenter gap {gap!r}")
    if mu_pts.shape[1] == 2:
        closed = cdf_distance(mu_pts[:, 0], mu_w, nu_pts[:, 0], nu_w)
        require(abs(closed - distance) <= tol,
                f"distance {distance!r} != closed form {closed!r}")


def check_barycenter_move(mu_pts, mu_w, psi_pts, psi_w, target, achieved,
                          tol: float = 1e-9) -> None:
    """A moved measure with barycenter ``target`` at the cheapest possible cost.

    Any measure with that barycenter is at least the barycenter gap away, and
    moving each atom in place costs sum w ||xi - zeta||; the construction
    must attain the gap, so the distance is pinned between the two.
    """
    require(np.array_equal(psi_w, mu_w), "moved measure changed the atom weights")
    berr = float(np.abs(psi_w @ psi_pts - target).sum())
    require(berr <= 1e-10, f"moved barycenter misses the target by {berr:g}")
    gap = float(np.abs(mu_w @ mu_pts - target).sum())
    in_place = float(mu_w @ np.abs(mu_pts - psi_pts).sum(axis=1))
    require(gap - tol <= achieved <= in_place + tol,
            f"distance {achieved!r} outside [{gap!r}, {in_place!r}]")
    require(abs(achieved - gap) <= tol, f"distance {achieved!r} != barycenter gap {gap!r}")


# ---------------------------------------------------------------------------
# filtering along a path and kernel certificates


def bayes_path(m, lam, start_masses, obs_idx) -> np.ndarray:
    """Cell masses of the filter along an observation path, start included."""
    K = stepping(m, lam)
    x = np.asarray(start_masses, float)
    out = np.empty((len(obs_idx) + 1, len(x)))
    out[0] = x
    for k, a in enumerate(obs_idx):
        y = x @ K[a]
        s = y.sum()
        x = y / s if s > 0 else x
        out[k + 1] = x
    return out


def is_rectangle(mat) -> bool:
    """Positive entries of a nonzero matrix fill exactly a rows x cols block."""
    pos = np.asarray(mat) > 0
    if not pos.any():
        return False
    rows, cols = pos.any(axis=1), pos.any(axis=0)
    return bool(pos[np.ix_(rows, cols)].all())


def shortest_rectangular(m, lam, max_len: int):
    """Shortest observation-index sequence whose stepping product is a rectangle.

    Breadth first in length, lexicographic inside a length, on supports only.
    """
    K = stepping(m, lam) > 0
    level = [((), None)]
    for _ in range(max_len):
        nxt = []
        for seq, sup in level:
            for a in range(len(K)):
                s = K[a] if sup is None else (sup.astype(int) @ K[a].astype(int)) > 0
                if s.any():
                    if is_rectangle(s):
                        return seq + (a,)
                    nxt.append((seq + (a,), s))
        level = nxt
    return None


def sigma_ratios(m, lam, obs_idx) -> np.ndarray:
    """Second-to-first singular value ratio of each normalized prefix product."""
    K = stepping(m, lam)
    out = []
    prod = None
    for a in obs_idx:
        prod = K[a] if prod is None else prod @ K[a]
        prod = prod / prod.max()
        s = np.linalg.svd(prod, compute_uv=False)
        out.append(s[1] / s[0])
    return np.asarray(out)


def cross_ratio_kappa(block) -> float:
    """Square root of the largest cross-ratio k(a,c)k(b,d) / (k(b,c)k(a,d))."""
    block = np.asarray(block, float)
    worst = 1.0
    for c, d in itertools.product(range(block.shape[1]), repeat=2):
        r = block[:, c] / block[:, d]
        worst = max(worst, float(r.max() / r.min()))
    return float(np.sqrt(worst))


def block_certificate(m, lam, pi, f0, b0) -> dict:
    """Block-positivity constants d0, D0, beta0, pi(F0) and landing sets F1."""
    m = np.asarray(m, float)
    f0 = np.asarray(f0, bool)
    d0, D0, beta0, f1 = np.inf, 0.0, np.inf, {}
    for a in b0:
        block = m[f0][:, :, a]
        land = block.max(axis=0) > 0
        require(not (land & ~f0).any(), f"observation {a} leaves F0")
        sub = block[:, land]
        require((sub > 0).all(), f"observation {a} has a zero inside F0 x F1")
        d0, D0 = min(d0, float(sub.min())), max(D0, float(sub.max()))
        beta0 = min(beta0, float(np.asarray(lam)[land].sum()))
        f1[a] = np.nonzero(land)[0]
    return {"d0": d0, "D0": D0, "beta0": beta0, "pi_F0": float(np.asarray(pi)[f0].sum()),
            "F1": f1}


def closeness_constants(cert: dict, tau_b0: float, rho: float) -> dict:
    """Horizon N, kappa, xi, beta and eta implied by a block certificate."""
    kappa = cert["D0"] / cert["d0"]
    factor = (kappa - 1.0) / (kappa + 1.0)
    n = 1
    while 2.0 * factor**n >= rho:
        n += 1
    xi = cert["pi_F0"] / 2.0
    return {"N": n, "kappa": kappa, "xi": xi, "beta": tau_b0**n,
            "eta": xi * cert["d0"]**n * cert["beta0"]**n}
