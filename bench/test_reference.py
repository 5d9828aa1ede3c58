"""Tests of the benchmark's reference computations.

Run from the repository root:

    python3 -m pytest -q bench/test_reference.py

The references are checked against brute force, closed forms and hand
computations; none of these tests imports filterlab.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import reference as ref
from reference import Mismatch

# a 2-state, 2-observation model: m(s, t, a) = p(s, t) q(t, a)
P2 = np.array([[0.7, 0.3], [0.2, 0.8]])
Q2 = np.array([[0.9, 0.1], [0.3, 0.7]])
M2 = P2[:, :, None] * Q2[None, :, :]
ONES2 = np.ones(2)


def random_model(seed, k, a):
    rng = np.random.default_rng(seed)
    m = rng.gamma(2.0, size=(k, k, a))
    return m / m.sum(axis=(1, 2), keepdims=True)


def brute_law(m, start, n):
    """Filter law by explicit Bayes updates along every sequence."""
    pts, ws = [], []
    for seq in itertools.product(range(m.shape[2]), repeat=n):
        x, w = np.asarray(start, float), 1.0
        for a in seq:
            y = x @ m[:, :, a]
            w *= y.sum()
            x = y / y.sum()
        pts.append(x)
        ws.append(w)
    return np.array(pts), np.array(ws)


class TestLaws:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_enumerator_matches_bayes_updates(self, n):
        m = random_model(1, 3, 2)
        start = np.array([0.2, 0.5, 0.3])
        pts, ws = ref.enumerate_law(m, np.ones(3), np.ones(2), start, n)
        want_pts, want_ws = brute_law(m, start, n)
        np.testing.assert_allclose(pts, want_pts, atol=1e-15)
        np.testing.assert_allclose(ws, want_ws, atol=1e-15)

    def test_barycenter_is_chain_marginal(self):
        m = random_model(2, 4, 3)
        P = ref.markov(m, np.ones(4), np.ones(3))
        start = np.array([1.0, 0.0, 0.0, 0.0])
        pts, ws = ref.enumerate_law(m, np.ones(4), np.ones(3), start, 5)
        assert abs(ws.sum() - 1.0) < 1e-14
        np.testing.assert_allclose(ws @ pts, start @ np.linalg.matrix_power(P, 5), atol=1e-15)

    def test_zero_probability_sequences_dropped(self):
        # block observer: state 1 emits only a=0, state 2 only a=1
        m = P2[:, :, None] * np.eye(2)[None, :, :]
        pts, ws = ref.enumerate_law(m, ONES2, ONES2, [1.0, 0.0], 2)
        assert len(ws) == 4 and (ws > 0).all()
        m = np.zeros((2, 2, 2))
        m[:, 0, 0] = 1.0  # always land in state 1 and emit a=0
        pts, ws = ref.enumerate_law(m, ONES2, ONES2, [0.5, 0.5], 2)
        assert len(ws) == 1 and ws[0] == 1.0

    def test_law_reference_accepts_its_own_law_and_rejects_a_changed_one(self):
        m = random_model(3, 3, 2)
        P = ref.markov(m, np.ones(3), np.ones(2))
        start = np.array([0.0, 1.0, 0.0])
        pts, ws = ref.enumerate_law(m, np.ones(3), np.ones(2), start, 4)
        check = ref.LawReference(pts, ws, start, P, 4)
        order = np.random.default_rng(0).permutation(len(ws))
        check(pts[order], ws[order])
        bad = ws.copy()
        bad[0] += 1e-9
        bad[1] -= 1e-9
        with pytest.raises(Mismatch):
            check(pts, bad)
        with pytest.raises(Mismatch):
            check(pts[1:], ws[1:])

    def test_averages_on_grid(self):
        grid = np.array([[0.3, 0.7], [1.0, 0.0]])
        fn = lambda x: x[..., 0] ** 2  # noqa: E731
        np.testing.assert_allclose(ref.averages_on_grid(M2, ONES2, ONES2, grid, fn, 0),
                                   fn(grid))
        for g, got in zip(grid, ref.averages_on_grid(M2, ONES2, ONES2, grid, fn, 3)):
            pts, ws = brute_law(M2, g, 3)
            assert got == pytest.approx(ws @ fn(pts), abs=1e-15)


class TestComponents:
    def test_bystander_does_not_split_near_atoms(self):
        a = [0.3, 0.3, 0.4]
        b = [0.3 + 1e-14, 0.3, 0.4 - 1e-14]
        c = [0.3 + 5e-15, 0.1, 0.6 - 5e-15]
        pts, ws = ref.tolerance_components(np.array([a, b]), np.array([0.5, 0.5]))
        assert len(ws) == 1
        for order in itertools.permutations(range(3)):
            x = np.array([a, b, c])[list(order)]
            w = np.array([0.25, 0.25, 0.5])[list(order)]
            pts, ws = ref.tolerance_components(x, w)
            assert sorted(ws) == [0.5, 0.5]

    def test_components_are_transitive(self):
        # a~b and b~c within 1e-12, a and c further apart: one component
        x = np.array([[0.5, 0.5], [0.5 + 4e-13, 0.5 - 4e-13], [0.5 + 8e-13, 0.5 - 8e-13],
                      [0.6, 0.4]])
        pts, ws = ref.tolerance_components(x, np.array([0.1, 0.2, 0.3, 0.4]))
        assert len(ws) == 2
        assert sorted(ws) == pytest.approx([0.4, 0.6])

    def test_exact_duplicates_merge_and_weights_add(self):
        x = np.array([[0.2, 0.8], [0.9, 0.1], [0.2, 0.8]])
        pts, ws = ref.tolerance_components(x, np.array([0.25, 0.5, 0.25]))
        got = sorted(zip(pts[:, 0], ws))
        assert got == [(0.2, 0.5), (0.9, 0.5)]

    def test_match_atoms(self):
        r = np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.3]])
        got = ref.match_atoms(r, r[[2, 0, 1]] + 1e-13, 1e-10)
        assert list(got) == [2, 0, 1]
        with pytest.raises(Mismatch):
            ref.match_atoms(r, r[:2], 1e-10)
        with pytest.raises(Mismatch):
            ref.match_atoms(r, r + 1e-6, 1e-10)


class TestStationary:
    def test_periodic_chain(self):
        P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(ref.stationary_direct(P), [0.5, 0.25, 0.25], atol=1e-15)

    def test_random_chain(self):
        P = ref.markov(random_model(4, 4, 3), np.ones(4), np.ones(3))
        pi = ref.stationary_direct(P)
        assert np.abs(pi @ P - pi).max() < 1e-15
        assert pi.sum() == pytest.approx(1.0, abs=1e-15)

    def test_reducible_chain_has_no_unique_solution(self):
        with pytest.raises(Mismatch):
            ref.stationary_direct(np.eye(2))


def lp_transport(a, wa, b, wb):
    """Optimal plan and potentials from scipy's LP, for the tests only."""
    C = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    m, n = C.shape
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([wa, wb]), bounds=(0, None),
                  method="highs")
    plan = res.x.reshape(m, n)
    src, tgt = np.nonzero(plan > 1e-15)
    y = res.eqlin.marginals
    return res.fun, src, tgt, plan[src, tgt], y[:m], y[m:]


class TestTransport:
    def test_cdf_distance_against_assignment(self):
        rng = np.random.default_rng(5)
        k1, k2 = rng.random(5), rng.random(5)
        w = np.full(5, 0.2)
        brute = min(sum(2 * abs(k1[i] - k2[j]) for i, j in enumerate(p))
                    for p in itertools.permutations(range(5))) * 0.2
        assert ref.cdf_distance(k1, w, k2, w) == pytest.approx(brute, abs=1e-14)

    def test_cdf_distance_is_not_the_barycenter_gap(self):
        # equal means, different laws: the gap is 0, the distance is not
        k1, w1 = np.array([0.5]), np.array([1.0])
        k2, w2 = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        assert ref.cdf_distance(k1, w1, k2, w2) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_optimal_plan_accepted(self, k):
        rng = np.random.default_rng(k)
        a, b = rng.dirichlet(np.ones(k), 6), rng.dirichlet(np.ones(k), 5)
        wa, wb = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(5))
        dist, src, tgt, mass, u, v = lp_transport(a, wa, b, wb)
        ref.check_transport(a, wa, b, wb, dist, src, tgt, mass, u, v, block=2)

    def test_suboptimal_plan_rejected(self):
        rng = np.random.default_rng(7)
        a, b = rng.dirichlet(np.ones(3), 4), rng.dirichlet(np.ones(3), 4)
        w = np.full(4, 0.25)
        dist, src, tgt, mass, u, v = lp_transport(a, w, b, w)
        # the product plan is feasible but not optimal
        s, t = np.repeat(np.arange(4), 4), np.tile(np.arange(4), 4)
        cost = float(np.full(16, 1 / 16) @ np.abs(a[s] - b[t]).sum(axis=1))
        assert cost > dist + 1e-6
        with pytest.raises(Mismatch):
            ref.check_transport(a, w, b, w, cost, s, t, np.full(16, 1 / 16), u, v)
        with pytest.raises(Mismatch):  # right value, infeasible potentials
            ref.check_transport(a, w, b, w, dist, src, tgt, mass, u + 0.1, v)
        with pytest.raises(Mismatch):  # wrong marginals
            ref.check_transport(a, w, b, w, dist, src, tgt, mass * 0.9, u, v)

    def test_barycenter_move(self):
        mu = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([0.5, 0.5])
        target = np.array([0.6, 0.4])
        psi = np.array([[1.0, 0.0], [0.2, 0.8]])
        ref.check_barycenter_move(mu, w, psi, w, target, 0.2)
        with pytest.raises(Mismatch):
            ref.check_barycenter_move(mu, w, psi, w, target, 0.3)


class TestPathAndCertificates:
    def test_bayes_path(self):
        obs = [0, 1, 1, 0]
        got = ref.bayes_path(M2, ONES2, [0.5, 0.5], obs)
        x = np.array([0.5, 0.5])
        assert np.array_equal(got[0], x)
        for k, a in enumerate(obs):
            y = x @ M2[:, :, a]
            x = y / y.sum()
            np.testing.assert_allclose(got[k + 1], x, atol=1e-16)

    def test_bayes_path_keeps_state_on_zero_likelihood(self):
        m = P2[:, :, None] * np.eye(2)[None, :, :]
        m[:, 1, 1] = 0.0  # observation 1 is impossible from anywhere
        got = ref.bayes_path(m, ONES2, [0.5, 0.5], [1])
        assert np.array_equal(got[1], got[0])

    def test_shortest_rectangular(self):
        assert ref.shortest_rectangular(M2, ONES2, 3) == (0,)
        # a two-cycle with one uninformative observation: no product is a
        # rectangle (each is a permutation matrix)
        cyc = np.array([[0.0, 1.0], [1.0, 0.0]])[:, :, None]
        assert ref.shortest_rectangular(cyc, ONES2, 4) is None

    def test_cross_ratio_kappa(self):
        block = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert ref.cross_ratio_kappa(block) == pytest.approx(np.sqrt(6.0))
        assert ref.cross_ratio_kappa(np.ones((3, 3))) == 1.0

    def test_closeness_constants_horizon(self):
        cert = {"d0": 0.2, "D0": 0.6, "beta0": 1.0, "pi_F0": 0.8}
        got = ref.closeness_constants(cert, 1.0, 0.05)
        f = (3.0 - 1.0) / (3.0 + 1.0)
        assert 2 * f ** got["N"] < 0.05 <= 2 * f ** (got["N"] - 1)
        assert got["xi"] == 0.4
