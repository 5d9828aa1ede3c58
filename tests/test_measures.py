import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.errors import (
    BarycenterMismatch,
    MassMismatch,
    NegativeTarget,
    SpaceMismatch,
)
from filterlab.filter import pushforward_n
from filterlab.measures import (
    MARGINAL_TOL,
    MERGE_TOL,
    SLACKNESS_TOL,
    LipschitzWitness,
    PointMassMeasure,
    barycenter,
    barycenter_lower_bound,
    barycenter_match,
    brute_force_uniform_assignment,
    hahn_witness,
    half_mass_check,
    kantorovich,
    kantorovich_dual_check,
    merge_atoms,
    nearest_barycenter_distance,
    tv_distance,
)
from filterlab.model import (
    DensityVector,
    HmmModel,
    ObsSpace,
    StateSpace,
    load_model,
    markov_kernel,
)

from conftest import e, numeric_csv_rows, random_density


def _space(k, rng=None, weighted=False):
    lam = rng.uniform(0.5, 2.0, k) if weighted else np.ones(k)
    return StateSpace(tuple(range(k)), lam)


def _random_measure(rng, space, n_atoms, weights=None):
    pts = rng.dirichlet(np.ones(space.n), size=n_atoms) / space.lambda_weights
    w = weights if weights is not None else rng.uniform(0.1, 1.0, n_atoms)
    return PointMassMeasure(space, pts, w)


class TestTvDistance:
    def test_identical(self, m2):
        x = DensityVector(m2.states, [0.3, 0.7])
        assert tv_distance(x, x) == 0.0

    def test_disjoint_point_masses(self, m2):
        assert tv_distance(e(m2, 1), e(m2, 2)) == 2.0

    def test_hand_value(self, m2):
        x = DensityVector(m2.states, [0.8, 0.2])
        y = DensityVector(m2.states, [0.2, 0.8])
        assert tv_distance(x, y) == pytest.approx(1.2, abs=1e-15)

    def test_space_mismatch(self, m2):
        other = StateSpace([1, 2], [2.0, 2.0])
        with pytest.raises(SpaceMismatch):
            tv_distance(e(m2, 1), DensityVector(other, [0.5, 0.0]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_metric_axioms(self, a, b, c):
        rng = np.random.default_rng(a % 997 + b % 991 + c % 983)
        space = _space(4)
        x, y, z = (random_density(rng, space) for _ in range(3))
        assert tv_distance(x, y) == pytest.approx(tv_distance(y, x), abs=1e-15)
        assert tv_distance(x, z) <= tv_distance(x, y) + tv_distance(y, z) + 1e-12


class TestBarycenter:
    def test_dirac(self, m2):
        x = DensityVector(m2.states, [0.3, 0.7])
        np.testing.assert_array_equal(barycenter(PointMassMeasure.dirac(x)).values,
                                      x.values)

    def test_symmetric_mix(self, m2):
        mu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        np.testing.assert_allclose(barycenter(mu).values, [0.5, 0.5], atol=1e-15)

    def test_filter_law_mean_is_chain_marginal(self, m2):
        # both sides computed independently: enumeration vs matrix power
        P = markov_kernel(m2)
        x = e(m2, 1)
        for n in range(7):
            law = pushforward_n(m2, x, n)
            expected = x.masses @ np.linalg.matrix_power(P, n)
            np.testing.assert_allclose(law.barycenter_masses(), expected,
                                       atol=1e-12)


class TestKantorovich:
    def test_dirac_distance_is_tv(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            space = _space(int(rng.integers(2, 6)), rng, weighted=trial % 2 == 0)
            x, y = random_density(rng, space), random_density(rng, space)
            d, plan = kantorovich(PointMassMeasure.dirac(x),
                                  PointMassMeasure.dirac(y))
            assert d == pytest.approx(tv_distance(x, y), abs=1e-12)

    def test_halfsplit_example(self, m2):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        d, _ = kantorovich(mu, nu)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_identity(self, m2):
        mu = PointMassMeasure(m2.states, [[0.3, 0.7], [0.9, 0.1]], [0.4, 0.6])
        d, plan = kantorovich(mu, mu)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert plan.marginal_residual <= 1e-10

    def test_mass_mismatch(self, m2):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure(m2.states, [[1, 0]], [0.5])
        with pytest.raises(MassMismatch):
            kantorovich(mu, nu)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            space = _space(int(rng.integers(2, 5)), rng)
            w = rng.uniform(0.2, 1.0, 3)
            w = w / w.sum()
            mus = [_random_measure(rng, space, int(rng.integers(1, 5)), None)
                   for _ in range(3)]
            mus = [m.scaled(1.0 / m.total_mass) for m in mus]
            d01, _ = kantorovich(mus[0], mus[1])
            d10, _ = kantorovich(mus[1], mus[0])
            d02, _ = kantorovich(mus[0], mus[2])
            d12, _ = kantorovich(mus[1], mus[2])
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d01 <= d02 + d12 + 1e-9

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            space = _space(int(rng.integers(2, 5)), rng, weighted=trial % 3 == 0)
            n = int(rng.integers(1, 5))
            mu = _random_measure(rng, space, n, np.full(n, 1.0 / n))
            nu = _random_measure(rng, space, n, np.full(n, 1.0 / n))
            d, _ = kantorovich(mu, nu)
            assert d == pytest.approx(brute_force_uniform_assignment(mu, nu),
                                      abs=1e-10)

    def test_monotone_and_lp_agree_on_two_cells(self):
        rng = np.random.default_rng(3)
        space = _space(2)
        for _ in range(20):
            n1, n2 = rng.integers(1, 8, size=2)
            mu = _random_measure(rng, space, int(n1))
            nu = _random_measure(rng, space, int(n2))
            nu = nu.scaled(mu.total_mass / nu.total_mass)
            d, plan = kantorovich(mu, nu)
            assert plan.method == "monotone"
            from filterlab.measures import _cost_matrix, _lp_plan
            C = _cost_matrix(mu, nu)
            src, tgt, mass, u, v = _lp_plan(mu.weights, nu.weights, C)
            assert d == pytest.approx(float(mass @ C[src, tgt]), abs=1e-10)

    def test_plan_certificate_and_scaling(self):
        rng = np.random.default_rng(4)
        space = _space(4, rng)
        mu = _random_measure(rng, space, 5)
        nu = _random_measure(rng, space, 3)
        nu = nu.scaled(mu.total_mass / nu.total_mass)
        d, plan = kantorovich(mu, nu)
        assert plan.marginal_residual <= 1e-10
        assert plan.slackness_residual <= 1e-9
        # distance scales linearly with total mass
        d2, _ = kantorovich(mu.scaled(2.0), nu.scaled(2.0))
        assert d2 == pytest.approx(2.0 * d, abs=1e-10)

    def test_plan_csv(self, m2, tmp_path):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        _, plan = kantorovich(mu, nu)
        path = tmp_path / "plan.csv"
        plan.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,j,mass,cost"
        assert len(lines) == 1 + len(plan.mass)
        rows = numeric_csv_rows(path)
        np.testing.assert_array_equal([float(r["mass"]) for r in rows], plan.mass)


class TestDualSide:
    def test_zero_witness(self, m2):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        zero = LipschitzWitness(fn=lambda m: np.zeros(len(m)), gamma=1.0,
                                name="zero")
        assert kantorovich_dual_check(mu, nu, [zero]) == 0.0

    def test_hahn_witness_attains_barycenter_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            space = _space(int(rng.integers(2, 5)), rng)
            mu = _random_measure(rng, space, 3, np.full(3, 1 / 3))
            nu = _random_measure(rng, space, 4, np.full(4, 1 / 4))
            w = hahn_witness(mu, nu)
            gap = w.expectation(mu) - w.expectation(nu)
            assert gap == pytest.approx(barycenter_lower_bound(mu, nu), abs=1e-12)
            bound = kantorovich_dual_check(mu, nu, [w])
            d, _ = kantorovich(mu, nu)
            assert bound <= d + 1e-10

    def test_equal_barycenters_witness_zero(self, m2):
        mu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        nu = PointMassMeasure.dirac(DensityVector(m2.states, [0.5, 0.5]))
        assert kantorovich_dual_check(mu, nu, [hahn_witness(mu, nu)]) == \
            pytest.approx(0.0, abs=1e-15)


class TestBarycenterLowerBound:
    def test_tight_for_diracs(self, m2):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure.dirac(DensityVector(m2.states, [0.4, 0.6]))
        lb = barycenter_lower_bound(mu, nu)
        d, _ = kantorovich(mu, nu)
        assert lb == pytest.approx(d, abs=1e-12)

    def test_equal_barycenter_gap_to_distance(self, m2):
        mu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        nu = PointMassMeasure.dirac(DensityVector(m2.states, [0.5, 0.5]))
        assert barycenter_lower_bound(mu, nu) == 0.0
        d, _ = kantorovich(mu, nu)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            space = _space(int(rng.integers(2, 6)), rng)
            mu = _random_measure(rng, space, int(rng.integers(1, 6)))
            nu = _random_measure(rng, space, int(rng.integers(1, 6)))
            nu = nu.scaled(mu.total_mass / nu.total_mass)
            d, plan = kantorovich(mu, nu)
            assert barycenter_lower_bound(mu, nu) <= d + 1e-10
            # any feasible coupling costs at least the optimum
            assert d <= float(plan.mass @ plan.cost) + 1e-12


class TestBarycenterMatch:
    def test_same_target_is_identity(self, m2):
        phi = PointMassMeasure(m2.states, [[0.9, 0.1], [0.2, 0.8]], [0.3, 0.7])
        psi = barycenter_match(phi, DensityVector(m2.states,
                                                  barycenter(phi).values,
                                                  unnormalized=True))
        np.testing.assert_allclose(psi.points, phi.points, atol=1e-12)

    def test_two_atom_example(self, m2):
        phi = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        target = DensityVector(m2.states, [1.0, 0.0])
        psi = barycenter_match(phi, target)
        cost = float(sum(
            w * np.abs(p - q).sum()
            for p, q, w in zip(phi.mass_matrix(), psi.mass_matrix(), phi.weights)
        ))
        assert cost == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(psi.barycenter_masses(), [1.0, 0.0], atol=1e-12)

    def test_single_atom_base_case(self, m2):
        phi = PointMassMeasure.dirac(e(m2, 1))
        psi = barycenter_match(phi, DensityVector(m2.states, [0.3, 0.7]))
        np.testing.assert_allclose(psi.points[0], [0.3, 0.7], atol=1e-15)
        assert tv_distance(phi.atom(0), psi.atom(0)) == pytest.approx(1.4,
                                                                      abs=1e-15)

    def test_randomized_equalities(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            space = _space(k, rng, weighted=True)
            n = int(rng.integers(1, 6))
            phi = _random_measure(rng, space, n)
            target_mass = rng.dirichlet(np.ones(k)) * phi.total_mass
            target = DensityVector.from_masses(space, target_mass,
                                               unnormalized=True)
            psi = barycenter_match(phi, target)
            a = phi.barycenter_masses()
            cost = float(sum(
                w * np.abs(p - q).sum()
                for p, q, w in zip(phi.mass_matrix(), psi.mass_matrix(),
                                   phi.weights)
            ))
            assert cost == pytest.approx(np.abs(a - target_mass).sum(), abs=1e-10)
            np.testing.assert_allclose(psi.barycenter_masses(), target_mass,
                                       atol=1e-10)
            assert np.all(psi.points >= 0)
            # every moved atom must stay a probability density
            np.testing.assert_allclose(psi.point_masses, 1.0, atol=1e-10)

    def test_mass_mismatch(self, m2):
        phi = PointMassMeasure.dirac(e(m2, 1))
        with pytest.raises(MassMismatch):
            barycenter_match(phi, DensityVector(m2.states, [0.3, 0.3],
                                                unnormalized=True))

    def test_negative_target(self, m2):
        # the constructor already rejects negatives; the guard still holds for
        # hand-built vectors that sidestep it
        phi = PointMassMeasure.dirac(e(m2, 1))
        target = DensityVector.__new__(DensityVector)
        target.space = m2.states
        target.values = np.array([1.5, -0.5])
        with pytest.raises(NegativeTarget):
            barycenter_match(phi, target)


class TestNearestBarycenterDistance:
    def test_same_target(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        _, d = nearest_barycenter_distance(PointMassMeasure.dirac(pi), pi)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_dirac_example(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        y = DensityVector(m2.states, [0.7, 0.3])
        psi, d = nearest_barycenter_distance(PointMassMeasure.dirac(pi), y)
        assert d == pytest.approx(0.4, abs=1e-9)

    def test_atomized_example(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        y = DensityVector(m2.states, [0.7, 0.3])
        mu = PointMassMeasure.atomized(pi)
        psi, d = nearest_barycenter_distance(mu, y)
        assert d == pytest.approx(0.4, abs=1e-9)
        # certified two-sided: the lower bound meets the achieved cost
        assert barycenter_lower_bound(mu, psi) == pytest.approx(d, abs=1e-9)


class TestHalfMass:
    def test_dirac(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        mass, bound = half_mass_check(PointMassMeasure.dirac(pi), [1], pi=pi)
        assert mass == 1.0 and bound == 0.25

    def test_atomized(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        mass, bound = half_mass_check(PointMassMeasure.atomized(pi), [1], pi=pi)
        assert mass == pytest.approx(0.5) and bound == 0.25
        assert mass >= bound

    def test_zero_reference_mass(self, m2):
        pi = e(m2, 1)
        mass, bound = half_mass_check(PointMassMeasure.dirac(pi), [2], pi=pi)
        assert bound == 0.0 and mass == 1.0

    def test_barycenter_mismatch(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        with pytest.raises(BarycenterMismatch):
            half_mass_check(PointMassMeasure.dirac(e(m2, 1)), [1], pi=pi)


class TestMerging:
    def test_equal_atoms_merge(self, m2):
        mu = PointMassMeasure(m2.states, [[1, 0], [1, 0], [0, 1]],
                              [0.25, 0.25, 0.5])
        merged = mu.merged()
        assert merged.n_atoms == 2
        assert merged.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_merge_is_order_independent(self, m2):
        rng = np.random.default_rng(8)
        pts = rng.dirichlet(np.ones(2), size=5)
        pts = np.vstack([pts, pts[2]])
        w = rng.uniform(0.1, 1.0, 6)
        mu = PointMassMeasure(m2.states, pts, w)
        perm = rng.permutation(6)
        nu = PointMassMeasure(m2.states, pts[perm], w[perm])
        a, b = mu.merged(), nu.merged()
        np.testing.assert_allclose(a.points, b.points, atol=0)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-15)

    def test_bystander_does_not_split_a_pair(self):
        # the two near atoms differ by 2e-14 in TV; the bystander sits between
        # them in lexicographic order but 0.4 away from both
        space = _space(3)
        pts = [[0.3, 0.3, 0.4], [0.3 + 1e-14, 0.3, 0.4 - 1e-14],
               [0.3 + 5e-15, 0.1, 0.6 - 5e-15]]
        assert PointMassMeasure(space, pts[:2], [0.5, 0.5]).merged().n_atoms == 1
        merged = PointMassMeasure(space, pts, [0.25, 0.25, 0.5]).merged()
        assert merged.n_atoms == 2
        np.testing.assert_allclose(np.sort(merged.weights), [0.5, 0.5], atol=1e-15)

    def test_chain_merges_transitively(self):
        # neighbours 0.8e-12 apart, ends 1.6e-12 apart: one component
        space = _space(2)
        pts = [[0.5, 0.5], [0.5 + 4e-13, 0.5 - 4e-13], [0.5 + 8e-13, 0.5 - 8e-13]]
        merged = PointMassMeasure(space, pts, [0.2, 0.3, 0.5]).merged()
        assert merged.n_atoms == 1
        np.testing.assert_array_equal(merged.points[0], pts[0])


def _clustered_atoms(seed, blocks, tol=MERGE_TOL):
    """Atoms in chains of links 0.4 tol long, and atoms far from all of them.

    Returns cell weights, points (rows of ``blocks`` densities), weights, the
    chain of each atom and three extra atoms more than 100 tol from every
    point and from each other; some of these sit next to a chain atom in
    lexicographic order.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    lam = rng.uniform(0.5, 2.0, k)
    rows, chain = [], []
    for c in range(int(rng.integers(1, 6))):
        masses = rng.dirichlet(np.ones(k), size=blocks)
        for _ in range(int(rng.integers(1, 5))):
            rows.append(masses.copy())
            chain.append(c)
            if rng.random() < 0.3:  # an exact duplicate
                rows.append(masses.copy())
                chain.append(c)
            # move 0.2 tol of mass between two cells of one block
            b, i, j = rng.integers(blocks), *rng.choice(k, 2, replace=False)
            masses[b, i] += 0.2 * tol
            masses[b, j] -= 0.2 * tol
    points = np.array([(r / lam).ravel() for r in rows])
    weights = rng.uniform(0.1, 1.0, len(points))
    far = []
    while len(far) < 3:
        cand = rng.dirichlet(np.ones(k), size=blocks)
        if rng.random() < 0.5 and (k > 2 or blocks > 1):
            # a bystander: next to a chain atom in lexicographic order
            cand = rows[rng.integers(len(rows))].copy()
            cand[0, 0] += 0.1 * tol
            if blocks > 1:
                cand[1] = rng.dirichlet(np.ones(k))
            else:
                shift = 0.5 * min(cand[0, 1], cand[0, 2])
                cand[0, 1] -= shift
                cand[0, 2] += shift
        dist = np.abs(points.reshape(-1, blocks, k) * lam - cand).sum(axis=2).max(axis=1)
        if dist.min() > 100 * tol and all(
                np.abs(f - cand).sum(axis=1).max() > 100 * tol for f in far):
            far.append(cand)
    far_points = np.array([(f / lam).ravel() for f in far])
    return lam, points, weights, np.array(chain), far_points


class TestMergeAtomsProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_permutation_invariant(self, seed, blocks):
        lam, pts, w, _, _ = _clustered_atoms(seed, blocks)
        perm = np.random.default_rng(seed + 1).permutation(len(w))
        p1, w1 = merge_atoms(pts, w, lam, MERGE_TOL, blocks)
        p2, w2 = merge_atoms(pts[perm], w[perm], lam, MERGE_TOL, blocks)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_allclose(w1, w2, rtol=1e-14, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_far_atoms_change_nothing(self, seed, blocks):
        lam, pts, w, _, far = _clustered_atoms(seed, blocks)
        far_w = np.full(len(far), 0.7)
        p1, w1 = merge_atoms(pts, w, lam, MERGE_TOL, blocks)
        p2, w2 = merge_atoms(np.vstack([pts, far]), np.concatenate([w, far_w]),
                             lam, MERGE_TOL, blocks)
        is_far = (p2[:, None, :] == far[None, :, :]).all(axis=2).any(axis=1)
        assert is_far.sum() == len(far)
        np.testing.assert_array_equal(w2[is_far], far_w)
        np.testing.assert_array_equal(p2[~is_far], p1)
        np.testing.assert_allclose(w2[~is_far], w1, rtol=1e-14, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_each_chain_is_one_component(self, seed, blocks):
        lam, pts, w, chain, _ = _clustered_atoms(seed, blocks)
        p, merged_w = merge_atoms(pts, w, lam, MERGE_TOL, blocks)
        chain_w = np.bincount(chain, weights=w)
        np.testing.assert_allclose(np.sort(merged_w), np.sort(chain_w), rtol=1e-14)
        # each component keeps its lexicographically first point
        for c in range(len(chain_w)):
            members = pts[chain == c]
            first = members[np.lexsort(members.T[::-1])[0]]
            assert (p == first).all(axis=1).sum() == 1


class TestLazyScipy:
    def test_import_does_not_load_scipy(self):
        code = ("import sys, filterlab, filterlab.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "[]"

    def test_three_cell_transport_still_certified(self):
        rng = np.random.default_rng(12)
        space = _space(3)
        mu = _random_measure(rng, space, 6, np.full(6, 1 / 6))
        nu = _random_measure(rng, space, 5, np.full(5, 1 / 5))
        distance, plan = kantorovich(mu, nu)
        assert plan.method == "lp"
        assert plan.marginal_residual <= 1e-10 and plan.slackness_residual <= 1e-9
        assert distance >= barycenter_lower_bound(mu, nu) - 1e-12


class TestTransportLpTolerance:
    def test_filter_laws_certified_by_lp(self):
        # HiGHS at its default feasibility tolerances returns a plan on this
        # pair with marginal residual 8.4e-8, which the certificate rejects
        rng = np.random.default_rng([3, 3])
        m = rng.gamma(2.0, size=(3, 3, 3))
        m /= m.sum(axis=(1, 2), keepdims=True)
        model = HmmModel(StateSpace((1, 2, 3), np.ones(3)),
                         ObsSpace((1, 2, 3), np.ones(3)), m)
        mu = pushforward_n(model, e(model, 1), 5)
        nu = pushforward_n(model, e(model, 2), 5)
        assert mu.n_atoms == nu.n_atoms == 243
        distance, plan = kantorovich(mu, nu)
        assert plan.method == "lp"
        assert plan.marginal_residual <= 1e-10
        assert plan.slackness_residual <= 1e-9
        assert distance >= barycenter_lower_bound(mu, nu) - 1e-12


def _brute_force_components(points, lam, tol, blocks):
    """Connected components of "TV <= tol" by all-pairs distances and union-find."""
    n, k = len(points), len(lam)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    lam = np.tile(lam, blocks)
    for i in range(n):
        tv = (np.abs(points[i + 1:] - points[i]) * lam).reshape(-1, blocks, k)
        for j in np.flatnonzero(tv.sum(axis=2).max(axis=1) <= tol) + i + 1:
            parent[find(j)] = find(i)
    roots = np.array([find(i) for i in range(n)])
    return [np.flatnonzero(roots == r) for r in np.unique(roots)]


class TestMergeTies:
    def test_pairs_repeating_one_half(self):
        # 4,000 pairs whose first half takes two far-apart values, the widest
        # mass coordinate of the set; second halves form chains of 0.4-tol
        # links, so every pair ties exactly with 1,999 others in the first half
        rng = np.random.default_rng(41)
        tol = MERGE_TOL
        lam = rng.uniform(0.5, 2.0, 3)
        rows = []
        for y in rng.dirichlet(np.full(3, 50.0), size=400):
            for s in range(5):
                yy = y + np.array([0.4, -0.4, 0.0]) * tol * s
                rows += [np.r_[x, yy] for x in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])]
        points = np.array(rows) / np.tile(lam, 2)
        weights = rng.uniform(0.1, 1.0, len(points))
        start = time.perf_counter()
        merged, merged_w = merge_atoms(points, weights, lam, tol, blocks=2)
        elapsed = time.perf_counter() - start
        comps = _brute_force_components(points, lam, tol, blocks=2)
        assert len(comps) == len(merged) == 800
        for comp in comps:
            first = points[comp][np.lexsort(points[comp].T[::-1])[0]]
            at = np.flatnonzero((merged == first).all(axis=1))
            assert len(at) == 1
            assert merged_w[at[0]] == pytest.approx(weights[comp].sum(), rel=1e-14)
        # the tol window must not walk through the ties: one window pass per
        # tied pair took about 0.7 s on 4,000 pairs
        assert elapsed < 0.1


def _dense_transport_lp(mu, nu):
    """The transport LP over all m*n arcs at once, as one HiGHS solve."""
    from scipy.optimize import linprog

    a, b = mu.mass_matrix(), nu.mass_matrix()
    C = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    m, n = C.shape
    A = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(C.ravel(), A_eq=A, b_eq=np.r_[mu.weights, nu.weights],
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": MARGINAL_TOL,
                           "dual_feasibility_tolerance": MARGINAL_TOL})
    assert res.success
    return res.fun


class TestTransportPaths:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.integers(1, 60),
           st.integers(1, 60), st.floats(0.0, 1.0))
    def test_lp_matches_dense_linprog(self, seed, k, m, n, shared):
        rng = np.random.default_rng(seed)
        space = _space(k, rng, weighted=True)
        mu = _random_measure(rng, space, m)
        nu = _random_measure(rng, space, n)
        # a share of nu's atoms sit exactly on atoms of mu
        s = int(shared * min(m, n))
        nu.points[:s] = mu.points[rng.permutation(m)[:s]]
        nu = nu.scaled(mu.total_mass / nu.total_mass)
        d, plan = kantorovich(mu, nu)
        assert plan.method == "lp"
        assert plan.marginal_residual <= MARGINAL_TOL
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert d == pytest.approx(_dense_transport_lp(mu, nu), rel=1e-12, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([0.0, 1e-13, 1e-12]), st.booleans())
    def test_sorted_slackness_bound(self, seed, m, n, spread, optimal):
        from filterlab.measures import _cost_matrix, _line_min_reduced, _line_potentials
        rng = np.random.default_rng(seed)
        space = _space(2, rng, weighted=True)

        def measure(size):
            # cell-1 masses on a coarse grid half the time, so keys tie
            key = rng.uniform(0.0, 1.0, size)
            if rng.random() < 0.5:
                key = np.round(key * 4) / 4
            total = 1.0 + rng.uniform(-spread / 2, spread / 2, size)
            masses = np.column_stack([key * total, (1.0 - key) * total])
            return PointMassMeasure(space, masses / space.lambda_weights,
                                    rng.uniform(0.1, 1.0, size))

        mu, nu = measure(m), measure(n)
        delta = np.ptp(np.r_[mu.point_masses, nu.point_masses])
        key1, key2 = mu.mass_matrix()[:, 0], nu.mass_matrix()[:, 0]
        if optimal:
            nu = nu.scaled(mu.total_mass / nu.total_mass)
            u, v = _line_potentials(key1, key2, mu.weights, nu.weights)
        else:
            u, v = rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, n)
        dense = (_cost_matrix(mu, nu) - u[:, None] - v[None, :]).min()
        assert abs(_line_min_reduced(key1, key2, u, v) - dense) <= delta + 1e-15


# acceptance criterion 06 draws its inputs from default_rng(60); its trial
# 189 moves 3 atoms on 2 weighted cells to a new barycenter
_CRITERION_06_PAIR = """
import sys
import numpy as np
from filterlab.measures import PointMassMeasure, kantorovich, nearest_barycenter_distance
from filterlab.model import DensityVector, StateSpace
rng = np.random.default_rng(60)
for trial in range(190):
    k = int(rng.integers(2, 7))
    lam = rng.uniform(0.5, 2.0, k) if trial % 3 == 0 else np.ones(k)
    space = StateSpace(tuple(range(k)), lam)
    n = int(rng.integers(1, 6))
    pts = rng.dirichlet(np.ones(k), n) / space.lambda_weights
    weights = rng.uniform(0.1, 1.5, n)
    phi = PointMassMeasure(space, pts, weights)
    target_mass = rng.dirichlet(np.ones(k)) * phi.total_mass
y = DensityVector.from_masses(space, target_mass / phi.total_mass)
psi, _ = nearest_barycenter_distance(phi, y)
_, plan = kantorovich(phi, psi)
print(k, n, plan.method, any(m.startswith("scipy") for m in sys.modules))
"""


def _line_distance(mu, nu):
    """Two-cell closed form: 2 times the integral of |F_mu - F_nu| over cell-1 masses."""
    keys = np.concatenate([mu.mass_matrix()[:, 0], nu.mass_matrix()[:, 0]])
    order = np.argsort(keys, kind="stable")
    cdf_gap = np.cumsum(np.concatenate([mu.weights, -nu.weights])[order])[:-1]
    return 2.0 * float(np.abs(cdf_gap) @ np.diff(keys[order]))


class TestMonotonePlan:
    def test_criterion_06_pair_stays_monotone(self):
        # no rounding-level arc may cross this plan and send it to the LP
        out = subprocess.run([sys.executable, "-c", _CRITERION_06_PAIR],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.split() == ["2", "3", "monotone", "False"]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 39), st.integers(1, 39),
           st.sampled_from(["independent", "permuted", "barycenter", "tied", "light"]))
    def test_certified_and_closed_form(self, seed, m, n, kind):
        rng = np.random.default_rng(seed)
        space = _space(2, rng, weighted=bool(rng.integers(2)))
        mu = _random_measure(rng, space, m)
        if kind == "light":
            # weights over sixteen orders of magnitude, with a run of atoms
            # lighter than 1e-12 next to each other in key order
            w = 10 ** rng.uniform(-16, 0, m)
            order = np.argsort(mu.mass_matrix()[:, 0])
            run = order[rng.integers(m):][:rng.integers(1, 9)]
            w[run] = 10 ** rng.uniform(-17, -12, len(run))
            mu = PointMassMeasure(space, mu.points, w)
            if rng.integers(2):
                nu = _random_measure(rng, space, m, rng.permutation(w))
            else:
                nu = _random_measure(rng, space, n, 10 ** rng.uniform(-16, 0, n))
                nu = nu.scaled(mu.total_mass / nu.total_mass)
        elif kind == "independent":
            nu = _random_measure(rng, space, n)
            nu = nu.scaled(mu.total_mass / nu.total_mass)
        elif kind == "permuted":
            nu = _random_measure(rng, space, m, rng.permutation(mu.weights))
        elif kind == "barycenter":
            target = rng.dirichlet(np.ones(2)) * mu.total_mass
            nu = barycenter_match(mu, DensityVector.from_masses(space, target,
                                                                unnormalized=True))
        else:
            def tied(size):
                key = rng.integers(0, 5, size) / 4
                masses = np.column_stack([key, 1.0 - key])
                return masses / space.lambda_weights
            mu = PointMassMeasure(space, tied(m), mu.weights)
            nu = PointMassMeasure(space, tied(n), rng.uniform(0.1, 1.0, n))
            nu = nu.scaled(mu.total_mass / nu.total_mass)
        d, plan = kantorovich(mu, nu)
        assert plan.method == "monotone"
        assert plan.marginal_residual <= MARGINAL_TOL
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert abs(d - _line_distance(mu, nu)) <= 1e-12


    def test_run_of_light_atoms_keeps_the_heavy_one(self):
        # 3,000 atoms of 1e-13 follow one of 0.5 in key order: together
        # they outweigh the marginal tolerance, so none may give its mass
        # to the heavy atom
        space = _space(2)
        key = np.linspace(0.1, 0.9, 3001)
        w = np.r_[0.5, np.full(3000, 1e-13)]
        mu = PointMassMeasure(space, np.column_stack([key, 1 - key]), w)
        nu = PointMassMeasure(space, np.array([[0.5, 0.5]]), np.array([w.sum()]))
        d, plan = kantorovich(mu, nu)
        assert plan.method == "monotone"
        assert plan.marginal_residual <= 1e-15
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert abs(d - _line_distance(mu, nu)) <= 1e-12

    def test_light_last_atom_has_the_sign_of_its_arc(self):
        # past key 0.8 the two distribution functions differ by 1e-16 only;
        # the potentials must slope the way the plan's last arc runs
        space = _space(2)
        key = np.array([0.7, 0.6, 0.4, 0.9])
        mu = PointMassMeasure(space, np.column_stack([key, 1 - key]),
                              np.array([0.1, 0.97, 0.88, 1e-16]))
        nu = PointMassMeasure(space, np.array([[0.8, 0.2]]), np.array([mu.total_mass]))
        d, plan = kantorovich(mu, nu)
        assert plan.method == "monotone"
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert abs(d - _line_distance(mu, nu)) <= 1e-12

    def test_light_atom_among_600000(self):
        # (m + n) eps, the rounding error of a plain cumulative sum at this
        # size, exceeds MARGINAL_TOL; an atom of 1.2e-10 must keep its arc
        rng = np.random.default_rng(11)
        m = 300_000
        w = rng.uniform(0.5, 1.5, m)
        w /= w.sum()
        w[m // 2] = 1.2e-10
        space = _space(2)
        def line_measure(weights):
            key = np.sort(rng.random(m))
            return PointMassMeasure(space, np.column_stack([key, 1 - key]), weights)
        mu, nu = line_measure(w), line_measure(rng.permutation(w))
        d, plan = kantorovich(mu, nu)
        assert plan.method == "monotone"
        assert plan.marginal_residual <= 1e-15
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert abs(d - _line_distance(mu, nu)) <= 1e-12


class TestTransportMemory:
    def test_4096_atoms_a_side(self):
        # the dense cost tensor alone of this pair takes 268 MB
        model = load_model(Path(__file__).parents[1] / "demos/models/noisy_sensor.json")
        mu = pushforward_n(model, e(model, 1), 12)
        nu = pushforward_n(model, e(model, 2), 12)
        assert mu.n_atoms == nu.n_atoms == 4096
        tracemalloc.start()
        try:
            _, plan = kantorovich(mu, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.method == "monotone"
        assert peak < 100e6
