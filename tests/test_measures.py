import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from filterlab.coupling import JointFilterMeasure, coupled_laws, extremal_pair
from filterlab.errors import (
    BarycenterMismatch,
    MassMismatch,
    NegativeDensity,
    NegativeTarget,
    SolverFailure,
    SpaceMismatch,
)
from filterlab import measures
from filterlab.filter import filter_laws, pushforward_n
from filterlab.measures import (
    MARGINAL_TOL,
    MERGE_TOL,
    SLACKNESS_TOL,
    LipschitzWitness,
    PointMassMeasure,
    _merge_key,
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
    _check_nonnegative,
    load_model,
    markov_kernel,
    stationary,
)

from conftest import e, numeric_csv_rows, random_density

DEMOS = Path(__file__).parents[1] / "demos" / "models"


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

    def test_permutation_oracle_refuses_unequal_weights(self):
        # a permutation is optimal only between equal weights: on these
        # unequal ones a permutation costs 0.853, the transport distance 0.493
        rng = np.random.default_rng(2)
        space = _space(3)
        pts = rng.dirichlet(np.ones(3), size=6)
        mu = PointMassMeasure(space, pts[:3], [0.5, 0.3, 0.2])
        nu = PointMassMeasure(space, pts[3:], [0.2, 0.2, 0.6])
        with pytest.raises(MassMismatch, match="same weight"):
            brute_force_uniform_assignment(mu, nu)
        half = PointMassMeasure(space, pts[3:5], [0.5, 0.5])
        third = PointMassMeasure(space, pts[:3], np.full(3, 1 / 3))
        with pytest.raises(MassMismatch, match="atom counts"):
            brute_force_uniform_assignment(half, third)
        empty = PointMassMeasure.from_masses(space, np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(MassMismatch, match="same weight"):
            brute_force_uniform_assignment(empty, empty)
        uniform = PointMassMeasure(space, pts[3:], np.full(3, 1 / 3))
        d, _ = kantorovich(third, uniform)
        assert brute_force_uniform_assignment(third, uniform) == pytest.approx(d, abs=1e-10)

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
            C = measures._TvRows(mu.mass_matrix(), nu.mass_matrix())
            src, tgt, mass, u, v, min_reduced = measures._lp_plan(mu.weights, nu.weights, C)
            assert d == pytest.approx(float(mass @ C[src, tgt]), abs=1e-10)
            assert min_reduced >= -SLACKNESS_TOL

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

    def test_rounding_level_weights_stay_on_simplex(self):
        # weights down to 1e-16: the atom that takes the last remainder must
        # not be a rounding-level one, or dividing by its weight leaves K
        rng = np.random.default_rng(3)
        for _ in range(3000):
            k = int(rng.integers(2, 6))
            space = _space(k)
            n = int(rng.integers(1, 8))
            w = 10.0 ** rng.uniform(-16, 0, n)
            phi = PointMassMeasure(space, rng.dirichlet(np.ones(k), size=n), w)
            target_mass = rng.dirichlet(np.ones(k)) * w.sum()
            psi = barycenter_match(phi, DensityVector.from_masses(space, target_mass,
                                                                  unnormalized=True))
            assert np.all(psi.points >= 0)
            np.testing.assert_allclose(psi.point_masses, 1.0, rtol=0, atol=1e-12)
            cost = float(w @ np.abs(phi.mass_matrix() - psi.mass_matrix()).sum(axis=1))
            want = float(np.abs(phi.barycenter_masses() - target_mass).sum())
            assert cost == pytest.approx(want, rel=0, abs=1e-12)

    def test_mass_mismatch(self, m2):
        phi = PointMassMeasure.dirac(e(m2, 1))
        with pytest.raises(MassMismatch):
            barycenter_match(phi, DensityVector(m2.states, [0.3, 0.3],
                                                unnormalized=True))

    def test_mass_mismatch_prints_plain_numbers(self, m2):
        phi = PointMassMeasure.dirac(e(m2, 1))
        with pytest.raises(MassMismatch, match=r"^total masses differ: 1\.0 vs 2\.0$"):
            barycenter_match(phi, DensityVector(m2.states, [1.0, 1.0], unnormalized=True))

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_transfer_hits_the_target_at_the_gap(self, seed, at_barycenter):
        # weights over sixteen orders of magnitude, some exactly zero: every
        # bound is relative to the total weight, which may be far below one
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 8))
        space = _space(k, rng, weighted=True)
        w = 10.0 ** rng.uniform(-16, 0, n)
        w[rng.random(n) < 0.25] = 0.0
        w[rng.integers(n)] = 10.0 ** rng.uniform(-16, 0)
        phi = _random_measure(rng, space, n, w)
        r = phi.total_mass
        y_mass = phi.barycenter_masses() / r if at_barycenter else rng.dirichlet(np.ones(k))
        y = DensityVector.from_masses(space, y_mass, unnormalized=True)
        target = DensityVector(space, y.values * r, unnormalized=True)
        psi = barycenter_match(phi, target)
        assert np.abs(psi.barycenter_masses() - target.masses).sum() <= 1e-14 * r
        cost = float(w @ np.abs(phi.mass_matrix() - psi.mass_matrix()).sum(axis=1))
        gap = float(np.abs(phi.barycenter_masses() - target.masses).sum())
        assert abs(cost - gap) <= 1e-14 * r
        assert np.all(psi.points >= 0)
        np.testing.assert_allclose(psi.point_masses, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(psi.weights, w)

        def no_transport(*args):
            raise AssertionError("nearest_barycenter_distance solved a transport problem")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "kantorovich", no_transport)
            psi2, d = nearest_barycenter_distance(phi, y)
        np.testing.assert_array_equal(psi2.points, psi.points)
        assert d == cost


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

    @pytest.mark.parametrize("cls", [PointMassMeasure, JointFilterMeasure])
    def test_an_overflowing_sum_is_refused(self, cls):
        # merged() checks no row again, but the weights it summed can overflow
        space = _space(2)
        pts = [[0.5, 0.5], [0.5, 0.5]]
        halves = [pts, pts] if cls is JointFilterMeasure else [pts]
        mu = cls(space, *halves, [1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(NegativeDensity, match="atom weights"):
            mu.merged()

    @pytest.mark.parametrize("cls", [PointMassMeasure, JointFilterMeasure])
    @pytest.mark.parametrize("second", [[0.5, 0.5], [0.5 + 4e-13, 0.5 - 4e-13]])
    def test_an_overflowing_sum_raises_no_warning_first(self, cls, second):
        # numpy warnings are errors here: exact duplicates and near atoms alike
        # reach merged()'s own refusal
        space = _space(2)
        pts = [[0.5, 0.5], second]
        halves = [pts, pts] if cls is JointFilterMeasure else [pts]
        with pytest.raises(NegativeDensity, match="atom weights"):
            cls(space, *halves, [1e308, 1e308]).merged()


class TestOneGatePerLevel:
    """Each frontier level passes the sign check once: its children, then the merge."""

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []

        def counting(values, error, what):
            seen.append(what)
            _check_nonnegative(values, error, what)

        monkeypatch.setattr(measures, "_check_nonnegative", counting)
        return seen

    # 3e-3 prunes some of noisy_sensor's level-8 atoms, not all of them
    @pytest.mark.parametrize("prune_eps", [0.0, 3e-3])
    def test_filter_laws(self, checks, prune_eps):
        model = load_model(DEMOS / "noisy_sensor.json")
        laws = list(filter_laws(model, e(model, 1), 8, prune_eps))
        # weights and masses of each level's children, nothing else
        assert checks == ["atom weights", "atom densities"] * len(laws)
        assert (laws[-1].pruned_mass > 0.0) == (prune_eps > 0.0)

    def test_coupled_laws(self, checks):
        model = load_model(DEMOS / "noisy_sensor.json")
        mu, nu = extremal_pair(stationary(model)[0])
        checks.clear()
        joints = list(coupled_laws(model, mu, nu, 5))
        assert checks == ["atom weights", "atom densities"] * len(joints)
        # a marginal is a slice of gated pairs: it is merged without the check
        joints[-1].marginal_x(), joints[-1].marginal_y()
        assert len(checks) == 2 * len(joints)


class TestHeldMasses:
    def test_points_cannot_be_written(self, m2):
        mu = PointMassMeasure(m2.states, [[0.3, 0.7], [1.0, 0.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            mu.points[0] = [0.7, 0.3]
        np.testing.assert_array_equal(mu.points, [[0.3, 0.7], [1.0, 0.0]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 20))
    def test_masses_are_held_as_given(self, seed, k, n):
        rng = np.random.default_rng(seed)
        space = _space(k, rng, weighted=True)
        points = rng.dirichlet(np.ones(k), n) / space.lambda_weights
        w = rng.uniform(0.1, 1.0, n)
        held = PointMassMeasure(space, points, w).mass_matrix()
        assert held.tobytes() == (points * space.lambda_weights).tobytes()
        masses = rng.dirichlet(np.ones(k), n)
        assert PointMassMeasure.from_masses(space, masses, w).mass_matrix() is masses


    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 20))
    def test_both_constructors_are_from_masses(self, seed, k, n):
        # one density entry: the constructors hold points * lambda, bit for bit
        rng = np.random.default_rng(seed)
        space = _space(k, rng, weighted=True)
        lam = space.lambda_weights
        x, y = (rng.dirichlet(np.ones(k), n) / lam for _ in range(2))
        w = rng.uniform(0.1, 1.0, n)
        pairs = [(PointMassMeasure(space, x, w),
                  PointMassMeasure.from_masses(space, x * lam, w)),
                 (JointFilterMeasure(space, x, y, w),
                  JointFilterMeasure.from_masses(space, np.hstack([x * lam, y * lam]), w))]
        for built, direct in pairs:
            assert type(built) is type(direct)
            assert built._masses.tobytes() == direct._masses.tobytes()
            assert built.weights.tobytes() == direct.weights.tobytes()

    @pytest.mark.parametrize("cls, halves", [(PointMassMeasure, 1), (JointFilterMeasure, 2)])
    def test_empty_merge(self, cls, halves):
        # merge_atoms has no path of its own for no atoms: the general one returns none
        space = StateSpace((1, 2, 3), [1.0, 2.0, 0.5])
        merged = cls(space, *[np.empty((0, 3))] * halves, []).merged()
        assert type(merged) is cls and merged.n_atoms == 0
        assert merged._masses.shape == (0, 3 * halves)
        assert merged.total_mass == 0.0


def _clustered_atoms(seed, blocks, tol=MERGE_TOL):
    """Atoms in chains of links 0.4 tol long, and atoms far from all of them.

    Returns mass rows (``blocks`` vectors of cell masses each), weights, the
    chain of each atom and three extra atoms more than 100 tol from every
    row and from each other; some of these sit next to a chain atom in
    lexicographic order.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
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
    points = np.array([r.ravel() for r in rows])
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
        dist = np.abs(points.reshape(-1, blocks, k) - cand).sum(axis=2).max(axis=1)
        if dist.min() > 100 * tol and all(
                np.abs(f - cand).sum(axis=1).max() > 100 * tol for f in far):
            far.append(cand)
    far_points = np.array([f.ravel() for f in far])
    return points, weights, np.array(chain), far_points


def _key_rival(row, proj, blocks, rng):
    """A row about 1e-6 from ``row`` in TV whose merge key is the same float.

    Steps along a direction orthogonal to ``proj``, then one ulp at a time in
    the cell of largest weight until the keys agree; ``None`` if they never do.
    """
    v = rng.standard_normal(len(row))
    v -= (v @ proj) / (proj @ proj) * proj
    rival = row + 1e-6 * v / np.abs(v).sum()
    j = int(np.argmax(np.abs(proj)))
    for _ in range(200):
        want, got = _merge_key(np.vstack([row, rival]), blocks)
        if got == want:
            return rival if (rival >= 0).all() else None
        rival[j] = np.nextafter(rival[j], np.inf if (got < want) == (proj[j] > 0) else -np.inf)
    return None


class TestMergeAtomsProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_permutation_invariant(self, seed, blocks):
        # chains, plus rows repeated exactly three to five more times, every
        # weight distinct: the merged law is the same bytes in any input order
        pts, _, _, _ = _clustered_atoms(seed, blocks)
        rng = np.random.default_rng(seed + 1)
        dup = rng.choice(len(pts), size=min(len(pts), int(rng.integers(1, 4))), replace=False)
        pts = np.vstack([pts, np.repeat(pts[dup], rng.integers(3, 6, len(dup)), axis=0)])
        w = rng.uniform(0.1, 1.0, len(pts))
        assert len(np.unique(w)) == len(w)
        perm = rng.permutation(len(w))
        p1, w1 = merge_atoms(pts, w, MERGE_TOL, blocks)
        p2, w2 = merge_atoms(pts[perm], w[perm], MERGE_TOL, blocks)
        assert p1.tobytes() == p2.tobytes() and w1.tobytes() == w2.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_far_atoms_change_nothing(self, seed, blocks):
        pts, w, _, far = _clustered_atoms(seed, blocks)
        far_w = np.full(len(far), 0.7)
        p1, w1 = merge_atoms(pts, w, MERGE_TOL, blocks)
        p2, w2 = merge_atoms(np.vstack([pts, far]), np.concatenate([w, far_w]),
                             MERGE_TOL, blocks)
        is_far = (p2[:, None, :] == far[None, :, :]).all(axis=2).any(axis=1)
        assert is_far.sum() == len(far)
        np.testing.assert_array_equal(w2[is_far], far_w)
        np.testing.assert_array_equal(p2[~is_far], p1)
        np.testing.assert_allclose(w2[~is_far], w1, rtol=1e-14, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_each_chain_is_one_component(self, seed, blocks):
        pts, w, chain, _ = _clustered_atoms(seed, blocks)
        p, merged_w = merge_atoms(pts, w, MERGE_TOL, blocks)
        chain_w = np.bincount(chain, weights=w)
        np.testing.assert_allclose(np.sort(merged_w), np.sort(chain_w), rtol=1e-14)
        # each component keeps its lexicographically first point
        for c in range(len(chain_w)):
            members = pts[chain == c]
            first = members[np.lexsort(members.T[::-1])[0]]
            assert (p == first).all(axis=1).sum() == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 2]))
    def test_components_come_in_key_order(self, seed, blocks):
        # chains, exact duplicates and far atoms; twins one ulp from an atom
        # in its smallest cell, which tie with it on the key and join it; and
        # rivals about 1e-6 from an atom with exactly its key, which do not
        pts, w, _, far = _clustered_atoms(seed, blocks)
        rng = np.random.default_rng(seed + 2)
        proj = np.cos(np.arange(1, pts.shape[1] + 1)) / blocks
        twins = pts[rng.choice(len(pts), size=3)].copy()
        for t in twins:
            j = int(np.argmin(t))
            t[j] = np.nextafter(t[j], rng.choice([-1.0, 2.0]))
        rivals = [_key_rival(row, proj, blocks, rng)
                  for row in pts[rng.choice(len(pts), size=3)]]
        rivals = np.array([r for r in rivals if r is not None]).reshape(-1, pts.shape[1])
        pts = np.vstack([pts, far, twins, rivals])
        w = np.concatenate([w, rng.uniform(0.1, 1.0, len(pts) - len(w))])
        perm = rng.permutation(len(w))
        pts, w = pts[perm], w[perm]
        key = _merge_key(pts, blocks)
        firsts, reps, sums = [], [], []
        for comp in _brute_force_components(pts, MERGE_TOL, blocks):
            # the component's first atom in key order, lexicographic on ties,
            # places it; its lexicographically first row represents it
            firsts.append(comp[np.lexsort((*pts[comp].T[::-1], key[comp]))[0]])
            reps.append(pts[comp][np.lexsort(pts[comp].T[::-1])[0]])
            sums.append(w[comp].sum())
        firsts = np.array(firsts)
        order = np.lexsort((*pts[firsts].T[::-1], key[firsts]))
        merged, merged_w = merge_atoms(pts, w, MERGE_TOL, blocks)
        assert merged.tobytes() == np.array(reps)[order].tobytes()
        np.testing.assert_allclose(merged_w, np.array(sums)[order], rtol=1e-14, atol=0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_merge_without_edges_sorts_and_sums_duplicates(seed, blocks):
    # atoms at least 1e-6 apart in TV, some repeated exactly (at most twice,
    # so each summed weight is one exact addition) and some sharing their
    # first block, so the first column ties; they come in projection-key order
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    rows = list(rng.dirichlet(np.ones(k), size=(int(rng.integers(1, 30)), blocks)))
    if blocks == 2:
        rows += [np.stack([rows[0][0], rng.dirichlet(np.ones(k))]) for _ in range(3)]
    rows += [rows[i] for i in rng.choice(len(rows), size=len(rows) // 3, replace=False)]
    points = np.array([r.ravel() for r in rows])
    weights = rng.uniform(0.1, 1.0, len(points))
    perm = rng.permutation(len(points))
    points, weights = points[perm], weights[perm]
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    tv = np.abs(distinct[:, None] - distinct[None])
    tv = tv.reshape(len(distinct), len(distinct), blocks, k).sum(axis=3).max(axis=2)
    assume((tv + np.eye(len(distinct)) > 1e-6).all())
    key = _merge_key(distinct, blocks)
    by_key = np.argsort(key, kind="stable")
    p, w = merge_atoms(points, weights, MERGE_TOL, blocks)
    assert p.tobytes() == distinct[by_key].tobytes()
    np.testing.assert_array_equal(w, np.bincount(inverse.ravel(), weights=weights)[by_key])


class TestSortedUnion:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["float", "int64"]))
    def test_is_union1d_byte_for_byte(self, data, dtype):
        if dtype == "float":  # few values, so ties and both zeros recur
            values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 5e-324]) | st.floats(
                allow_nan=False)
        else:
            values = st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1)
        a, b = (np.array(data.draw(st.lists(values, max_size=40)), dtype=dtype)
                for _ in range(2))
        got, want = measures._sorted_union(a, b), np.union1d(a, b)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter on this one's import path; its stdout."""
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    return out.stdout.strip()


# a three-cell pair on the LP path, in a fresh interpreter
_LP_PAIR = """
import sys
import numpy as np
from filterlab import measures
from filterlab.measures import PointMassMeasure, kantorovich
from filterlab.model import StateSpace
rng = np.random.default_rng(12)
space = StateSpace((1, 2, 3), np.ones(3))
mu = PointMassMeasure(space, rng.dirichlet(np.ones(3), 6), np.full(6, 1 / 6))
nu = PointMassMeasure(space, rng.dirichlet(np.ones(3), 5), np.full(5, 1 / 5))
CORE = "scipy.optimize._highspy._core"
"""


class TestLazyScipy:
    def test_import_does_not_load_scipy(self):
        # nor numpy.ma or numpy.random, which numpy loads on first use
        code = ("import sys, filterlab, filterlab.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')"
                " or m in ('numpy.ma', 'numpy.random')))")
        assert _fresh_python(code) == "[]"

    def test_lp_loads_highs_alone(self):
        code = _LP_PAIR + """
assert kantorovich(mu, nu)[1].method == "lp"
print(sorted(m for m in ("scipy.optimize", "numpy.ma", CORE) if m in sys.modules))
"""
        assert _fresh_python(code) == repr(["scipy.optimize._highspy._core"])

    def test_later_scipy_optimize_reuses_the_loaded_highs(self):
        code = _LP_PAIR + """
kantorovich(mu, nu)
core = sys.modules[CORE]
import scipy.optimize
from scipy.optimize._highspy import _core
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
print(_core is core, res.status, res.x.tolist())
"""
        assert _fresh_python(code) == "True 0 [1.0, 0.0]"

    def test_lp_reuses_a_highs_scipy_optimize_loaded(self):
        code = _LP_PAIR + """
import scipy.optimize
from scipy.optimize._highspy import _core
built = []

class Counted(_core._Highs):
    def __init__(self):
        super().__init__()
        built.append(self)

_core._Highs = Counted
assert kantorovich(mu, nu)[1].method == "lp"
print(measures._highs_core() is _core, sys.modules[CORE] is _core, len(built))
"""
        assert _fresh_python(code) == "True True 1"

    def test_cli_transport_on_three_cells(self, tmp_path):
        rng = np.random.default_rng(4)
        for name, k in (("mu", 40), ("nu", 30)):
            doc = {"space": {"ids": [1, 2, 3], "lambda": [1.0, 1.0, 1.0]},
                   "atoms": [{"point": p.tolist(), "weight": 1.0 / k}
                             for p in rng.dirichlet(np.ones(3), k)]}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out = subprocess.run(
            [sys.executable, "-m", "filterlab.cli", "transport", "--mu",
             str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.returncode == 0, out.stderr
        assert json.loads((tmp_path / "out" / "transport.json").read_text())["method"] == "lp"

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


def _brute_force_components(points, tol, blocks):
    """Connected components of "TV <= tol" by all-pairs distances and union-find.

    Each row of ``points`` is ``blocks`` vectors of cell masses.
    """
    n, k = len(points), points.shape[1] // blocks
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        tv = np.abs(points[i + 1:] - points[i]).reshape(-1, blocks, k)
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
        rows = []
        for y in rng.dirichlet(np.full(3, 50.0), size=400):
            for s in range(5):
                yy = y + np.array([0.4, -0.4, 0.0]) * tol * s
                rows += [np.r_[x, yy] for x in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])]
        points = np.array(rows)
        weights = rng.uniform(0.1, 1.0, len(points))
        start = time.perf_counter()
        merged, merged_w = merge_atoms(points, weights, tol, blocks=2)
        elapsed = time.perf_counter() - start
        comps = _brute_force_components(points, tol, blocks=2)
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
        draws = [(rng.dirichlet(np.ones(k), size) / space.lambda_weights,
                  rng.uniform(0.1, 1.0, size)) for size in (m, n)]
        # a share of nu's atoms sit exactly on atoms of mu
        s = int(shared * min(m, n))
        draws[1][0][:s] = draws[0][0][rng.permutation(m)[:s]]
        mu, nu = (PointMassMeasure(space, pts, w) for pts, w in draws)
        nu = nu.scaled(mu.total_mass / nu.total_mass)
        on_mu = (nu.mass_matrix()[:, None] == mu.mass_matrix()[None]).all(axis=2).any(axis=1)
        assert on_mu[:s].all()
        d, plan = kantorovich(mu, nu)
        assert plan.method == "lp"
        assert plan.marginal_residual <= MARGINAL_TOL
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert d == pytest.approx(_dense_transport_lp(mu, nu), rel=1e-12, abs=1e-15)

    def test_lp_path_needs_no_linprog(self, monkeypatch):
        import scipy.optimize

        rng = np.random.default_rng(14)
        space = _space(3, rng, weighted=True)
        mu = _random_measure(rng, space, 40)
        nu = _random_measure(rng, space, 30)
        nu = nu.scaled(mu.total_mass / nu.total_mass)
        dense = _dense_transport_lp(mu, nu)

        def refuse(*args, **kwargs):
            raise AssertionError("the LP path called linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        d, plan = kantorovich(mu, nu)
        assert plan.method == "lp"
        assert plan.marginal_residual <= MARGINAL_TOL
        assert plan.slackness_residual <= SLACKNESS_TOL
        assert d == pytest.approx(dense, rel=1e-12, abs=0)

    @pytest.mark.parametrize("method, enum, value, named", [
        ("run", "HighsStatus", "kError", "kError"),
        ("getModelStatus", "HighsModelStatus", "kIterationLimit", "Iteration limit"),
    ], ids=["run", "getModelStatus"])
    def test_highs_status_other_than_optimal_is_a_solver_failure(
            self, method, enum, value, named, monkeypatch):
        from scipy.optimize._highspy import _core

        base, status = _core._Highs, getattr(getattr(_core, enum), value)

        def faulty(highs):
            getattr(base, method)(highs)
            return status

        monkeypatch.setattr(_core, "_Highs", type("Faulty", (base,), {method: faulty}))
        rng = np.random.default_rng(12)
        space = _space(3)
        mu = _random_measure(rng, space, 6, np.full(6, 1 / 6))
        nu = _random_measure(rng, space, 5, np.full(5, 1 / 5))
        with pytest.raises(SolverFailure, match=named):
            kantorovich(mu, nu)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([0.0, 1e-13, 1e-12]), st.booleans())
    def test_sorted_slackness_bound(self, seed, m, n, spread, optimal):
        from filterlab.measures import (_cost_matrix, _line_min_reduced, _line_potentials,
                                        _line_sums)
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
        sums = _line_sums(mu.weights, nu.weights, key1, key2)
        if optimal:
            u, v = _line_potentials(key1, key2, *sums)
        else:
            u, v = rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, n)
        dense = (_cost_matrix(mu, nu) - u[:, None] - v[None, :]).min()
        assert abs(_line_min_reduced(key1, key2, sums[2], u, v) - dense) <= delta + 1e-15


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

    def test_lp_cost_budget_changes_no_bit(self, monkeypatch):
        # 1,200 x 260 atoms: the default budget keeps all five row blocks,
        # a budget of one block recomputes four of them on every scan
        rng = np.random.default_rng(21)
        space = _space(3)
        mu = _random_measure(rng, space, 1200)
        nu = _random_measure(rng, space, 260)
        nu = nu.scaled(mu.total_mass / nu.total_mass)
        block = measures._ROW_BLOCK * nu.n_atoms * 8
        solves = {}
        for budget in (measures._KEEP_BYTES, block):
            monkeypatch.setattr(measures, "_KEEP_BYTES", budget)
            tracemalloc.start()
            try:
                d, plan = kantorovich(mu, nu)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert plan.method == "lp"
            solves[budget] = d, plan, peak
        (d, plan, full_peak), (d1, plan1, peak1) = solves.values()
        assert np.float64(d1).tobytes() == np.float64(d).tobytes()
        for field in ("source", "target", "mass", "cost", "potential_source",
                      "potential_target"):
            assert getattr(plan1, field).tobytes() == getattr(plan, field).tobytes()
        # the budget, a few scratch blocks and the arcs' arrays (about one
        # block here): six blocks in all
        assert peak1 < block + 7 * block
        assert peak1 < full_peak


class TestLpStartArcs:
    # seven and six hand-placed atoms on three cells, rows summing to one
    A = np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6], [0.5, 0.25, 0.25],
                  [0.25, 0.5, 0.25], [0.25, 0.25, 0.5], [0.4, 0.4, 0.2]])
    B = np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.45, 0.1, 0.45],
                  [0.1, 0.45, 0.45], [0.2, 0.5, 0.3]])
    W1 = np.array([0.1, 0.2, 0.1, 0.15, 0.15, 0.2, 0.1])
    W2 = np.array([0.2, 0.1, 0.2, 0.15, 0.15, 0.2])

    @pytest.mark.parametrize("scale", [1, 2, 4])
    def test_start_arcs_hold_every_plan_and_nearest_atom(self, scale):
        """The start arcs are exactly the monotone plans' arcs.

        The name dates from a start set that also held each atom's nearest
        atoms; that search is gone.  Both weight vectors are scaled by a
        power of two, which is exact, so the arcs must not change with it.
        """
        m, n = len(self.A), len(self.B)
        w1, w2 = scale * self.W1, scale * self.W2
        arcs = measures._start_arcs(measures._TvRows(self.A, self.B), w1, w2)
        keys = [(_merge_key(self.A), _merge_key(self.B))]
        keys += [(self.A[:, c], self.B[:, c]) for c in range(3)]
        plans = []
        for key1, key2 in keys:
            src, tgt, mass = measures._monotone_plan(*measures._line_sums(w1, w2, key1, key2))
            # each plan couples the two weight vectors, so the first LP is feasible
            np.testing.assert_allclose(np.bincount(src, mass, m), w1, rtol=0, atol=1e-15 * scale)
            np.testing.assert_allclose(np.bincount(tgt, mass, n), w2, rtol=0, atol=1e-15 * scale)
            plans.append(src * n + tgt)
        assert np.array_equal(arcs, np.unique(np.concatenate(plans)))
        assert np.array_equal(
            arcs, measures._start_arcs(measures._TvRows(self.A, self.B), self.W1, self.W2))
        # every cell's plan adds arcs the key's plan lacks
        for plan in plans[1:]:
            assert not np.isin(plan, plans[0]).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 4), st.integers(1, 40),
           st.integers(1, 40), st.floats(0.0, 1.0))
    def test_distance_does_not_depend_on_atom_order(self, seed, k, m, n, shared):
        rng = np.random.default_rng(seed)
        space = _space(k, rng, weighted=True)
        mu, nu = _random_measure(rng, space, m), _random_measure(rng, space, n)
        # a share of nu's atoms sit exactly on atoms of mu
        s = int(shared * min(m, n))
        b = nu.mass_matrix().copy()
        b[:s] = mu.mass_matrix()[rng.permutation(m)[:s]]
        nu = PointMassMeasure.from_masses(space, b, nu.weights * (mu.total_mass / nu.total_mass))
        p1, p2 = rng.permutation(m), rng.permutation(n)
        permuted = [PointMassMeasure.from_masses(space, x.mass_matrix()[p], x.weights[p])
                    for x, p in ((mu, p1), (nu, p2))]
        d, plan = kantorovich(mu, nu)
        d_perm, plan_perm = kantorovich(*permuted)
        for p in (plan, plan_perm):
            assert p.method == "lp"
            assert p.marginal_residual <= MARGINAL_TOL
            assert p.slackness_residual <= SLACKNESS_TOL
        assert d_perm == pytest.approx(d, rel=1e-12, abs=1e-15)


class TestTvRows:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 40),
           st.integers(1, 40))
    def test_cell_by_cell_sums(self, seed, k, m, n):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(k), m) * rng.uniform(0.5, 2.0, k)
        b = rng.dirichlet(np.ones(k), n) * rng.uniform(0.5, 2.0, k)
        b[: min(m, n) // 2] = a[: min(m, n) // 2]  # zero-cost pairs too
        C = measures._TvRows(a, b)
        dense = np.abs(a[:, None] - b[None]).sum(axis=2)
        lo = int(rng.integers(0, m))
        rows = np.vstack([C[:lo], C[lo:]])
        i, j = rng.integers(0, m, 200), rng.integers(0, n, 200)
        arcs = C[i, j]
        if k <= 7:
            # numpy sums a last axis shorter than 8 left to right, as _TvRows does
            assert np.array_equal(rows, dense)
            assert np.array_equal(arcs, dense[i, j])
        else:
            # summation orders differ by at most 2 (k - 1) units in the last place
            np.testing.assert_array_max_ulp(rows, dense, maxulp=2 * (k - 1))
        # the pricing scan and the certificate read the same costs
        assert np.array_equal(arcs, rows[i, j])
