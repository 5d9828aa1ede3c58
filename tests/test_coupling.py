import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.contraction import check_condition_P, e1_constants
from filterlab.coupling import (
    EConditionReport,
    JointFilterMeasure,
    condition_E_estimate,
    coupled_chain,
    coupled_filter_step,
    coupled_laws,
    extremal_pair,
    first_positive_alpha,
    product_coupling,
    vasershtein_obs_coupling,
)
from filterlab import coupling
from filterlab.errors import BarycenterMismatch, BudgetExceeded
from filterlab.filter import filter_laws, observation_law, pushforward_n
from filterlab.measures import MERGE_TOL, PointMassMeasure, merge_atoms
from filterlab.model import DensityVector, load_model, partition_model, stationary

from conftest import bayes_step_per_row, e, random_density, random_model

DEMOS = Path(__file__).parents[1] / "demos" / "models"


class TestObsCoupling:
    def test_identical_states_purely_diagonal(self, m2):
        x = DensityVector(m2.states, [0.4, 0.6])
        c = vasershtein_obs_coupling(m2, x, x)
        assert c.off_mass.size == 0
        np.testing.assert_allclose(
            c.diagonal, observation_law(m2, x) * m2.obs.tau_weights, atol=1e-15)

    def test_m2_vertex_pair(self, m2):
        c = vasershtein_obs_coupling(m2, e(m2, 1), e(m2, 2))
        assert c.diagonal_mass == pytest.approx(0.76, abs=1e-12)
        assert len(c.off_mass) == 1
        assert (c.off_source[0], c.off_target[0]) == (0, 1)
        assert c.off_mass[0] == pytest.approx(0.24, abs=1e-12)
        assert c.marginal_residual() <= 1e-12

    def test_diagonal_is_maximal(self):
        # diagonal mass = 1 - TV(observation laws)/2, brute-force oracle
        rng = np.random.default_rng(0)
        for trial in range(30):
            model = random_model(rng, int(rng.integers(2, 5)),
                                 int(rng.integers(2, 5)),
                                 weighted=trial % 2 == 0)
            x = random_density(rng, model.states)
            y = random_density(rng, model.states)
            c = vasershtein_obs_coupling(model, x, y)
            tau = model.obs.tau_weights
            tv_obs = float(np.abs((observation_law(model, x)
                                   - observation_law(model, y)) * tau).sum())
            assert c.diagonal_mass == pytest.approx(1.0 - tv_obs / 2.0,
                                                    abs=1e-12)
            assert c.marginal_residual() <= 1e-12
            assert c.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_likelihood_floor_forces_diagonal_mass(self, partition_fixture):
        # with likelihood at least eta on B for both states, the diagonal
        # carries at least eta * tau(B)
        model = partition_fixture
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1], [1])
        e1c = e1_constants(model, pi, cert, rho=0.1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            # states holding at least the threshold mass on F0
            masses = rng.dirichlet(np.ones(2), size=2)
            masses = e1c.threshold * np.array([[1, 0], [1, 0]]) \
                + (1 - e1c.threshold) * masses
            x = DensityVector.from_masses(model.states, masses[0])
            y = DensityVector.from_masses(model.states, masses[1])
            c = vasershtein_obs_coupling(model, x, y)
            assert c.diagonal_mass_on([1]) >= e1c.eta * e1c.beta - 1e-12


class TestCoupledStep:
    def test_identical_states_stay_diagonal(self, m2):
        x = DensityVector(m2.states, [0.4, 0.6])
        joint = coupled_filter_step(m2, x, x)
        assert np.all(joint.pair_tv() <= 1e-15)

    def test_halves_cannot_be_written(self, m2):
        joint = coupled_filter_step(m2, e(m2, 1), e(m2, 2))
        for half in (joint.x_points, joint.y_points):
            with pytest.raises(ValueError, match="read-only"):
                half[0] = [0.5, 0.5]

    def test_m2_vertex_pair_atoms(self, m2):
        joint = coupled_filter_step(m2, e(m2, 1), e(m2, 2))
        assert joint.n_atoms == 3
        assert joint.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_marginals_are_pushforwards(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 5)),
                                 int(rng.integers(2, 4)))
            x = random_density(rng, model.states)
            y = random_density(rng, model.states)
            joint = coupled_filter_step(model, x, y)
            for marg, start in ((joint.marginal_x(), x), (joint.marginal_y(), y)):
                law = pushforward_n(model, start, 1)
                assert marg.n_atoms == law.n_atoms
                np.testing.assert_allclose(marg.points, law.points, atol=1e-12)
                np.testing.assert_allclose(marg.weights, law.weights, atol=1e-12)


def test_pair_merge_reads_each_half_alone(m2):
    # each half of the two pairs lies 8e-13 apart in TV, the whole rows
    # 1.6e-12: pairs merge on their farther half, atoms on their whole row
    d = 4e-13
    points = [[0.5, 0.5], [0.5 + d, 0.5 - d]]
    joint = JointFilterMeasure(m2.states, points, points, [0.25, 0.75]).merged()
    assert type(joint) is JointFilterMeasure and joint.n_atoms == 1
    assert joint.total_mass == 1.0
    assert len(merge_atoms(np.hstack([points, points]), np.array([0.25, 0.75]),
                           MERGE_TOL)[1]) == 2
    assert type(PointMassMeasure(m2.states, points, [0.25, 0.75]).merged()) is PointMassMeasure


class TestCoupledChain:
    def test_zero_steps_is_product(self, m2):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        joint = coupled_chain(m2, mu, nu, 0)
        direct = product_coupling(mu, nu).merged()
        np.testing.assert_allclose(joint.x_points, direct.x_points, atol=0)
        np.testing.assert_allclose(joint.weights, direct.weights, atol=0)

    def test_equal_starts_stay_diagonal(self, m2):
        x = DensityVector(m2.states, [0.3, 0.7])
        mu = PointMassMeasure.dirac(x)
        for n in range(4):
            joint = coupled_chain(m2, mu, mu, n)
            assert np.all(joint.pair_tv() <= 1e-12)
            assert joint.mass_within(1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_marginals_match_three_step_law(self, m2):
        x, y = e(m2, 1), e(m2, 2)
        joint = coupled_chain(m2, PointMassMeasure.dirac(x),
                              PointMassMeasure.dirac(y), 3)
        assert joint.total_mass == pytest.approx(1.0, abs=1e-10)
        for marg, start in ((joint.marginal_x(), x), (joint.marginal_y(), y)):
            law = pushforward_n(m2, start, 3)
            assert marg.n_atoms == law.n_atoms
            np.testing.assert_allclose(np.sort(marg.points, axis=0),
                                       np.sort(law.points, axis=0), atol=1e-10)
            np.testing.assert_allclose(np.sort(marg.weights),
                                       np.sort(law.weights), atol=1e-10)

    def test_budget_checked_before_the_step(self, m2, monkeypatch):
        mu = PointMassMeasure(m2.states, [[1, 0], [0, 1]], [0.5, 0.5])
        laws = coupled_laws(m2, mu, mu, 3, budget=4 * m2.n_obs**2 - 1)
        assert next(laws).n_atoms == 4

        def no_step(*args):
            raise AssertionError("stepped past the budget")

        monkeypatch.setattr(coupling, "_coupled_step", no_step)
        with pytest.raises(BudgetExceeded):
            next(laws)


def test_coupled_laws_keep_their_inputs_pruned_mass():
    # a coupling of pruned laws misses what the product of the unpruned ones holds
    model = load_model(DEMOS / "noisy_sensor.json")
    mu = pushforward_n(model, e(model, 1), 8, prune_eps=3e-3)
    assert mu.pruned_mass > 0.2
    laws = [product_coupling(mu, mu), *coupled_laws(model, mu, mu, 3)]
    for joint in laws:
        assert joint.pruned_mass > 0.4
        assert abs(joint.pruned_mass + joint.total_mass - 1.0) <= 1e-12


class TestConditionEEstimate:
    def test_diameter_rho_all_mass(self, m2):
        pi, _ = stationary(m2)
        reports = condition_E_estimate(m2, pi, rho=2.0, n_max=1)
        by_n = {r.n: r for r in reports}
        # interior center: every pair is strictly within the diameter
        assert by_n[0].alpha_achieved == pytest.approx(1.0, abs=1e-12)
        assert by_n[1].alpha_achieved == pytest.approx(1.0, abs=1e-12)

    def test_partition_fixture_meets_certificate(self, partition_fixture):
        model = partition_fixture
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1], [1])
        e1c = e1_constants(model, pi, cert, rho=0.1)
        reports = condition_E_estimate(model, pi, rho=0.1, n_max=e1c.N)
        at_n = [r for r in reports if r.n == e1c.N][0]
        assert at_n.alpha_achieved >= e1c.alpha - 1e-9
        assert at_n.alpha_achieved == pytest.approx(0.8, abs=1e-12)

    def test_m2_meets_certificate_at_large_rho(self, m2):
        pi, _ = stationary(m2)
        cert = check_condition_P(m2, pi, [1, 2], [1])
        assert cert.ok
        e1c = e1_constants(m2, pi, cert, rho=2.0)
        assert e1c.N == 1
        reports = condition_E_estimate(m2, pi, rho=2.0, n_max=1)
        at_n = [r for r in reports if r.n == 1][0]
        assert at_n.alpha_achieved >= e1c.alpha - 1e-9

    def test_coupling_inequality_bounds_distance(self, partition_fixture):
        # mass alpha within rho and the rest within the diameter caps the
        # exact transport distance at 2 - alpha (2 - rho)
        from filterlab.measures import kantorovich

        model = partition_fixture
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1], [1])
        rho = 0.1
        e1c = e1_constants(model, pi, cert, rho=rho)
        mu, nu = extremal_pair(pi)
        joint = coupled_chain(model, mu, nu, e1c.N)
        d, _ = kantorovich(joint.marginal_x(), joint.marginal_y())
        assert d <= 2.0 - e1c.alpha * (2.0 - rho) + 1e-9
        # any explicit coupling also caps the optimum from above
        assert d <= float(joint.weights @ joint.pair_tv()) + 1e-12

    def test_user_pair_barycenter_validated(self, m2):
        pi, _ = stationary(m2)
        bad = PointMassMeasure.dirac(e(m2, 1))
        good = PointMassMeasure.dirac(pi)
        with pytest.raises(BarycenterMismatch):
            condition_E_estimate(m2, pi, rho=0.5, n_max=1,
                                 extra_pairs=[(good, bad)])

    def test_first_positive_alpha(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        reports = condition_E_estimate(partition_fixture, pi, rho=0.1, n_max=2)
        best = first_positive_alpha(reports)
        assert best is not None and best.n == 1
        assert first_positive_alpha([]) is None

    def test_report_json(self):
        r = EConditionReport(rho=0.1, n=2, alpha_achieved=0.5,
                             mu_label="a", nu_label="b")
        doc = json.loads(r.to_json())
        assert doc["rho"] == 0.1 and doc["N"] == 2 and doc["alpha"] == 0.5
        assert "evidence" in doc["note"]


class TestExtremalPair:
    def test_barycenters_match(self, m2):
        pi, _ = stationary(m2)
        dirac, atomized = extremal_pair(pi)
        np.testing.assert_allclose(dirac.barycenter_masses(), pi.masses,
                                   atol=1e-15)
        np.testing.assert_allclose(atomized.barycenter_masses(), pi.masses,
                                   atol=1e-15)


def _reference_step(model, x, y):
    """Per-atom coupled step: maximal-diagonal coupling, then both Bayes updates."""
    lam, tau, S = model.states.lambda_weights, model.obs.tau_weights, model.stepping_matrices
    xm, ym = x * lam, y * lam
    gx = np.array([(xm @ k).sum() for k in S])
    gy = np.array([(ym @ k).sum() for k in S])
    common = np.minimum(gx, gy)
    ex, ey = (gx - common) * tau, (gy - common) * tau
    pairs = [(a, a, common[a] * tau[a]) for a in range(model.n_obs)]
    if ex.sum() > 0:
        pairs += [(a, b, ex[a] * ey[b] / ex.sum())
                  for a in range(model.n_obs) for b in range(model.n_obs)
                  if ex[a] > 0 and ey[b] > 0]
    out = []
    for a, b, w in pairs:
        if w > 0:
            nx, ny = xm @ S[a], ym @ S[b]
            px = nx / nx.sum() / lam if nx.sum() > 0 else x
            py = ny / ny.sum() / lam if ny.sum() > 0 else y
            out.append((px, py, w))
    return out


def _coupled_step_per_pair(model, masses, weights):
    """The children of ``_coupled_step`` one pair and observation pair at a time.

    Likelihoods and updates are those of :func:`bayes_step_per_row`, rows of
    the one batched product; each pair's coupling weights are the diagonal
    ``common * tau`` and the excess products ``ex[a] * ey[b] / total``.
    Returns the children in (pair, a, b) order, with their ``(a, b, pair)``.
    """
    k, tau = model.n_states, model.obs.tau_weights
    live = weights > 0.0
    masses, weights = masses[live], weights[live]
    gx, hx = bayes_step_per_row(model, masses[:, :k])
    gy, hy = bayes_step_per_row(model, masses[:, k:])
    children, child_w, index = [], [], []
    for p in range(len(weights)):
        common = np.minimum(gx[p], gy[p])
        ex, ey = (gx[p] - common) * tau, (gy[p] - common) * tau
        total = ex.sum() if ex.sum() > 0.0 else 1.0
        for a in range(model.n_obs):
            for b in range(model.n_obs):
                w = common[a] * tau[a] if a == b else ex[a] * ey[b] / total
                if w > 0.0:
                    children.append(np.concatenate([hx[p, a], hy[p, b]]))
                    child_w.append(w * weights[p])
                    index.append((a, b, p))
    return np.reshape(children, (-1, 2 * k)), np.array(child_w), np.reshape(index, (-1, 3))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4),
       st.floats(0.0, 0.8), st.integers(1, 6))
def test_coupled_step_is_the_per_pair_arithmetic(seed, n_states, n_obs, sparsity, n_pairs):
    # bit-identical children on a stack of pairs, with zero-likelihood halves
    # (all-zero ones too) and pairs of zero weight; the step lists them
    # observation-major, so the reference is permuted into (a, b, pair) order
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states, n_obs, weighted=True, sparsity=sparsity)
    masses = rng.dirichlet(np.ones(n_states), size=2 * n_pairs).reshape(n_pairs, -1)
    masses *= rng.random(masses.shape) < 0.7
    weights = rng.uniform(0.1, 1.0, n_pairs) * (rng.random(n_pairs) < 0.8)
    joint = JointFilterMeasure.from_masses(model.states, masses, weights)
    got = coupling._coupled_step(model, joint)
    want_masses, want_w, index = _coupled_step_per_pair(model, masses, weights)
    order = np.lexsort(index.T[::-1])
    assert got._masses.tobytes() == want_masses[order].tobytes()
    assert got.weights.tobytes() == want_w[order].tobytes()


def _reference_chain(model, mu, nu, n):
    """n coupled steps from scratch, one atom at a time, merged after each step."""
    joint = product_coupling(mu, nu).merged()
    for _ in range(n):
        atoms = [(px, py, w * joint.weights[k])
                 for k in range(joint.n_atoms) if joint.weights[k] > 0
                 for px, py, w in _reference_step(model, joint.x_points[k],
                                                  joint.y_points[k])]
        xs, ys, ws = zip(*atoms)
        joint = JointFilterMeasure(model.states, xs, ys, ws).merged()
    return joint


def _sparse_models():
    """Random models, half of them sparse enough to have zero likelihoods."""
    rng = np.random.default_rng(40)
    models = [random_model(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                           weighted=t % 3 == 0, sparsity=0.4 if t % 2 else 0.0)
              for t in range(8)]
    # some observation is impossible from some state: a zero likelihood
    assert any((m.stepping_matrices.sum(axis=2) == 0).any() for m in models)
    # a transient third state: pi does not charge it, so the atomized
    # extremal measure has an atom of zero weight
    return models + [partition_model([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                      [0.3, 0.3, 0.4]], [[1], [2, 3]])]


class TestBatchedCoupledChain:
    def test_alpha_matches_per_atom_reference(self):
        for model in _sparse_models():
            pi, _ = stationary(model)
            mu, nu = extremal_pair(pi)
            for rho in (0.05, 0.3):
                reports = condition_E_estimate(model, pi, rho=rho, n_max=4)
                assert [r.n for r in reports] == list(range(5))
                for r in reports:
                    want = _reference_chain(model, mu, nu, r.n).mass_within(rho)
                    assert abs(r.alpha_achieved - want) <= 1e-12

    def test_one_step_matches_per_atom_reference(self):
        rng = np.random.default_rng(41)
        for model in _sparse_models():
            x, y = random_density(rng, model.states), random_density(rng, model.states)
            joint = coupled_filter_step(model, x, y)
            ref = _reference_step(model, x.values, y.values)
            assert joint.n_atoms == len(ref)
            got = sorted(zip(map(tuple, joint.x_points), map(tuple, joint.y_points),
                             joint.weights))
            for (gx, gy, gw), (rx, ry, rw) in zip(got, sorted(
                    (tuple(px), tuple(py), w) for px, py, w in ref)):
                np.testing.assert_allclose(gx + gy, rx + ry, atol=1e-12)
                assert gw == pytest.approx(rw, abs=1e-15)

    def test_marginals_are_filter_laws_at_every_horizon(self):
        for model in _sparse_models():
            pi, _ = stationary(model)
            mu, nu = extremal_pair(pi)
            x = mu.atom(0)
            mixture = [filter_laws(model, nu.atom(i), 4) for i in range(nu.n_atoms)]
            for n, (joint, x_law, *y_laws) in enumerate(
                    zip(coupled_laws(model, mu, nu, 4), filter_laws(model, x, 4),
                        *mixture)):
                y_law = PointMassMeasure(
                    model.states, np.vstack([law.points for law in y_laws]),
                    np.concatenate([w * law.weights
                                    for w, law in zip(nu.weights, y_laws)])).merged()
                for marg, law in ((joint.marginal_x(), x_law),
                                  (joint.marginal_y(), y_law)):
                    # atoms of zero weight (from cells pi does not charge) aside
                    got, want = marg.weights > 0, law.weights > 0
                    assert got.sum() == want.sum(), n
                    np.testing.assert_allclose(marg.points[got], law.points[want],
                                               atol=1e-12)
                    np.testing.assert_allclose(marg.weights[got], law.weights[want],
                                               atol=1e-12)

    def test_chain_is_last_law(self, m2):
        mu = PointMassMeasure.dirac(e(m2, 1))
        nu = PointMassMeasure.dirac(e(m2, 2))
        *_, last = coupled_laws(m2, mu, nu, 3)
        joint = coupled_chain(m2, mu, nu, 3)
        np.testing.assert_array_equal(joint.x_points, last.x_points)
        np.testing.assert_array_equal(joint.weights, last.weights)
