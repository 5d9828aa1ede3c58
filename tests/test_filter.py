import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filterlab.errors import BudgetExceeded
from filterlab.filter import (
    LipschitzFunction,
    _bayes_step,
    _branch,
    apply_T,
    apply_T_grid,
    filter_laws,
    likelihood,
    lipschitz_probe,
    mass_functional,
    observation_law,
    pushforward,
    pushforward_n,
    pushforward_nodes,
    run_filter,
    update,
)
from filterlab.measures import PointMassMeasure
from filterlab.model import (
    DensityVector,
    build_model,
    iterate,
    markov_kernel,
    partition_model,
    simulate,
)

from conftest import e, numeric_csv_rows, random_density, random_model


def _nodes_merged_once(model, x, n):
    """The n-step law from the unmerged enumeration, merged at the end only."""
    nodes = pushforward_nodes(model, x, n)
    return PointMassMeasure(model.states, [node.point.values for node in nodes],
                            [node.weight for node in nodes]).merged()


class TestLikelihood:
    def test_m2_values(self, m2):
        x = DensityVector(m2.states, [0.5, 0.5])
        assert likelihood(m2, x, 1) == pytest.approx(0.5, abs=1e-12)
        assert likelihood(m2, e(m2, 1), 1) == pytest.approx(0.62, abs=1e-12)

    def test_total_likelihood_one(self, m2):
        rng = np.random.default_rng(0)
        tau = m2.obs.tau_weights
        for _ in range(100):
            x = random_density(rng, m2.states)
            total = observation_law(m2, x) @ tau
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_total_likelihood_one_weighted(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 4, 3, weighted=True)
        tau = model.obs.tau_weights
        for _ in range(50):
            x = random_density(rng, model.states)
            assert observation_law(model, x) @ tau == pytest.approx(1.0, abs=1e-12)


class TestUpdate:
    def test_m2_values(self, m2):
        x = DensityVector(m2.states, [0.5, 0.5])
        np.testing.assert_allclose(update(m2, x, 1).values, [0.8, 0.2], atol=1e-14)
        np.testing.assert_allclose(update(m2, e(m2, 1), 1).values,
                                   [28 / 31, 3 / 31], atol=1e-14)

    def test_zero_likelihood_returns_x(self):
        # absorbing chain: from state 2 the block-1 observation is impossible
        model = partition_model(np.eye(2), [[1], [2]])
        x = e(model, 2)
        assert likelihood(model, x, 1) == 0.0
        assert update(model, x, 1) is x

    def test_output_normalized(self, m2):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = random_density(rng, m2.states)
            for a in m2.obs.cells:
                assert update(m2, x, a).mass == pytest.approx(1.0, abs=1e-12)

    def test_weighted_grid_oracle(self):
        # re-derive g and h from the raw density tensor on a weighted grid
        rng = np.random.default_rng(21)
        for _ in range(5):
            model = random_model(rng, 4, 3, weighted=True)
            lam = model.states.lambda_weights
            x = random_density(rng, model.states)
            for idx, a in enumerate(model.obs.cells):
                y = np.einsum("s,s,st->t", x.values, lam, model.m[:, :, idx])
                g = float(y @ lam)
                assert likelihood(model, x, a) == pytest.approx(g, abs=1e-13)
                np.testing.assert_allclose(update(model, x, a).values, y / g,
                                           atol=1e-13)


class TestBayesStep:
    """The one Bayes step behind every filter and coupling path."""

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = random_model(rng, 4, 3, weighted=True, sparsity=0.6)
            masses = rng.dirichlet(np.ones(4), size=6) * (rng.random((6, 4)) < 0.7)
            g, post = _bayes_step(model, masses)
            assert g.shape == (6, 3) and post.shape == (6, 3, 4)
            for r in range(6):
                for a in range(3):
                    stepped = masses[r] @ model.stepping_matrices[a]
                    assert g[r, a] == pytest.approx(stepped.sum(), abs=1e-15)
                    if stepped.sum() > 0.0:
                        np.testing.assert_allclose(post[r, a], stepped / stepped.sum(),
                                                   atol=1e-15)
                    else:  # a zero-likelihood update keeps its row
                        np.testing.assert_array_equal(post[r, a], masses[r])

    def test_branch_order_weights_and_parents(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, 3, 3, weighted=True, sparsity=0.7)
        masses = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=2)])
        weights = np.array([0.3, 0.0, 0.2, 0.4, 0.1])
        g, post = _bayes_step(model, masses)
        children, w, parent, obs = _branch(model, masses, weights)
        want = [(r, a) for r in range(5) for a in range(3)
                if weights[r] * model.obs.tau_weights[a] * g[r, a] > 0.0]
        assert list(zip(parent, obs)) == want
        assert 1 not in parent and ((g == 0.0) & (weights[:, None] > 0.0)).any()
        np.testing.assert_array_equal(children, post[parent, obs])
        np.testing.assert_array_equal(
            w, weights[parent] * model.obs.tau_weights[obs] * g[parent, obs])

    def test_nodes_match_per_sequence_products(self):
        # every positive-weight sequence, in lexicographic order, with the
        # normalized product of its stepping matrices
        rng = np.random.default_rng(33)
        model = random_model(rng, 3, 2, weighted=True, sparsity=0.5)
        x = random_density(rng, model.states)
        nodes = pushforward_nodes(model, x, 4)
        want = []
        for seq in np.ndindex(*(2,) * 4):
            y = x.masses
            for a in seq:
                y = y @ model.stepping_matrices[a]
            w = y.sum() * np.prod(model.obs.tau_weights[list(seq)])
            if w > 0.0:
                want.append((tuple(model.obs.cells[a] for a in seq), y / y.sum(), w))
        assert len(want) < 16
        assert [node.obs_sequence for node in nodes] == [seq for seq, _, _ in want]
        for node, (_, y, w) in zip(nodes, want):
            np.testing.assert_allclose(node.point.masses, y, atol=1e-14)
            assert node.weight == pytest.approx(w, rel=1e-13)


class TestPushforward:
    def test_m2_atoms(self, m2):
        law = pushforward(m2, DensityVector(m2.states, [0.5, 0.5]))
        np.testing.assert_allclose(law.points, [[0.2, 0.8], [0.8, 0.2]], atol=1e-14)
        np.testing.assert_allclose(law.weights, [0.5, 0.5], atol=1e-14)

    def test_single_observation_atom_at_xp(self, single_obs_contracting):
        model = single_obs_contracting
        x = DensityVector(model.states, [0.9, 0.1])
        law = pushforward(model, x)
        assert law.n_atoms == 1
        np.testing.assert_allclose(law.points[0], x.masses @ markov_kernel(model),
                                   atol=1e-14)

    def test_weights_sum_to_one(self, m2):
        rng = np.random.default_rng(3)
        for _ in range(20):
            law = pushforward(m2, random_density(rng, m2.states))
            assert law.total_mass == pytest.approx(1.0, abs=1e-12)


class TestPushforwardN:
    def test_n0_is_dirac(self, m2):
        x = DensityVector(m2.states, [0.3, 0.7])
        law = pushforward_n(m2, x, 0)
        assert law.n_atoms == 1
        np.testing.assert_allclose(law.points[0], x.values, atol=0)

    def test_m2_n2(self, m2):
        law = pushforward_n(m2, DensityVector(m2.states, [0.5, 0.5]), 2)
        assert law.n_atoms == 4
        assert law.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_cocycle_nodes_match_iterated_model(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            model = random_model(rng, 4, 2)
            x = random_density(rng, model.states)
            n = 3
            direct = pushforward_nodes(model, x, n)
            one_shot = pushforward_nodes(iterate(model, n), x, 1)
            assert len(direct) == len(one_shot)
            for node_d, node_i in zip(direct, one_shot):
                assert node_d.obs_sequence == node_i.obs_sequence[0]
                assert node_d.weight == pytest.approx(node_i.weight, abs=1e-12)
                np.testing.assert_allclose(node_d.point.values,
                                           node_i.point.values, atol=1e-12)

    def test_cocycle_merged_measures(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            model = random_model(rng, 3, 3)
            x = random_density(rng, model.states)
            two_step = pushforward_n(model, x, 2)
            one_shot = pushforward_n(iterate(model, 2), x, 1)
            assert two_step.n_atoms == one_shot.n_atoms
            np.testing.assert_allclose(two_step.points, one_shot.points,
                                       atol=1e-12)
            np.testing.assert_allclose(two_step.weights, one_shot.weights,
                                       atol=1e-12)

    def test_budget_guard(self, m2):
        with pytest.raises(BudgetExceeded):
            pushforward_n(m2, e(m2, 1), 40)

    def test_filter_laws_match_nodes_merged_once(self):
        rng = np.random.default_rng(29)
        for n_states, n_obs, weighted in [(2, 3, False), (3, 2, True), (4, 2, False)]:
            model = random_model(rng, n_states, n_obs, weighted=weighted, sparsity=0.2)
            x = random_density(rng, model.states)
            for n, law in enumerate(filter_laws(model, x, 6)):
                once = _nodes_merged_once(model, x, n)
                assert law.n_atoms == once.n_atoms
                np.testing.assert_allclose(law.points, once.points, atol=1e-12)
                np.testing.assert_allclose(law.weights, once.weights, atol=1e-12)

    def test_filter_laws_merge_shared_atoms(self, partition_fixture):
        # observing the entered state leaves two atoms at every horizon
        x = e(partition_fixture, 1)
        laws = list(filter_laws(partition_fixture, x, 12))
        assert [law.n_atoms for law in laws] == [1] + [2] * 12
        once = _nodes_merged_once(partition_fixture, x, 12)
        np.testing.assert_array_equal(laws[-1].points, once.points)
        np.testing.assert_allclose(laws[-1].weights, once.weights, atol=1e-12)

    def test_prune_reports_dropped_mass(self, m2):
        law = pushforward_n(m2, e(m2, 1), 10, prune_eps=1e-3)
        assert law.pruned_mass > 0
        assert law.total_mass + law.pruned_mass == pytest.approx(1.0, abs=1e-10)


class TestApplyT:
    def test_constant_function(self, m2):
        u = LipschitzFunction(fn=lambda masses: np.full(masses.shape[:-1], 3.25),
                              gamma=0.0, sup_norm=3.25)
        x = DensityVector(m2.states, [0.4, 0.6])
        for n in range(4):
            assert apply_T(m2, u, x, n) == pytest.approx(3.25, abs=1e-12)

    def test_one_step_is_chain_marginal(self, m2):
        # averaging the cell-1 mass over the one-step law gives (xP)(1)
        u = mass_functional(m2, [1])
        P = markov_kernel(m2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = random_density(rng, m2.states)
            assert apply_T(m2, u, x, 1) == pytest.approx((x.masses @ P)[0],
                                                         abs=1e-12)

    def test_operator_composition_identity(self):
        # averaging twice under the model equals averaging once under the
        # two-step block model, for arbitrary test functions
        rng = np.random.default_rng(23)
        for _ in range(5):
            model = random_model(rng, 3, 3, weighted=True)
            blocked = iterate(model, 2)
            w = rng.normal(size=3)
            u = LipschitzFunction(fn=lambda m, w=w: m @ w, gamma=1.0,
                                  sup_norm=float(np.abs(w).max()))
            x = random_density(rng, model.states)
            assert apply_T(model, u, x, 2) == pytest.approx(
                apply_T(blocked, u, x, 1), abs=1e-12)

    def test_oscillation_monotone_on_grid(self, m2):
        u = mass_functional(m2, [1])
        t = np.linspace(0, 1, 101)
        grid = np.column_stack([t, 1 - t])
        osc = []
        for n in range(5):
            vals = apply_T_grid(m2, u, grid, n)
            osc.append(vals.max() - vals.min())
        assert all(osc[i + 1] <= osc[i] + 1e-12 for i in range(4))


class TestRunFilter:
    def test_constant_model(self):
        model = build_model({
            "states": {"ids": ["s"]}, "obs": {"ids": ["a"]}, "m": {"dense": [[[1.0]]]},
        })
        traj = run_filter(model, DensityVector.uniform(model.states), ["a"] * 5)
        for state in traj.states:
            np.testing.assert_array_equal(state.values, [1.0])

    def test_repeated_observation_converges_to_leading_direction(self, m2):
        # oracle: leading left eigenvector of the stepping kernel of obs 1
        M1 = m2.stepping_matrix(1)
        vals, vecs = np.linalg.eig(M1.T)
        lead = np.abs(vecs[:, np.argmax(vals.real)].real)
        lead = lead / lead.sum()
        traj = run_filter(m2, e(m2, 2), [1] * 60)
        np.testing.assert_allclose(traj.states[-1].masses, lead, atol=1e-10)
        assert traj.zero_likelihood_steps == []

    def test_zero_likelihood_flagged(self):
        model = partition_model(np.eye(2), [[1], [2]])
        traj = run_filter(model, e(model, 2), [1, 2, 1])
        assert traj.zero_likelihood_steps == [1, 3]
        np.testing.assert_array_equal(traj.states[-1].values, e(model, 2).values)

    def test_filter_of_simulated_path_stays_normalized(self, m2):
        pi = DensityVector(m2.states, [0.5, 0.5])
        path = simulate(m2, pi, 200, seed=5)
        traj = run_filter(m2, pi, path.observations)
        for state in traj.states:
            assert state.mass == pytest.approx(1.0, abs=1e-12)
        assert traj.zero_likelihood_steps == []

    def test_csv_export(self, m2, tmp_path):
        traj = run_filter(m2, e(m2, 1), [1, 2])
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,observation,1,2"
        assert len(lines) == 4
        rows = numeric_csv_rows(out)
        assert float(rows[-1]["2"]) == traj.states[-1].values[1]


class TestGammaEstimate:
    def test_lower_bounds_analytic_constant(self, m2):
        from filterlab.filter import estimate_gamma, lipschitz_function_from

        # cell-mass functional: analytic constant one half
        gamma = estimate_gamma(lambda m: m[..., 0], m2.states, samples=3000)
        assert gamma <= 0.5 + 1e-12
        assert gamma > 0.45
        u = lipschitz_function_from(lambda m: m[..., 0], m2.states, sup_norm=1.0)
        assert u.gamma == pytest.approx(gamma)


class TestLipschitzProbe:
    def test_zero_function(self, m2):
        u = LipschitzFunction(fn=lambda masses: np.zeros(masses.shape[:-1]),
                              gamma=0.0, sup_norm=0.0)
        report = lipschitz_probe(m2, u, n=3, sample_pairs=50, seed=0)
        assert all(r == 0.0 for r in report.max_ratio.values())

    def test_mass_functional_bounds(self, m2):
        u = mass_functional(m2, [1])
        report = lipschitz_probe(m2, u, n=4, sample_pairs=200, seed=1)
        assert report.uniform_ok
        assert report.one_step_ok

    def test_reports_empirical_maximum(self, m2):
        u = mass_functional(m2, [1])
        report = lipschitz_probe(m2, u, n=2, sample_pairs=100, seed=2)
        assert 0.0 < report.max_ratio[1] <= report.uniform_bound + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    y1=arrays(np.float64, 5, elements=st.floats(0, 10)),
    y2=arrays(np.float64, 5, elements=st.floats(0, 10)),
)
def test_norm_inequality(y1, y2):
    # normalizing two finite measures moves them at most 2||y1-y2||/||y1|| apart
    s1, s2 = y1.sum(), y2.sum()
    if s1 <= 1e-12 or s2 <= 1e-12:
        return
    lhs = np.abs(y1 / s1 - y2 / s2).sum()
    rhs = 2.0 * np.abs(y1 - y2).sum() / s1
    assert lhs <= rhs + 1e-12
