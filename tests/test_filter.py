from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import filterlab.filter as filter_module
from filterlab.errors import BudgetExceeded, UnknownObservation
from filterlab.filter import (
    LipschitzFunction,
    _bayes_step,
    _branch,
    apply_T,
    apply_T_grid,
    filter_laws,
    grid_averages,
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

from conftest import bayes_step_per_row, e, numeric_csv_rows, random_density, random_model


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
        # observation-major and contiguous: g[a, r] and post[a, r]
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = random_model(rng, 4, 3, weighted=True, sparsity=0.6)
            masses = rng.dirichlet(np.ones(4), size=6) * (rng.random((6, 4)) < 0.7)
            g, post = _bayes_step(model, masses)
            assert g.shape == (3, 6) and post.shape == (3, 6, 4)
            assert g.flags.c_contiguous and post.flags.c_contiguous
            want_g, want_post = bayes_step_per_row(model, masses)
            assert g.tobytes() == want_g.T.tobytes()
            assert post.tobytes() == want_post.transpose(1, 0, 2).tobytes()
            for r in range(6):
                for a in range(3):
                    stepped = masses[r] @ model.stepping_matrices[a]
                    assert g[a, r] == pytest.approx(stepped.sum(), abs=1e-15)
                    if stepped.sum() > 0.0:
                        np.testing.assert_allclose(post[a, r], stepped / stepped.sum(),
                                                   atol=1e-15)
                    else:  # a zero-likelihood update keeps its row
                        np.testing.assert_array_equal(post[a, r], masses[r])

    def test_branch_order_weights_and_parents(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, 3, 3, weighted=True, sparsity=0.7)
        masses = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=2)])
        weights = np.array([0.3, 0.0, 0.2, 0.4, 0.1])
        g, post = _bayes_step(model, masses)
        children, w, keep = _branch(model, masses, weights)
        # child a * rows + r is row r stepped by observation a
        assert keep.shape == (15,)
        obs, parent = np.divmod(np.flatnonzero(keep), 5)
        want = [(a, r) for a in range(3) for r in range(5)
                if model.obs.tau_weights[a] * weights[r] * g[a, r] > 0.0]
        assert list(zip(obs, parent)) == want
        assert 1 not in parent and ((g == 0.0) & (weights > 0.0)).any()
        np.testing.assert_array_equal(children, post[obs, parent])
        np.testing.assert_array_equal(
            w, model.obs.tau_weights[obs] * weights[parent] * g[obs, parent])

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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4),
       st.floats(0.0, 0.8), st.integers(1, 8))
@example(seed=0, n_states=9, n_obs=3, sparsity=0.0, n_rows=4)  # every child live
@example(seed=8, n_states=2, n_obs=2, sparsity=0.3, n_rows=4)  # a row of zero likelihoods
def test_branch_is_the_per_row_arithmetic(seed, n_states, n_obs, sparsity, n_rows):
    # bit-identical on both sides of 8 cells, where the likelihood sum turns
    # pairwise, with zero-likelihood rows (all-zero ones too) and zero weights
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states, n_obs, weighted=True, sparsity=sparsity)
    masses = rng.dirichlet(np.ones(n_states), size=n_rows)
    masses *= rng.random((n_rows, n_states)) < 0.7
    weights = rng.uniform(0.1, 1.0, n_rows) * (rng.random(n_rows) < 0.8)
    want_g, want_post = bayes_step_per_row(model, masses)
    want_g, want_post = want_g.T, want_post.transpose(1, 0, 2)
    g, post = _bayes_step(model, masses)
    assert g.tobytes() == want_g.tobytes() and post.tobytes() == want_post.tobytes()
    # children in (observation, row) order, those of zero weight dropped; a
    # view of the step's own array when every child is kept
    want_w = model.obs.tau_weights[:, None] * weights * want_g
    pairs = [(a, r) for a in range(n_obs) for r in range(n_rows) if want_w[a, r] > 0.0]
    children, w, keep = _branch(model, masses, weights)
    obs, parent = np.divmod(np.flatnonzero(keep), n_rows)
    assert keep.shape == (n_obs * n_rows,) and list(zip(obs, parent)) == pairs
    assert children.tobytes() == want_post[obs, parent].tobytes()
    assert w.tobytes() == want_w[obs, parent].tobytes()
    assert children.flags.owndata != keep.all()


_BLOCK_PARTITION = partition_model([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]],
                                   [[1, 2], [3]])


def _laws_merged_from_branch(model, x, n_max, prune_eps):
    """The laws of ``filter_laws``, each level's children put in (atom, observation) order."""
    masses, weights, pruned = filter_module._masses(model, x)[None, :], np.ones(1), 0.0
    for n in range(n_max + 1):
        if n:
            rows = len(weights)
            masses, weights, keep = _branch(model, masses, weights)
            obs, atom = np.divmod(np.flatnonzero(keep), rows)
            order = np.argsort(atom * model.n_obs + obs)
            masses, weights = masses[order], weights[order]
        law = PointMassMeasure.from_masses(model.states, masses, weights,
                                           pruned_mass=pruned).merged()
        if n and prune_eps > 0.0:
            keep = law.weights >= prune_eps
            if not keep.any():
                return
            pruned += float(law.weights[~keep].sum())
            law = PointMassMeasure.from_masses(model.states, law.mass_matrix()[keep],
                                               law.weights[keep], pruned_mass=pruned)
        yield law
        masses, weights = law.mass_matrix(), law.weights


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4),
       st.floats(0.0, 0.8), st.integers(0, 6), st.sampled_from([0.0, 1e-3]),
       st.just(False))
# a start with a zero cell under a sparse kernel: two zero-weight children,
# and four merges of atoms within 1e-12 but not equal
@example(seed=3, n_states=3, n_obs=2, sparsity=0.7, n_max=4, prune_eps=0.0,
         block_partition=False)
# demos/models/block_partition.json: exact duplicates, the merge's tie path
@example(seed=0, n_states=3, n_obs=2, sparsity=0.0, n_max=6, prune_eps=0.0,
         block_partition=True)
def test_filter_laws_are_the_laws_merged_from_branch(seed, n_states, n_obs, sparsity, n_max,
                                                     prune_eps, block_partition):
    # filter_laws merges the children in the observation-major order the
    # Bayes step writes them; the merge does not depend on input order, so
    # every law is the same bytes as one merged from (atom, observation) order
    rng = np.random.default_rng(seed)
    model = (_BLOCK_PARTITION if block_partition else
             random_model(rng, n_states, n_obs, weighted=True, sparsity=sparsity))
    masses = rng.dirichlet(np.ones(model.n_states)) * (rng.random(model.n_states) < 0.7)
    masses[rng.integers(model.n_states)] += masses.sum() == 0.0
    x = DensityVector.from_masses(model.states, masses / masses.sum())
    want = list(_laws_merged_from_branch(model, x, n_max, prune_eps))
    got = []
    with pytest.raises(BudgetExceeded) if len(want) <= n_max else nullcontext():
        for law in filter_laws(model, x, n_max, prune_eps):
            got.append(law)
    assert len(got) == len(want)
    for law, ref in zip(got, want):
        assert law.mass_matrix().tobytes() == ref.mass_matrix().tobytes()
        assert law.weights.tobytes() == ref.weights.tobytes()
        assert law.pruned_mass == ref.pruned_mass


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

    def test_budget_bounds_the_merged_frontier(self):
        # demos/models/block_partition.json: 2**40 sequences, 18 merged atoms
        model = partition_model([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]],
                                [[1, 2], [3]])
        marginal = e(model, 1).masses
        for law in filter_laws(model, e(model, 1), 40):
            assert law.total_mass == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(law.barycenter_masses(), marginal, atol=1e-12)
            marginal = marginal @ model.markov_matrix
        assert law.n_atoms == 18

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


def _bayes_chain(model, x, obs_seq):
    """Density rows of single-step batched Bayes updates, and the zero steps."""
    lam = model.states.lambda_weights
    rows, zero_steps = [x.values], []
    for k, a in enumerate(obs_seq, 1):
        g, post = _bayes_step(model, (rows[-1] * lam)[None, :])
        i = model.obs.index(a)
        if g[i, 0] > 0.0:
            rows.append(post[i, 0] / lam)
        else:
            rows.append(rows[-1])
            zero_steps.append(k)
    return np.array(rows), zero_steps


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4),
       st.floats(0.0, 0.8), st.integers(0, 40), st.booleans())
def test_run_filter_is_the_bayes_chain(seed, n_states, n_obs, sparsity, n, point_start):
    # bit-identical, zero-likelihood steps included, on non-unit lambda and tau
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states, n_obs, weighted=True, sparsity=sparsity)
    x = e(model, 1) if point_start else random_density(rng, model.states)
    obs_seq = [model.obs.cells[i] for i in rng.integers(n_obs, size=n)]
    traj = run_filter(model, x, obs_seq)
    want, zero_steps = _bayes_chain(model, x, obs_seq)
    assert traj.values.shape == want.shape
    assert traj.values.tobytes() == want.tobytes()
    assert traj.zero_likelihood_steps == zero_steps
    for k, state in enumerate(traj.states):
        assert state.values.tobytes() == traj.values[k].tobytes()
    for k in zero_steps:
        assert traj.values[k].tobytes() == traj.values[k - 1].tobytes()
        before = traj.states[k - 1]
        assert update(model, before, obs_seq[k - 1]) is before


@pytest.mark.parametrize("bad", [99, [1]], ids=["unknown", "unhashable"])
def test_run_filter_names_an_unknown_observation(m2, bad):
    with pytest.raises(UnknownObservation, match=r"unknown observation"):
        run_filter(m2, e(m2, 1), [1, 2, bad, 1])
    # numpy integers name the same cells as Python ints
    traj = run_filter(m2, e(m2, 1), [np.int64(1), 2.0])
    assert traj.values.tobytes() == run_filter(m2, e(m2, 1), [1, 2]).values.tobytes()


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

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_no_pairs_is_refused(self, m2, pairs):
        # no pair would report ratios of 0.0 and both bounds met, from nothing
        with pytest.raises(ValueError, match="sample_pairs must be positive"):
            lipschitz_probe(m2, mass_functional(m2, [1]), n=2, sample_pairs=pairs)

    def test_one_cell_is_refused(self):
        # every draw on one cell is the same density, so no pair is kept
        model = random_model(np.random.default_rng(0), 1, 2)
        with pytest.raises(ValueError, match="no pair of distinct densities"):
            lipschitz_probe(model, mass_functional(model, [1]), n=3, sample_pairs=200)

    def test_no_horizon_is_refused(self, m2):
        # n = 0 would report an empty max_ratio and both bounds met
        with pytest.raises(ValueError, match="n = 0 probes no horizon"):
            lipschitz_probe(m2, mass_functional(m2, [1]), n=0)


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


def test_grid_averages_check_the_budget_before_stepping(m2, monkeypatch):
    """One grid point at n = 20 holds 2**20 branches, above the 10**6 budget."""

    def no_step(*args):
        raise AssertionError("stepped past the budget")

    monkeypatch.setattr(filter_module, "_branch", no_step)
    u = mass_functional(m2, [1])
    with pytest.raises(BudgetExceeded):
        apply_T_grid(m2, u, np.array([[0.5, 0.5]]), 20)


def test_grid_averages_of_no_functions(m2):
    grid = np.array([[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])
    assert grid_averages(m2, [], grid, 3).shape == (4, 0, 3)
