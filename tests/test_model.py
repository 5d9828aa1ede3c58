import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab.contraction import check_condition_KR
from filterlab.coupling import vasershtein_obs_coupling
from filterlab.errors import (
    BadPartition,
    NegativeDensity,
    NonStochastic,
    NonStochasticEmission,
    SpaceMismatch,
    StateSpaceMismatch,
    UnknownObservation,
)
from filterlab.filter import mass_functional
from filterlab.lab import osc_decay_report
from filterlab.measures import PointMassMeasure, kantorovich
from filterlab.model import (
    DensityVector,
    HmmModel,
    ObsSpace,
    StateSpace,
    build_model,
    compose,
    iterate,
    markov_kernel,
    partition_model,
    product_model,
    simulate,
    stationary,
    stepping_kernel,
)

from conftest import P_SYM, Q_SYM, e, random_density, random_model

M2_SPEC = {
    "states": {"ids": [1, 2], "lambda": [1.0, 1.0]},
    "obs": {"ids": [1, 2], "tau": [1.0, 1.0]},
    "m": {"p": P_SYM, "q": Q_SYM},
}


class TestBuildModel:
    def test_m2_valid(self):
        model = build_model(M2_SPEC)
        # hand check: sum_t p(s,t) * sum_a q(t,a) = sum_t p(s,t) = 1
        rows = np.einsum("sta,t,a->s", model.m, model.states.lambda_weights,
                         model.obs.tau_weights)
        np.testing.assert_allclose(rows, 1.0, atol=1e-14)
        assert model.normalization_residual < 1e-12

    def test_m2_dense_equals_factored(self):
        dense = {
            "states": M2_SPEC["states"], "obs": M2_SPEC["obs"],
            "m": {"dense": (np.array(P_SYM)[:, :, None]
                            * np.array(Q_SYM)[None, :, :]).tolist()},
        }
        np.testing.assert_array_equal(build_model(dense).m, build_model(M2_SPEC).m)

    def test_row_deficit_rejected(self):
        bad = np.array(P_SYM)[:, :, None] * np.array(Q_SYM)[None, :, :]
        bad[0] *= 0.9
        with pytest.raises(NonStochastic):
            HmmModel(StateSpace([1, 2], [1, 1]), ObsSpace([1, 2], [1, 1]), bad)

    def test_row_off_one_is_named_with_a_plain_number(self):
        bad = np.array(P_SYM)[:, :, None] * np.array(Q_SYM)[None, :, :]
        bad[0] *= 2.0
        with pytest.raises(NonStochastic, match=r"^row 1 integrates to 2\.0$"):
            HmmModel(StateSpace([1, 2], [1, 1]), ObsSpace([1, 2], [1, 1]), bad)

    def test_negative_density_rejected(self):
        bad = np.array(P_SYM)[:, :, None] * np.array(Q_SYM)[None, :, :]
        bad[0, 0, 0] = -bad[0, 0, 0]
        with pytest.raises(NegativeDensity):
            HmmModel(StateSpace([1, 2], [1, 1]), ObsSpace([1, 2], [1, 1]), bad)

    def test_one_state_one_obs(self):
        model = build_model({
            "states": {"ids": ["s"]}, "obs": {"ids": ["a"]},
            "m": {"dense": [[[1.0]]]},
        })
        np.testing.assert_array_equal(markov_kernel(model), [[1.0]])

    def test_rows_renormalized_inside_tolerance(self):
        m = np.array(P_SYM)[:, :, None] * np.array(Q_SYM)[None, :, :]
        model = HmmModel(StateSpace([1, 2], [1, 1]), ObsSpace([1, 2], [1, 1]),
                         m * (1.0 + 5e-10))
        rows = np.einsum("sta,t,a->s", model.m, [1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(rows, 1.0, atol=1e-15)


class TestSteppingKernel:
    def test_m2_values(self, m2):
        np.testing.assert_allclose(stepping_kernel(m2, 1).matrix,
                                   [[0.56, 0.06], [0.24, 0.14]], atol=1e-14)
        np.testing.assert_allclose(stepping_kernel(m2, 2).matrix,
                                   [[0.14, 0.24], [0.06, 0.56]], atol=1e-14)

    def test_partition_identity(self, m2):
        total = sum(stepping_kernel(m2, a).matrix for a in m2.obs.cells)
        np.testing.assert_allclose(total, markov_kernel(m2), atol=1e-12)

    def test_partition_identity_weighted(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, 4, 3, weighted=True)
            tau = model.obs.tau_weights
            total = sum(tau[i] * stepping_kernel(model, a).matrix
                        for i, a in enumerate(model.obs.cells))
            np.testing.assert_allclose(total, markov_kernel(model), atol=1e-12)

    def test_row_sums_sub_markov_for_counting_tau(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_model(rng, 4, 3)
            for a in model.obs.cells:
                assert stepping_kernel(model, a).matrix.sum(axis=1).max() <= 1 + 1e-12

    def test_unknown_observation(self, m2):
        with pytest.raises(UnknownObservation):
            stepping_kernel(m2, 99)

    def test_one_state(self):
        model = build_model({
            "states": {"ids": [0]}, "obs": {"ids": [0]}, "m": {"dense": [[[1.0]]]},
        })
        np.testing.assert_array_equal(stepping_kernel(model, 0).matrix, [[1.0]])


class TestMarkovKernel:
    def test_m2(self, m2):
        np.testing.assert_allclose(markov_kernel(m2), P_SYM, atol=1e-14)

    def test_permutation_model(self, periodic_fixture):
        np.testing.assert_allclose(markov_kernel(periodic_fixture),
                                   [[0, 1], [1, 0]], atol=0)

    def test_composed_is_product(self):
        rng = np.random.default_rng(11)
        m1 = random_model(rng, 3, 2)
        m2_ = random_model(rng, 3, 2)
        composed = compose(m1, m2_)
        np.testing.assert_allclose(markov_kernel(composed),
                                   markov_kernel(m1) @ markov_kernel(m2_),
                                   atol=1e-12)


class TestCompose:
    def test_m2_squared_observations(self, m2):
        comp = compose(m2, m2)
        assert comp.n_obs == 4
        assert comp.obs.cells == ((1, 1), (1, 2), (2, 1), (2, 2))
        total = sum(comp.stepping_matrix(a) for a in comp.obs.cells)
        np.testing.assert_allclose(total, np.linalg.matrix_power(np.array(P_SYM), 2),
                                   atol=1e-12)

    def test_identity_model_neutral(self, m2):
        ident = build_model({
            "states": {"ids": [1, 2]}, "obs": {"ids": ["e"]},
            "m": {"dense": np.eye(2)[:, :, None].tolist()},
        })
        comp = compose(m2, ident)
        for a in m2.obs.cells:
            np.testing.assert_allclose(comp.stepping_matrix((a, "e")),
                                       m2.stepping_matrix(a), atol=1e-14)

    def test_associativity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            a = random_model(rng, 3, 2)
            b = random_model(rng, 3, 2)
            c = random_model(rng, 3, 2)
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            # observation labels nest differently; tensors must agree
            assert np.max(np.abs(left.m - right.m)) < 1e-12

    def test_state_space_mismatch(self, m2):
        other = random_model(np.random.default_rng(0), 3, 2)
        with pytest.raises(StateSpaceMismatch):
            compose(m2, other)


class TestIterate:
    def test_n1_is_same(self, m2):
        assert iterate(m2, 1) is m2

    def test_n2_stepping_is_matrix_product(self, m2):
        it = iterate(m2, 2)
        m1 = m2.stepping_matrix(1)
        np.testing.assert_allclose(it.stepping_matrix((1, 1)), m1 @ m1, atol=1e-13)

    def test_tau_weights_multiply(self):
        # emission rows integrate to one against tau = (0.5, 1.5)
        model = product_model(P_SYM, [[1.0, 1 / 3], [1.0, 1 / 3]],
                              tau_weights=[0.5, 1.5])
        it = iterate(model, 3)
        for seq, w in zip(it.obs.cells, it.obs.tau_weights):
            expected = np.prod([model.obs.tau_weights[model.obs.index(a)]
                                for a in seq])
            assert w == pytest.approx(expected, abs=1e-15)

    def test_lexicographic_order(self, m2):
        assert iterate(m2, 2).obs.cells == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_n0_rejected(self, m2):
        with pytest.raises(ValueError):
            iterate(m2, 0)


class TestStationary:
    def test_m2_pi_and_decay(self, m2):
        pi, report = stationary(m2)
        np.testing.assert_allclose(pi.values, [0.5, 0.5], atol=1e-12)
        assert report.converged and report.ergodic
        # eigendecomposition oracle: rows of P^n are pi +- 0.4^n/2 (1,-1)
        expected = [0.4 ** (n + 1) for n in range(6)]
        np.testing.assert_allclose(report.sup_tv[:6], expected, atol=1e-12)

    def test_identity_chain_flagged(self):
        model = partition_model(np.eye(2), [[1, 2]])
        pi, report = stationary(model)
        assert report.residual < 1e-12
        assert not report.ergodic

    def test_two_cycle_flagged(self, periodic_fixture):
        pi, report = stationary(periodic_fixture)
        assert not report.ergodic
        assert "periodic" in report.note

    def test_periodic_chain_solved_exactly(self):
        # power iteration from the uniform start never converges here
        model = partition_model([[0, .5, .5], [1, 0, 0], [1, 0, 0]], [[1, 2, 3]])
        pi, report = stationary(model)
        np.testing.assert_allclose(pi.masses, [0.5, 0.25, 0.25], atol=1e-15)
        assert report.residual <= 1e-12 and report.converged
        assert report.null_dim == 1 and "reducible:" not in report.note
        assert not report.ergodic and "periodic" in report.note

    def test_reducible_chain_flagged(self):
        model = partition_model([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]],
                                [[1, 2, 3]])
        pi, report = stationary(model)
        assert report.null_dim == 2
        assert "not unique" in report.note and not report.ergodic
        assert report.residual <= 1e-12

    def test_transient_state_gets_no_mass(self):
        model = partition_model([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]],
                                [[1, 2, 3]])
        pi, report = stationary(model)
        np.testing.assert_allclose(pi.masses, [0.5, 0.5, 0.0], atol=1e-15)
        assert report.null_dim == 1 and report.ergodic

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 6),
           sparsity=st.sampled_from([0.0, 0.5, 0.8]))
    def test_residual_whenever_unique(self, seed, n_states, sparsity):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_states, 2, weighted=seed % 2 == 0,
                             sparsity=sparsity)
        pi, report = stationary(model)
        assert np.all(pi.masses >= 0) and pi.masses.sum() == pytest.approx(1.0)
        if report.null_dim == 1:
            assert report.residual <= 1e-12
        else:
            assert "not unique" in report.note

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           density=st.sampled_from([0.15, 0.3, 0.6]))
    def test_null_dim_counts_closed_classes(self, seed, k, density):
        rng = np.random.default_rng(seed)
        support = rng.random((k, k)) < density
        support[np.arange(k), rng.integers(k, size=k)] = True  # every row alive
        p = np.where(support, rng.uniform(0.5, 2.0, (k, k)), 0.0)
        p /= p.sum(axis=1, keepdims=True)
        _, report = stationary(partition_model(p, [list(range(1, k + 1))]))
        assert report.null_dim == _closed_classes(support)
        assert ("reducible:" in report.note) == (report.null_dim > 1)

    def test_slow_two_state_chains_have_one_closed_class(self):
        # irreducible chains whose null singular value of P^T - I lies at the
        # rounding level, where a rank threshold can miss it; the support cannot
        q = np.array([[0.7, 0.3], [0.3, 0.7]])
        space, obs = StateSpace([1, 2], [1, 1]), ObsSpace([1, 2], [1, 1])
        for eps in np.linspace(0.001, 0.5, 500):
            p = np.array([[1 - eps, eps], [eps, 1 - eps]])
            pi, report = stationary(HmmModel(space, obs, p[:, :, None] * q[None]))
            assert report.null_dim == 1 and "reducible:" not in report.note, eps
            np.testing.assert_allclose(pi.masses, [0.5, 0.5], atol=1e-12)

    def test_sup_distance_non_increasing(self, m2):
        rng = np.random.default_rng(13)
        models = [m2] + [random_model(rng, 4, 2) for _ in range(5)]
        for model in models:
            _, report = stationary(model)
            diffs = np.diff(report.sup_tv)
            assert np.all(diffs <= 1e-12)


def _closed_classes(support):
    """Closed communicating classes of a boolean support, by search from each cell."""
    k = len(support)
    reach = []
    for i in range(k):
        seen, todo = {i}, [i]
        while todo:
            for j in np.flatnonzero(support[todo.pop()]).tolist():
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(frozenset(seen))
    return len({reach[i] for i in range(k) if all(i in reach[j] for j in reach[i])})


def _period_one(support):
    """One closed class, of period one: an oracle beside ``stationary``'s boolean powers.

    The period of the class is the gcd of ``level[u] + 1 - level[v]`` over its
    arcs ``u -> v``, the levels being breadth-first distances from one of its
    cells.
    """
    if _closed_classes(support) != 1:
        return False
    k = len(support)
    paths = np.linalg.matrix_power(support.astype(np.int64) + np.eye(k, dtype=np.int64), k)
    reach = [set(np.flatnonzero(row).tolist()) for row in paths]
    root = next(i for i in range(k) if all(i in reach[j] for j in reach[i]))
    level, todo = {root: 0}, [root]
    for u in todo:
        for v in np.flatnonzero(support[u]).tolist():
            if v not in level:
                level[v] = level[u] + 1
                todo.append(v)
    return math.gcd(*(level[u] + 1 - level[v] for u in level
                      for v in np.flatnonzero(support[u]).tolist())) == 1


class TestErgodicOnSupport:
    """``ergodic`` is decided on P's support, not on ``sup_tv`` within 512 steps."""

    def test_slow_two_state_chains_are_ergodic(self):
        # (1 - 2 eps)**512 stays above 1e-12 below eps = 0.027: 26 of these
        # chains never reach the tolerance within the diagnostic horizon
        q = np.array([[0.7, 0.3], [0.3, 0.7]])
        space, obs = StateSpace([1, 2], [1, 1]), ObsSpace([1, 2], [1, 1])
        slow = 0
        for eps in np.linspace(0.001, 0.5, 500):
            p = np.array([[1 - eps, eps], [eps, 1 - eps]])
            _, report = stationary(HmmModel(space, obs, p[:, :, None] * q[None]))
            assert report.ergodic and report.note == "", eps
            slow += report.sup_tv[-1] > 1e-12
        assert slow == 26

    def test_sparse_corpus_matches_the_period(self):
        rng = np.random.default_rng(1)
        slow = 0
        for _ in range(3000):
            k = int(rng.integers(1, 7))
            p = rng.random((k, k)) * (rng.random((k, k)) < 0.4)
            for row in np.flatnonzero(p.sum(axis=1) == 0):
                p[row, rng.integers(k)] = 1.0
            p /= p.sum(axis=1, keepdims=True)
            _, report = stationary(product_model(p, np.ones((k, 1))))
            assert report.ergodic == _period_one(p > 0)
            slow += report.ergodic and report.sup_tv[-1] > 1e-12
        # ergodic chains whose sup_tv is still above 1e-12 after 512 steps
        assert slow == 97

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           density=st.sampled_from([0.15, 0.3, 0.6]))
    def test_ergodic_is_one_aperiodic_closed_class(self, seed, k, density):
        rng = np.random.default_rng(seed)
        support = rng.random((k, k)) < density
        support[np.arange(k), rng.integers(k, size=k)] = True  # every row alive
        p = np.where(support, rng.uniform(0.5, 2.0, (k, k)), 0.0)
        p /= p.sum(axis=1, keepdims=True)
        _, report = stationary(partition_model(p, [list(range(1, k + 1))]))
        assert report.ergodic == _period_one(support)
        if not report.ergodic:
            word = "periodic:" if report.null_dim == 1 else "reducible:"
            assert report.note.startswith(word)


def _simulate_by_choice(model, x0, n, seed):
    """Sample path drawn by one ``Generator.choice`` call per step."""
    rng = np.random.default_rng(seed)
    lam = model.states.lambda_weights
    tau = model.obs.tau_weights
    start = x0.masses
    start = start / start.sum()
    s = int(rng.choice(model.n_states, p=start))
    joint = model.m * lam[None, :, None] * tau[None, None, :]
    joint = joint.reshape(model.n_states, -1)
    joint = joint / joint.sum(axis=1, keepdims=True)
    states = [model.states.cells[s]]
    observations = []
    for _ in range(n):
        flat = int(rng.choice(joint.shape[1], p=joint[s]))
        t, a = divmod(flat, model.n_obs)
        states.append(model.states.cells[t])
        observations.append(model.obs.cells[a])
        s = t
    return tuple(states), tuple(observations)


class TestSimulate:
    def test_constant_model(self):
        model = build_model({
            "states": {"ids": ["s"]}, "obs": {"ids": ["a"]}, "m": {"dense": [[[1.0]]]},
        })
        path = simulate(model, DensityVector.uniform(model.states), 20, seed=1)
        assert set(path.states) == {"s"}
        assert set(path.observations) == {"a"}

    def test_seed_reproducible(self, m2):
        x0 = DensityVector.uniform(m2.states)
        assert simulate(m2, x0, 50, seed=7) == simulate(m2, x0, 50, seed=7)
        assert simulate(m2, x0, 50, seed=7) != simulate(m2, x0, 50, seed=8)

    def test_state_frequency_matches_pi(self, m2):
        x0 = DensityVector(m2.states, [0.5, 0.5])
        path = simulate(m2, x0, 100_000, seed=42)
        freq = np.mean([s == 1 for s in path.states])
        assert abs(freq - 0.5) < 0.01

    def test_joint_frequency_matches_density(self, m2):
        x0 = DensityVector(m2.states, [0.5, 0.5])
        n = 200_000
        path = simulate(m2, x0, n, seed=9)
        states = np.array([m2.states.index(s) for s in path.states])
        obs = np.array([m2.obs.index(a) for a in path.observations])
        for s in range(2):
            from_s = states[:-1] == s
            count_s = from_s.sum()
            for t in range(2):
                for a in range(2):
                    hits = ((states[1:] == t) & (obs == a) & from_s).sum()
                    p = m2.m[s, t, a]
                    sigma = np.sqrt(p * (1 - p) / count_s)
                    assert abs(hits / count_s - p) < 3.5 * sigma

    def test_matches_one_choice_per_step(self, m2):
        rng = np.random.default_rng(31)
        sparse = random_model(rng, 4, 3, weighted=True, sparsity=0.5)
        for model in (sparse, m2):
            x0 = random_density(rng, model.states)
            for seed in range(5):
                path = simulate(model, x0, 3000, seed=seed)
                assert (path.states, path.observations) == \
                    _simulate_by_choice(model, x0, 3000, seed)


class TestPartitionBuilder:
    def test_column_masking(self):
        model = partition_model(P_SYM, [[1], [2]])
        np.testing.assert_allclose(model.stepping_matrix(1),
                                   [[0.7, 0.0], [0.3, 0.0]], atol=1e-14)

    def test_overlap_rejected(self):
        with pytest.raises(BadPartition):
            partition_model(P_SYM, [[1, 2], [2]])

    def test_missing_cell_rejected(self):
        with pytest.raises(BadPartition):
            partition_model(P_SYM, [[1]])


class TestProductBuilder:
    def test_emission_must_be_stochastic(self):
        with pytest.raises(NonStochasticEmission):
            product_model(P_SYM, [[0.8, 0.1], [0.2, 0.8]])


class TestGridValues:
    def test_equal_grids_compare_and_hash_equal(self):
        a = StateSpace([1, 2, 3], [1.0, 0.5, 2.0])
        b = StateSpace((1, 2, 3), np.array([1.0, 0.5, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        o1, o2 = ObsSpace(["x", "y"], [1.0, 1.0]), ObsSpace(("x", "y"), [1, 1])
        assert o1 == o2 and hash(o1) == hash(o2)

    def test_different_weights_compare_unequal(self):
        assert StateSpace([1, 2], [1.0, 1.0]) != StateSpace([1, 2], [1.0, 2.0])
        assert ObsSpace([1, 2], [1.0, 1.0]) != ObsSpace([1, 2], [2.0, 1.0])
        assert StateSpace([1, 2], [1.0, 1.0]) != StateSpace([2, 1], [1.0, 1.0])

    def test_state_and_obs_grids_never_equal(self):
        assert StateSpace([1, 2], [1.0, 1.0]) != ObsSpace([1, 2], [1.0, 1.0])

    def test_grids_stay_immutable(self):
        space = StateSpace([1, 2], [1.0, 1.0])
        with pytest.raises(AttributeError):
            space.cells = (3, 4)
        assert not space.lambda_weights.flags.writeable

    def test_reports_compare_without_raising(self, m2):
        x, y = e(m2, 1), e(m2, 2)
        mu = PointMassMeasure(m2.states, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        u = mass_functional(m2, [1])
        builders = [
            lambda: stationary(m2)[1],
            lambda: stepping_kernel(m2, 1),
            lambda: check_condition_KR(m2, depth=3),
            lambda: kantorovich(mu, mu)[1],
            lambda: vasershtein_obs_coupling(m2, x, y),
            lambda: osc_decay_report(m2, [u], 2),
        ]
        for build in builders:
            first, second = build(), build()
            assert first == first
            assert isinstance(first == second, bool)
            hash(first)


def test_compose_refusal_is_a_space_mismatch(m2):
    other = random_model(np.random.default_rng(0), 3, 2)
    with pytest.raises(SpaceMismatch):
        compose(m2, other)
