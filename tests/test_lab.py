from pathlib import Path

import numpy as np
import pytest

from filterlab import filter as filter_module
from filterlab.errors import BadPartition, MassMismatch, NonStochasticEmission
from filterlab.filter import (
    LipschitzFunction,
    filter_laws,
    mass_functional,
    pushforward_n,
    pushforward_nodes,
)
from filterlab.lab import (
    barycenter_identity_check,
    example_partition,
    example_product,
    osc_decay_report,
    partition_hypothesis_report,
    periodic_control_model,
    product_hypothesis_check,
    restricted_perron_density,
    simplex_grid,
    tightness_probe,
    weak_contraction_report,
)
from filterlab.measures import barycenter_lower_bound
from filterlab.model import (DensityVector, HmmModel, ObsSpace, StateSpace, load_model,
                             markov_kernel, stationary)

from conftest import P_SYM, Q_SYM, e, numeric_csv_rows, random_model


class TestExamplePartition:
    def test_column_masking(self):
        model = example_partition(P_SYM, [[1], [2]])
        np.testing.assert_allclose(model.stepping_matrix(1),
                                   [[0.7, 0.0], [0.3, 0.0]], atol=1e-14)

    def test_single_block_filter_is_chain_marginal(self):
        model = example_partition(P_SYM, [[1, 2]])
        x = DensityVector(model.states, [0.9, 0.1])
        P = markov_kernel(model)
        for n in range(1, 5):
            law = pushforward_n(model, x, n)
            assert law.n_atoms == 1
            np.testing.assert_allclose(law.points[0],
                                       x.masses @ np.linalg.matrix_power(P, n),
                                       atol=1e-13)

    def test_bad_partition(self):
        with pytest.raises(BadPartition):
            example_partition(P_SYM, [[1], [1, 2]])

    def test_hypothesis_report(self, partition_fixture):
        report = partition_hypothesis_report(partition_fixture)
        assert report.ok
        cand = {c["observation"]: c for c in report.candidates}
        assert cand[1]["d0"] == pytest.approx(0.7)
        assert cand[1]["D0"] == pytest.approx(0.7)
        assert cand[1]["pi_mass"] == pytest.approx(0.5)

    def test_hypothesis_report_periodic(self, periodic_fixture):
        report = partition_hypothesis_report(periodic_fixture)
        assert not report.ok


class TestExampleProduct:
    def test_m2_form(self, m2):
        built = example_product(P_SYM, Q_SYM)
        np.testing.assert_array_equal(built.m, m2.m)

    def test_uniform_emission_uninformative(self):
        model = example_product(P_SYM, [[0.5, 0.5], [0.5, 0.5]])
        x = DensityVector(model.states, [0.9, 0.1])
        law = pushforward_n(model, x, 1)
        assert law.n_atoms == 1  # both observations update identically
        np.testing.assert_allclose(law.points[0],
                                   x.masses @ markov_kernel(model), atol=1e-14)

    def test_emission_rows_checked(self):
        with pytest.raises(NonStochasticEmission):
            example_product(P_SYM, [[0.9, 0.2], [0.2, 0.8]])

    def test_block_positive_candidate_constants(self):
        # q constant on its support block, p pinched on F0 x F0: the extracted
        # bounds are exactly the products of the factor bounds
        p = [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [1 / 3, 1 / 3, 1 / 3]]
        q = [[0.4, 0.6], [0.4, 0.6], [0.0, 1.0]]
        model = example_product(p, q)
        cert = product_hypothesis_check(model, F0=[1, 2], B0=[1])
        assert cert.ok
        assert cert.d0 == pytest.approx(0.2 * 0.4, abs=1e-15)
        assert cert.D0 == pytest.approx(0.5 * 0.4, abs=1e-15)
        assert cert.beta0 == pytest.approx(2.0)
        assert cert.F1 == {1: (1, 2)}


class TestWeakContraction:
    def test_equal_starts_zero(self, m2):
        x = DensityVector(m2.states, [0.4, 0.6])
        report = weak_contraction_report(m2, [(x, x)], n_max=4)
        np.testing.assert_allclose(report.distances, 0.0, atol=1e-12)
        assert report.floor_ok

    def test_m2_vertex_pair(self, m2):
        report = weak_contraction_report(m2, [(e(m2, 1), e(m2, 2))], n_max=6)
        # hand value at n=1: sorted atom coupling costs 2*0.4
        assert report.distances[0, 0] == pytest.approx(0.8, abs=1e-12)
        expected_floor = 2.0 * 0.4 ** np.arange(1, 7)
        np.testing.assert_allclose(report.lower_bounds[0], expected_floor,
                                   atol=1e-12)
        assert report.floor_ok
        assert np.all(np.diff(report.distances[0]) < 0)
        rate, _ = report.rates[0]
        assert rate == pytest.approx(0.4, abs=1e-6)

    def test_uninformative_observations_reduce_to_chain(self):
        model = example_partition(P_SYM, [[1, 2]])
        x, y = e(model, 1), e(model, 2)
        report = weak_contraction_report(model, [(x, y)], n_max=5)
        np.testing.assert_allclose(report.distances, report.lower_bounds,
                                   atol=1e-12)

    @pytest.mark.xfail(strict=True, raises=MassMismatch,
                       reason="the two pruned laws lose different masses, and "
                              "kantorovich demands equal ones (ROADMAP item 1)")
    def test_pruned_laws_are_compared(self):
        rng = np.random.default_rng([0, 3])
        m = rng.gamma(2.0, size=(4, 4, 3))
        m /= m.sum(axis=(1, 2))[:, None, None]
        model = HmmModel(StateSpace((1, 2, 3, 4), np.ones(4)),
                         ObsSpace((1, 2, 3), np.ones(3)), m)
        report = weak_contraction_report(model, [(e(model, 1), e(model, 2))],
                                         n_max=5, prune_eps=1e-3)
        assert report.pruned_mass > 0.0
        assert np.all(np.isfinite(report.distances))

    def test_csv(self, m2, tmp_path):
        report = weak_contraction_report(m2, [(e(m2, 1), e(m2, 2))], n_max=2)
        out = tmp_path / "wc.csv"
        report.to_csv(out)
        assert len(out.read_text().strip().splitlines()) == 3
        rows = numeric_csv_rows(out)
        assert float(rows[-1]["distance"]) == report.distances[0, 1]


class TestOscDecay:
    def test_constant_function(self, m2):
        u = LipschitzFunction(fn=lambda m: np.full(m.shape[:-1], 1.0),
                              gamma=0.0, sup_norm=1.0, name="const")
        report = osc_decay_report(m2, [u], n_max=4)
        np.testing.assert_allclose(report.oscillations, 0.0, atol=1e-15)

    def test_m2_geometric_decay(self, m2):
        # averaging the cell-1 mass n times gives (xP^n)(1): oscillation 0.4^n
        u = mass_functional(m2, [1])
        report = osc_decay_report(m2, [u], n_max=6)
        np.testing.assert_allclose(report.oscillations[0],
                                   0.4 ** np.arange(7), atol=1e-12)
        assert report.monotone_ok
        assert report.decay_detected == [True]
        rate, _ = report.rates[0]
        assert rate == pytest.approx(0.4, abs=1e-9)

    def test_no_functions_give_an_empty_report(self, m2):
        report = osc_decay_report(m2, [], n_max=3)
        assert report.oscillations.shape == (0, 4)
        assert report.names == report.rates == report.decay_detected == []
        assert report.grid_points == len(simplex_grid(m2.states))

    def test_empty_grid_raises(self, m2):
        # the oscillation over no grid points is undefined
        u = mass_functional(m2, [1])
        with pytest.raises(ValueError, match="grid"):
            osc_decay_report(m2, [u], n_max=3, grid=np.zeros((0, m2.n_states)))

    def test_periodic_fixture_plateau(self, periodic_fixture):
        u = mass_functional(periodic_fixture, [1])
        report = osc_decay_report(periodic_fixture, [u], n_max=6)
        np.testing.assert_allclose(report.oscillations[0], 1.0, atol=1e-12)
        assert report.monotone_ok
        assert report.decay_detected == [False]

    def test_table_matches_enumeration(self, monkeypatch):
        # every entry against T^n u from the unmerged sequence enumeration,
        # with blocks of a few grid points so that several blocks are stepped
        rng = np.random.default_rng(8)
        model = random_model(rng, 3, 3, sparsity=0.3)
        u_list = [mass_functional(model, [1]),
                  LipschitzFunction(fn=lambda m: (m**2).sum(axis=-1), gamma=2.0,
                                    sup_norm=1.0, name="sq")]
        grid = simplex_grid(model.states, step=0.25)
        monkeypatch.setattr(filter_module, "_GRID_BLOCK", 3**4 * 4)
        report = osc_decay_report(model, u_list, n_max=4, grid=grid)
        for n in range(5):
            for i, u in enumerate(u_list):
                vals = []
                for x in grid:
                    nodes = pushforward_nodes(model, DensityVector.from_masses(
                        model.states, x), n)
                    vals.append(sum(node.weight * u(node.point) for node in nodes))
                want = max(vals) - min(vals)
                assert report.oscillations[i, n] == pytest.approx(want, abs=1e-12)

    def test_csv(self, m2, tmp_path):
        u = mass_functional(m2, [1])
        report = osc_decay_report(m2, [u], n_max=2)
        out = tmp_path / "osc.csv"
        report.to_csv(out)
        assert out.read_text().startswith("function,n,oscillation")
        rows = numeric_csv_rows(out, text_columns=("function",))
        assert float(rows[-1]["oscillation"]) == report.oscillations[0, 2]


class TestBarycenterIdentity:
    def test_zero_horizon(self, m2):
        assert barycenter_identity_check(m2, [e(m2, 1)], n_max=0) == 0.0

    def test_no_starts_raises(self, m2):
        # a worst residual over no starts would pass vacuously
        with pytest.raises(ValueError, match="starts"):
            barycenter_identity_check(m2, [], n_max=3)

    def test_m2(self, m2):
        residual = barycenter_identity_check(m2, [e(m2, 1), e(m2, 2)], n_max=6)
        assert residual < 1e-12

    def test_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            model = random_model(rng, 5, 2, weighted=True)
            x = DensityVector.from_masses(model.states,
                                          rng.dirichlet(np.ones(5)))
            assert barycenter_identity_check(model, [x], n_max=4) < 1e-10


class TestTightness:
    def test_degenerate_model(self):
        from filterlab.model import build_model
        model = build_model({
            "states": {"ids": ["s"]}, "obs": {"ids": ["a"]},
            "m": {"dense": [[[1.0]]]},
        })
        x0 = DensityVector.uniform(model.states)
        report = tightness_probe(model, x0, 0.5, [x0], n_max=4)
        np.testing.assert_array_equal(report.masses, 1.0)
        assert report.liminf_estimate == 1.0

    def test_no_starts_raises(self, m2):
        pi, _ = stationary(m2)
        with pytest.raises(ValueError, match="starts"):
            tightness_probe(m2, pi, 0.5, [], n_max=3)

    def test_diameter_epsilon_full_mass(self, m2):
        pi, _ = stationary(m2)
        report = tightness_probe(m2, pi, 2.0, [e(m2, 1), e(m2, 2)], n_max=4)
        np.testing.assert_allclose(report.masses, 1.0, atol=1e-12)

    def test_partition_fixture_positive_liminf(self, partition_fixture):
        x0 = restricted_perron_density(partition_fixture, [1], 1)
        np.testing.assert_allclose(x0.values, [1.0, 0.0], atol=1e-12)
        starts = [e(partition_fixture, 1), e(partition_fixture, 2)]
        report = tightness_probe(partition_fixture, x0, 0.1, starts, n_max=8)
        assert report.liminf_estimate > 0.3

    def test_csv(self, m2, tmp_path):
        pi, _ = stationary(m2)
        report = tightness_probe(m2, pi, 1.0, [e(m2, 1)], n_max=2)
        out = tmp_path / "tight.csv"
        report.to_csv(out)
        assert out.read_text().startswith("start,n,ball_mass")
        rows = numeric_csv_rows(out)
        assert float(rows[-1]["ball_mass"]) == report.masses[0, 2]


class TestGrids:
    def test_two_cells(self, m2):
        grid = simplex_grid(m2.states, step=0.25)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert len(grid) == 5

    def test_three_cells(self):
        from filterlab.model import StateSpace
        space = StateSpace([1, 2, 3], [1, 1, 1])
        grid = simplex_grid(space, step=0.25)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert len(grid) == 15

    def test_many_cells_seeded(self):
        from filterlab.model import StateSpace
        space = StateSpace([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])
        a = simplex_grid(space, seed=3, mc_points=64)
        b = simplex_grid(space, seed=3, mc_points=64)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_many_cells_hold_the_vertices_first(self):
        space = StateSpace([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])
        grid = simplex_grid(space, seed=3, mc_points=64)
        assert grid.shape == (5 + 64, 5)
        np.testing.assert_array_equal(grid[:5], np.eye(5))
        np.testing.assert_array_equal(grid[5:], np.random.default_rng(3).dirichlet(
            np.ones(5), size=64))

    @staticmethod
    def _per_k_mesh(k, step):
        """The meshes of one, two and three cells as separate formulas wrote them."""
        if k == 1:
            return np.ones((1, 1))
        if k == 2:
            h = 0.02 if step is None else step
            t = np.clip(np.arange(0.0, 1.0 + h / 2, h), 0.0, 1.0)
            return np.column_stack([t, 1.0 - t])
        h = 0.05 if step is None else step
        steps = int(round(1.0 / h))
        return np.asarray([[i * h, j * h, max(0.0, 1.0 - i * h - j * h)]
                           for i in range(steps + 1) for j in range(steps + 1 - i)])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_mesh_is_the_per_k_formulas(self, k):
        space = StateSpace(tuple(range(1, k + 1)), [1.0] * k)
        for step in [None] + [1.0 / m for m in range(1, 41)]:
            grid, want = simplex_grid(space, step=step), self._per_k_mesh(k, step)
            assert grid.dtype == want.dtype and grid.shape == want.shape
            assert grid.tobytes() == want.tobytes(), step

    def test_mesh_steps_past_one_are_capped(self):
        # 7 * 0.15 = 1.05: a leading coordinate is capped at one, and the
        # last one is then 0
        for k in (2, 3):
            grid = simplex_grid(StateSpace(tuple(range(1, k + 1)), [1.0] * k), step=0.15)
            assert grid.max() == 1.0 and grid.min() == 0.0
            assert [1.0] + [0.0] * (k - 1) in grid.tolist()
        three = simplex_grid(StateSpace((1, 2, 3), [1.0] * 3), step=0.15).tolist()
        assert [0.0, 1.0, 0.0] in three and [0.0, 1.05, 0.0] not in three

    @pytest.mark.parametrize("k, n_obs, weighted", [(4, 3, False), (5, 2, True)])
    def test_default_grid_oscillation_is_the_matrix_power_one(self, k, n_obs, weighted):
        # T^n of a mass functional is linear in the start masses, so its
        # oscillation over the simplex is max - min of P^n c, reached at the
        # vertices; Dirichlet samples alone read about 0.82 of it at n = 0
        rng = np.random.default_rng([0, 3])
        model = random_model(rng, k, n_obs, weighted=weighted)
        u = mass_functional(model, [1])
        report = osc_decay_report(model, [u], n_max=5)
        assert report.grid_points == k + 512
        c = (np.arange(k) == 0).astype(float)
        want = []
        for _ in range(6):
            want.append(c.max() - c.min())
            c = model.markov_matrix @ c
        np.testing.assert_allclose(report.oscillations[0], want, rtol=0, atol=1e-14)


def test_periodic_control_is_two_cycle():
    model = periodic_control_model()
    np.testing.assert_array_equal(markov_kernel(model), [[0, 1], [1, 0]])
    assert model.n_obs == 1


@pytest.mark.parametrize("name", ["noisy_sensor", "block_partition", "two_cycle_control"])
def test_floor_is_the_barycenter_bound_of_the_laws_compared(name):
    # the floor of the laws themselves; by the barycenter identity it is the
    # chain-marginal gap |x P^n - y P^n| up to rounding
    model = load_model(Path(__file__).parents[1] / "demos" / "models" / f"{name}.json")
    x, y = e(model, model.states.cells[0]), e(model, model.states.cells[-1])
    report = weak_contraction_report(model, [(x, y)], 6)
    laws = zip(filter_laws(model, x, 6), filter_laws(model, y, 6))
    next(laws)
    P = markov_kernel(model)
    xm, ym = x.masses, y.masses
    for n, (mu, nu) in enumerate(laws, start=1):
        assert report.lower_bounds[0, n - 1] == barycenter_lower_bound(mu, nu)
        xm, ym = xm @ P, ym @ P
        assert abs(report.lower_bounds[0, n - 1] - np.abs(xm - ym).sum()) <= 1e-15
