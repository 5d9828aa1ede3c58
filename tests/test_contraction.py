import functools
import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from filterlab.contraction import (
    check_condition_A,
    check_condition_KR,
    check_condition_P,
    cross_ratio_kappa,
    e1_constants,
    hopf_bound,
    is_subrectangular,
    rectangular_support,
    birkhoff_osc_step,
    verify_hopf,
)
from filterlab.errors import (
    AmbiguousSupport,
    BudgetExceeded,
    CertificateInvalid,
    DegenerateProduct,
    DivisionByZeroMass,
    HypothesisViolated,
    KappaBelowOne,
    NonpositiveEntry,
)
from filterlab import contraction
from filterlab.model import (
    HmmModel,
    ObsSpace,
    StateSpace,
    build_model,
    partition_model,
    product_model,
    stationary,
)



def _subrectangular_oracle(kernel):
    # direct check of the defining implication over all index quadruples
    k = np.asarray(kernel)
    n, m = k.shape
    for i1 in range(n):
        for j1 in range(m):
            for i2 in range(n):
                for j2 in range(m):
                    if k[i1, j1] > 0 and k[i2, j2] > 0:
                        if not (k[i1, j2] > 0 and k[i2, j1] > 0):
                            return False
    return True


class TestRectangularSupport:
    def test_strictly_positive(self):
        sup = rectangular_support([[2.0, 1.0], [1.0, 2.0]])
        assert sup.rows == (0, 1) and sup.cols == (0, 1)

    def test_identity_not_rectangular(self):
        assert rectangular_support(np.eye(2)) is None

    def test_single_column(self):
        sup = rectangular_support([[0.7, 0.0], [0.3, 0.0]])
        assert sup.rows == (0, 1) and sup.cols == (0,)

    def test_zero_matrix(self):
        assert rectangular_support(np.zeros((2, 2))) is None

    def test_ambiguous_entries_raise(self):
        with pytest.raises(AmbiguousSupport):
            rectangular_support([[1.0, 1e-15], [1.0, 1.0]], zero_tol=1e-12)

    def test_ambiguous_entry_is_printed_as_a_number(self):
        with pytest.raises(AmbiguousSupport, match=r"^entry \(0,1\)=1e-15 lies strictly"):
            rectangular_support([[1, 1e-15], [1, 1]], zero_tol=1e-12)

    def test_tolerance_coarsens_support(self):
        kernel = [[1.0, 0.0], [1.0, 0.0]]
        assert rectangular_support(kernel, zero_tol=1e-9).cols == (0,)


class TestIsSubrectangular:
    def test_identity_false(self):
        assert not is_subrectangular(np.eye(2))

    def test_positive_true(self):
        assert is_subrectangular(np.full((3, 4), 0.5))

    def test_single_column_true(self):
        assert is_subrectangular([[0.7, 0.0], [0.3, 0.0]])

    def test_zero_vacuously_true(self):
        assert is_subrectangular(np.zeros((2, 3)))

    def test_agrees_with_oracle_and_support(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = rng.random((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            k = np.where(rng.random(k.shape) < 0.5, 0.0, k)
            assert is_subrectangular(k) == _subrectangular_oracle(k)
            if k.max() > 0:
                assert is_subrectangular(k) == (rectangular_support(k) is not None)


class TestCrossRatio:
    def test_rank_one_is_one(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0.5, 2.0, 4)
        v = rng.uniform(0.5, 2.0, 5)
        assert cross_ratio_kappa(np.outer(u, v)) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two(self):
        assert cross_ratio_kappa([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(2.0)

    def test_pinched_entries(self):
        d = 0.25
        assert cross_ratio_kappa([[d, d], [d, 4 * d]]) == pytest.approx(2.0)

    def test_zero_inside_support_raises(self):
        with pytest.raises(NonpositiveEntry):
            cross_ratio_kappa([[1.0, 0.0], [1.0, 1.0]], rows=(0, 1), cols=(0, 1))

    def test_dense_and_reduction_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = rng.uniform(0.1, 3.0, (int(rng.integers(2, 6)),
                                       int(rng.integers(2, 6))))
            dense = cross_ratio_kappa(k)
            reduced = cross_ratio_kappa(k, max_dense=0)
            assert dense == pytest.approx(reduced, rel=1e-12)


class TestHopfBound:
    def test_rank_one_factors(self):
        assert hopf_bound([1.0, 1.0]) == 0.0

    def test_single_factor(self):
        assert hopf_bound([2.0]) == pytest.approx(2.0 / 3.0)

    def test_two_factors(self):
        assert hopf_bound([2.0, 2.0]) == pytest.approx(2.0 / 9.0)

    def test_kappa_below_one(self):
        with pytest.raises(KappaBelowOne):
            hopf_bound([0.9])


class TestVerifyHopf:
    def test_tight_two_by_two(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        check = verify_hopf([k], [1.0, 0.0], [0.0, 1.0])
        assert check.achieved == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert check.bound == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert check.ok

    def test_equal_starts(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        check = verify_hopf([k, k], [0.3, 0.7], [0.3, 0.7])
        assert check.achieved == pytest.approx(0.0, abs=1e-15)

    def test_two_factor_product(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        check = verify_hopf([k, k], [1.0, 0.0], [0.0, 1.0])
        # oracle: normalize the rows of k @ k directly
        prod = k @ k
        rows = prod / prod.sum(axis=1, keepdims=True)
        expected = np.abs(rows[0] - rows[1]).sum()
        assert check.achieved == pytest.approx(expected, abs=1e-15)
        assert check.achieved <= 2.0 / 9.0 + 1e-15

    def test_non_rectangular_rejected(self):
        with pytest.raises(HypothesisViolated, match="rectangular"):
            verify_hopf([np.eye(2)], [1.0, 0.0], [0.0, 1.0])

    def test_start_off_first_rows_rejected(self):
        k = np.array([[1.0, 1.0], [0.0, 0.0]])  # rows (0,), cols (0, 1)
        with pytest.raises(HypothesisViolated, match="no mass"):
            verify_hopf([k], [0.0, 1.0], [1.0, 1.0])

    def test_mass_losing_product_rejected(self):
        k1 = np.array([[1.0, 0.0], [0.0, 0.0]])  # support {0} x {0}
        k2 = np.array([[0.0, 0.0], [1.0, 1.0]])  # support {1} x {0,1}
        with pytest.raises(HypothesisViolated, match="loses"):
            verify_hopf([k1, k2], [1.0, 0.0], [1.0, 1.0])

    def test_random_products_never_violate(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            length = int(rng.integers(1, 6))
            kernels = [rng.uniform(0.05, 3.0, (dim, dim)) for _ in range(length)]
            x = rng.dirichlet(np.ones(dim))
            y = rng.dirichlet(np.ones(dim))
            check = verify_hopf(kernels, x, y)
            assert check.ok


class TestBirkhoffOscStep:
    def test_proportional_functions(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        lhs, rhs = birkhoff_osc_step(k, np.array([1.0, 1.0]),
                                     np.array([2.5, 2.5]))
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        lhs, rhs = birkhoff_osc_step(k, np.array([1.0, 1.0]),
                                     np.array([1.0, 0.0]))
        assert lhs == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert rhs == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_vanishing_denominator(self):
        k = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(DivisionByZeroMass):
            birkhoff_osc_step(k, np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_random_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            k = rng.uniform(0.1, 2.0, (dim, dim))
            u = rng.uniform(0.2, 2.0, dim)
            v = rng.uniform(0.0, 2.0, dim)
            lhs, rhs = birkhoff_osc_step(k, u, v)
            assert lhs <= rhs + 1e-12


class TestConditionA:
    def test_partition_fixture_length_one(self, partition_fixture):
        assert check_condition_A(partition_fixture, max_len=3) == (1,)

    def test_m2_length_one(self, m2):
        assert check_condition_A(m2, max_len=3) == (1,)

    def test_permutation_chain_absent(self, periodic_fixture):
        assert check_condition_A(periodic_fixture, max_len=3) is None


def _float_bfs_witness(model, max_len):
    """Shortest, lexicographically first witness found by float products.

    Level by level over every observation sequence, without merging equal
    supports; zero products are not extended.
    """
    steps = model.stepping_matrices
    products = np.eye(model.n_states)[None]
    seqs = np.zeros((1, 0), dtype=np.int64)
    for _ in range(max_len):
        children = products[:, None] @ steps[None]
        parent, obs = np.divmod(np.arange(len(products) * model.n_obs), model.n_obs)
        children = children.reshape(-1, model.n_states, model.n_states)
        alive = children.max(axis=(1, 2)) > 0.0
        products = children[alive]
        seqs = np.column_stack([seqs[parent[alive]], obs[alive]])
        # a rectangle: the support equals the product of its rows and columns
        pos = products > 0.0
        full = pos.any(axis=2)[:, :, None] & pos.any(axis=1)[:, None, :]
        hits = np.flatnonzero((pos == full).all(axis=(1, 2)))
        if hits.size:
            return tuple(model.obs.cells[a] for a in seqs[hits[0]])
    return None


def _structured_sparse_model(seed, n_states, n_obs, sparsity, kind):
    """Random sparse model whose chain is free, periodic or reducible."""
    rng = np.random.default_rng(seed)
    s, t = np.indices((n_states, n_states))
    allowed = {"free": np.ones((n_states, n_states), bool),
               "periodic": (s % 2) != (t % 2),
               "reducible": t >= s}[kind]
    m = rng.gamma(2.0, size=(n_states, n_states, n_obs))
    m *= (rng.random(m.shape) >= sparsity) & allowed[:, :, None]
    for row in range(n_states):
        if m[row].max() <= 0.0:  # keep every row alive inside the structure
            m[row, rng.choice(np.flatnonzero(allowed[row])), rng.integers(n_obs)] = 1.0
    lam = rng.uniform(0.5, 2.0, n_states)
    tau = rng.uniform(0.5, 2.0, n_obs)
    m /= np.einsum("sta,t,a->s", m, lam, tau)[:, None, None]
    return HmmModel(StateSpace(tuple(range(1, n_states + 1)), lam),
                    ObsSpace(tuple(range(1, n_obs + 1)), tau), m)


class TestConditionASemigroup:
    @settings(max_examples=250, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 3),
           st.floats(0.3, 0.8), st.sampled_from(["free", "periodic", "reducible"]))
    def test_matches_float_product_search(self, seed, n_states, n_obs, sparsity, kind):
        model = _structured_sparse_model(seed, n_states, n_obs, sparsity, kind)
        try:
            witness = check_condition_A(model, max_len=6)
        except BudgetExceeded:
            # stopped at max_len: no witness that short
            assert _float_bfs_witness(model, 6) is None
            return
        if witness is None:
            # an exhausted closure: no product of any length is a rectangle
            assert _float_bfs_witness(model, 10) is None
        else:
            assert witness == _float_bfs_witness(model, 6)

    def test_max_len_stops_before_a_length_three_witness(self):
        # 1 -> 2 -> 3 -> everywhere: only the third power is a full rectangle
        model = partition_model([[0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3]],
                                [[1, 2, 3]])
        with pytest.raises(BudgetExceeded, match="max_len"):
            check_condition_A(model, max_len=2)
        assert check_condition_A(model, max_len=3) == (1, 1, 1)
        assert _float_bfs_witness(model, 3) == (1, 1, 1)

    def test_budget_counts_patterns(self, partition_fixture):
        with pytest.raises(BudgetExceeded, match="budget"):
            check_condition_A(partition_fixture, max_len=3, budget=1)


class TestConditionKR:
    def test_partition_single_positive_column(self, partition_fixture):
        report = check_condition_KR(partition_fixture, seq=[1, 1, 1])
        np.testing.assert_allclose(report.ratios, 0.0, atol=1e-15)
        assert report.verdict

    def test_symmetric_kernel_geometric_ratio(self, single_obs_contracting):
        # eigenvalue oracle: the doubly stochastic kernel has spectrum (1, 1/3)
        report = check_condition_KR(single_obs_contracting, seq=[1] * 20)
        expected = (1.0 / 3.0) ** np.arange(1, 21)
        np.testing.assert_allclose(report.ratios, expected, atol=1e-9)
        assert report.verdict
        assert report.rate == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_identity_stepping_no_verdict(self):
        model = partition_model(np.eye(2), [[1, 2]])
        report = check_condition_KR(model, seq=[1] * 10)
        np.testing.assert_allclose(report.ratios, 1.0, atol=1e-12)
        assert not report.verdict

    def test_greedy_search(self, partition_fixture):
        report = check_condition_KR(partition_fixture, depth=4)
        assert report.verdict
        assert len(report.sequence) == 4

    def test_degenerate_product(self):
        # observation 1 is impossible from everywhere: zero stepping kernel
        model = product_model([[0.5, 0.5], [0.5, 0.5]],
                              [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DegenerateProduct):
            check_condition_KR(model, seq=[1])

    def test_seq_xor_depth(self, m2):
        with pytest.raises(ValueError):
            check_condition_KR(m2)

    def test_ratio_vs_contraction_factor_reported(self, capsys):
        # reported comparison only: no quantitative relation is asserted
        rng = np.random.default_rng(5)
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            p = rng.uniform(0.1, 1.0, (dim, dim))
            p = p / p.sum(axis=1, keepdims=True)
            model = product_model(p, np.ones((dim, 1)))
            kappa = cross_ratio_kappa(model.stepping_matrix(1))
            factor = (kappa - 1.0) / (kappa + 1.0)
            report = check_condition_KR(model, seq=[1] * 6)
            assert np.all(np.isfinite(report.ratios))
            print(f"dim={dim}: per-step contraction factor {factor:.4f}, "
                  f"singular ratios {np.round(report.ratios, 5)}")


def _kr_by_loop(model, depth):
    """The greedy rank-one search scored one candidate at a time, as a reference."""
    ratios, chosen, product = [], [], None
    for _ in range(depth):
        best = None
        for a in range(model.n_obs):
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
            return None
        r, a, product = best
        chosen.append(model.obs.cells[a])
        ratios.append(r)
    return tuple(chosen), ratios


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 4),
       st.floats(0.0, 0.8), st.sampled_from(["free", "periodic", "reducible"]))
def test_kr_search_scores_offers_like_the_loop(seed, n_states, n_obs, sparsity, kind):
    """Stacked candidates give the loop's sequence and bit-identical ratios."""
    model = _structured_sparse_model(seed, n_states, n_obs, sparsity, kind)
    want = _kr_by_loop(model, 6)
    if want is None:
        with pytest.raises(DegenerateProduct):
            check_condition_KR(model, depth=6)
        return
    report = check_condition_KR(model, depth=6)
    assert report.sequence == want[0]
    assert report.ratios.tolist() == want[1]


class TestConditionP:
    def test_partition_fixture_certificate(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        assert cert.ok
        assert cert.d0 == pytest.approx(0.7)
        assert cert.D0 == pytest.approx(0.7)
        assert cert.beta0 == pytest.approx(1.0)
        assert cert.F1 == {1: (1,)}
        assert cert.kappa == pytest.approx(1.0)

    def test_certificate_json(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        doc = json.loads(cert.to_json())
        assert doc["d0"] == pytest.approx(0.7) and doc["kappa"] == 1.0

    def test_zero_stationary_mass_clause(self):
        from filterlab.model import DensityVector

        model = partition_model([[1.0, 0.0], [0.5, 0.5]], [[1], [2]])
        pi = DensityVector(model.states, [1.0, 0.0])  # state 1 absorbs
        violation = check_condition_P(model, pi, [2], [2])
        assert not violation.ok and violation.clause == "1"

    def test_landing_outside_clause(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        violation = check_condition_P(partition_fixture, pi, [1], [2])
        assert not violation.ok and violation.clause == "3a"

    def test_vanishing_inside_block_clause(self):
        # obs 1 lands in state 1, reachable from state 1 but not from state 2
        model = partition_model([[0.5, 0.5], [0.0, 1.0]], [[1], [2]])
        pi, _ = stationary(model)
        violation = check_condition_P(model, pi, [1, 2], [1])
        assert not violation.ok and violation.clause == "3c"

    def test_unreachable_observation_clause(self):
        model = product_model([[0.5, 0.5], [0.5, 0.5]],
                              [[0.0, 1.0], [0.0, 1.0]])
        pi, _ = stationary(model)
        violation = check_condition_P(model, pi, [1, 2], [1])
        assert not violation.ok and violation.clause == "3b"


class TestE1Constants:
    def test_partition_fixture_constants(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        e1c = e1_constants(partition_fixture, pi, cert, rho=0.1)
        assert e1c.N == 1
        assert e1c.xi == pytest.approx(0.25, abs=1e-12)
        assert e1c.beta == pytest.approx(1.0, abs=1e-12)
        assert e1c.eta == pytest.approx(0.175, abs=1e-12)
        assert e1c.alpha == pytest.approx(0.0109375, abs=1e-12)
        assert e1c.verification.ok
        assert e1c.verification.max_tv < 0.1

    def test_horizon_formula_kappa_two(self):
        # single uninformative observation, doubly stochastic kernel: kappa=2
        p = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        model = partition_model(p, [[1, 2]])
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2], [1])
        assert cert.kappa == pytest.approx(2.0)
        e1c = e1_constants(model, pi, cert, rho=0.1)
        assert e1c.N == 3  # 2 * 3^-3 = 2/27 < 0.1 <= 2/9
        assert e1c.verification.ok

    def test_diameter_rho_horizon_one(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        assert e1_constants(partition_fixture, pi, cert, rho=2.0).N == 1

    def test_rho_out_of_range(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        with pytest.raises(ValueError):
            e1_constants(partition_fixture, pi, cert, rho=0.0)

    def test_stale_certificate_rejected(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        stale = type(cert)(F0=cert.F0, B0=cert.B0, d0=0.5, D0=cert.D0,
                           beta0=cert.beta0, F1=cert.F1, pi_F0=cert.pi_F0)
        with pytest.raises(CertificateInvalid):
            e1_constants(partition_fixture, pi, stale, rho=0.1)

    @pytest.mark.parametrize("constant, n", [("beta", 1388), ("eta", 804)])
    def test_constant_past_the_float_range_exhausts_the_budget(self, constant, n):
        if constant == "beta":
            # the kappa-1724 model with tau(B0) = 2 (densities halved)
            model, f0 = _sparse_product_model(0)
            model = HmmModel(model.states, ObsSpace((1, 2, 3), [2.0] * 3), model.m / 2)
        else:
            # kappa 999 and tau(1) = 1e-4, so the floor's base d0 beta0 is 10
            model = product_model([[1 - 1e-3, 1e-3], [0.5, 0.5]], [[5e3, 0.5]] * 2,
                                  tau_weights=[1e-4, 1.0])
            f0 = [1, 2]
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, f0, [1])
        with pytest.raises(BudgetExceeded, match=rf"^{constant} = .* overflows at N = {n}$"):
            e1_constants(model, pi, cert, rho=0.4)

    def test_horizon_past_a_million_steps_exhausts_the_budget(self):
        model = product_model([[1 - 1e-8, 1e-8], [0.5, 0.5]], [[0.9, 0.1], [0.2, 0.8]])
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2], [1])
        assert cert.kappa == pytest.approx(4.5e8)
        with pytest.raises(BudgetExceeded, match="horizon exceeds 1e6 steps"):
            e1_constants(model, pi, cert, rho=0.1)

    def test_infinite_kappa_exhausts_the_budget(self):
        # d0 = 2e-311 is subnormal, kappa overflows and the factor
        # (kappa - 1) / (kappa + 1) is NaN: no horizon is ever reached
        model = product_model([[1 - 1e-310, 1e-310], [0.5, 0.5]],
                              [[0.9, 0.1], [0.2, 0.8]])
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2], [1])
        assert cert.kappa == np.inf
        with pytest.raises(BudgetExceeded, match="horizon exceeds 1e6 steps"):
            e1_constants(model, pi, cert, rho=0.1)

    def test_certificate_json_round_trip(self, partition_fixture):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])
        e1c = e1_constants(partition_fixture, pi, cert, rho=0.1)
        doc = json.loads(e1c.to_json())
        assert doc["N"] == 1 and doc["alpha"] == pytest.approx(0.0109375)
        assert doc["verification"]["g_violations"] == 0


def _horizon_by_loop(kappa, rho):
    """The horizon search one step at a time, as e1_constants first made it."""
    factor = (kappa - 1.0) / (kappa + 1.0)
    n = 1
    while 2.0 * factor**n >= rho:
        n += 1
        if n > 10**6:
            raise BudgetExceeded("contraction horizon exceeds 1e6 steps")
    return n


class TestContractionHorizon:
    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(1.0, 1e4), rho=st.floats(1e-12, 2.0))
    def test_closed_form_is_the_loop(self, kappa, rho):
        assert contraction._contraction_horizon(kappa, rho) == _horizon_by_loop(kappa, rho)

    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(1.0, 1e4), horizon=st.integers(1, 60),
           nudge=st.integers(-3, 3))
    def test_closed_form_is_the_loop_at_the_crossing(self, kappa, horizon, nudge):
        # rho within a few ulps of 2 factor**horizon, where rounding decides N
        rho = 2.0 * ((kappa - 1.0) / (kappa + 1.0)) ** horizon
        for _ in range(abs(nudge)):
            rho = np.nextafter(rho, np.inf if nudge > 0 else 0.0)
        assume(0.0 < rho <= 2.0)
        assert contraction._contraction_horizon(kappa, rho) == _horizon_by_loop(kappa, rho)

    @pytest.mark.parametrize("kappa", [4.5e8, 1e17, np.inf, np.nan])
    def test_no_horizon_within_a_million_steps(self, kappa):
        with pytest.raises(BudgetExceeded, match="horizon exceeds 1e6 steps"):
            contraction._contraction_horizon(kappa, 0.1)

    def test_kappa_one_takes_one_step(self):
        assert contraction._contraction_horizon(1.0, 1e-300) == 1

    @pytest.mark.parametrize("kappa", [1.0000000000000002, 2.0])
    def test_smallest_subnormal_rho(self, kappa):
        # rho / 2 rounds to 0 there, so the closed form must not take its log
        rho = 5e-324
        assert contraction._contraction_horizon(kappa, rho) == _horizon_by_loop(kappa, rho)


BLOCK_PARTITION = {"states": {"ids": [1, 2, 3]}, "obs": {"ids": [1, 2]},
                   "m": {"dense": [[[0.5, 0.0], [0.3, 0.0], [0.0, 0.2]],
                                   [[0.3, 0.0], [0.4, 0.0], [0.0, 0.3]],
                                   [[0.25, 0.0], [0.25, 0.0], [0.0, 0.5]]]}}


def _flushed(s):
    """Likelihoods below the smallest normal float count as 0, as in the verifier."""
    return np.where(s < np.finfo(float).tiny, 0.0, s)


def _reference_verification(model, cert, e1c, sample_pairs, sequence_budget, seed):
    """The E1 verifier one observation sequence at a time, same random stream."""
    rng = np.random.default_rng(seed)
    n = e1c.N
    b0_idx = [model.obs.index(a) for a in cert.B0]
    if len(b0_idx) ** n <= sequence_budget:
        sequences = list(itertools.product(b0_idx, repeat=n))
    else:
        sequences = [tuple(rng.choice(b0_idx, size=n)) for _ in range(1000)]
    f0 = model.states.mask(cert.F0)
    xs = contraction._sample_threshold_densities(rng, model, f0, e1c.threshold, sample_pairs)
    ys = contraction._sample_threshold_densities(rng, model, f0, e1c.threshold, sample_pairs)
    g_viol = h_viol = 0
    min_g, max_tv = np.inf, 0.0
    for seq in sequences:
        product = model.stepping_matrices[seq[0]]
        for a in seq[1:]:
            product = product @ model.stepping_matrices[a]
        gx, gy = xs @ product, ys @ product
        sx, sy = _flushed(gx.sum(axis=1)), _flushed(gy.sum(axis=1))
        min_g = min(min_g, sx.min(), sy.min())
        g_viol += int((sx < e1c.eta - 1e-12).sum() + (sy < e1c.eta - 1e-12).sum())
        ok = (sx > 0) & (sy > 0)
        tv = np.abs(gx[ok] / sx[ok, None] - gy[ok] / sy[ok, None]).sum(axis=1)
        if len(tv):
            max_tv = max(max_tv, tv.max())
            h_viol += int((tv >= e1c.rho).sum())
    return len(sequences), g_viol, h_viol, min_g, max_tv


def _fields(v):
    return v.n_sequences, v.g_violations, v.h_violations, v.min_g, v.max_tv


class TestE1Batched:
    @pytest.mark.parametrize("sequence_budget, exhaustive", [(10**4, True), (10, False)])
    @pytest.mark.parametrize("rho", [1e-4, 0.02])
    def test_matches_per_sequence_loop(self, sequence_budget, exhaustive, rho):
        model = build_model(BLOCK_PARTITION)
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2, 3], [1, 2])
        # 600 rows: blocks of 13 sequences, the last one partial
        e1c = e1_constants(model, pi, cert, rho=rho, sample_pairs=300,
                           sequence_budget=sequence_budget, seed=5)
        assert e1c.verification.exhaustive_sequences is exhaustive
        got = _fields(e1c.verification)
        want = _reference_verification(model, cert, e1c, 300, sequence_budget, seed=5)
        assert got[:3] == want[:3]
        assert got[3:] == pytest.approx(want[3:], rel=1e-12, abs=0)

    def test_violations_and_zero_likelihoods_counted_like_the_loop(self, monkeypatch):
        # {1, 2} and {3} are closed classes and observation 1 (landing in
        # {1, 2}) is impossible from state 3; starts drawn over all cells,
        # some of them on state 3 alone, break the threshold and give zero
        # likelihoods
        model = partition_model([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]],
                                [[1, 2], [3]])
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2], [1])
        assert cert.ok

        def anywhere(rng, model, f0_mask, threshold, count):
            out = rng.dirichlet(np.ones(model.n_states), size=count)
            out[::7] = [0.0, 0.0, 1.0]
            return out

        monkeypatch.setattr(contraction, "_sample_threshold_densities", anywhere)
        for sequence_budget in (10**4, 0):  # exhaustive, then sampled
            e1c = e1_constants(model, pi, cert, rho=0.1, sample_pairs=500,
                               sequence_budget=sequence_budget, seed=3)
            got = _fields(e1c.verification)
            want = _reference_verification(model, cert, e1c, 500, sequence_budget, seed=3)
            assert got[1] > 0 and got[3] == 0.0
            assert got[:3] == want[:3]
            assert got[3:] == pytest.approx(want[3:], rel=1e-12, abs=0)


def _threshold_densities_loop(rng, model, f0_mask, threshold, count):
    """The sampler as one ``rng.dirichlet`` call per draw, sample by sample."""
    k = model.n_states
    idx_f0 = np.nonzero(f0_mask)[0]
    out = np.zeros((count, k))
    others = np.nonzero(~f0_mask)[0]
    for i in range(count):
        inner = np.zeros(k)
        inner[idx_f0] = rng.dirichlet(np.ones(len(idx_f0)))
        style = i % 3
        if style == 0 and len(others):
            rest = np.zeros(k)
            rest[others] = rng.dirichlet(np.ones(len(others)))
            out[i] = threshold * inner + (1.0 - threshold) * rest
        elif style == 1:
            out[i] = inner
        else:
            rest = rng.dirichlet(np.ones(k))
            out[i] = threshold * inner + (1.0 - threshold) * rest
    return out


class TestThresholdDensities:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_bit_identical_to_the_dirichlet_loop(self, k):
        rng = np.random.default_rng([17, k])
        model = product_model(np.full((k, k), 1.0 / k), np.eye(k))
        masks = [np.ones(k, dtype=bool)]  # no cells outside F0
        if k > 1:
            masks += [np.arange(k) < 1, np.arange(k) >= k // 2, rng.random(k) < 0.5]
        for mask in masks:
            mask[0] |= not mask.any()
            for count in (0, 1, 2, 3, 7, 200):
                threshold = float(rng.uniform())
                a, b = np.random.default_rng(count), np.random.default_rng(count)
                want = _threshold_densities_loop(a, model, mask, threshold, count)
                got = contraction._sample_threshold_densities(b, model, mask, threshold, count)
                np.testing.assert_array_equal(got, want)
                # and the stream continues where the loop left it
                assert a.random() == b.random()


def _sparse_product_model(seed):
    """Random product model whose observation 1 never lands outside cells 1..f."""
    rng = np.random.default_rng(seed)
    k, n_obs = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    f = int(rng.integers(1, k + 1))
    p = rng.gamma(1.0, size=(k, k))
    q = rng.gamma(1.0, size=(k, n_obs))
    q[f:, 0] = 0.0
    model = product_model(p / p.sum(axis=1, keepdims=True),
                          q / q.sum(axis=1, keepdims=True))
    return model, list(range(1, f + 1))


def _vertex_reference(model, e1c, vertices=None):
    """Both E1 inequalities on every vertex and distinct vertex pair, one sequence at a time."""
    if vertices is None:
        f0 = model.states.mask(e1c.F0)
        k, xi = model.n_states, e1c.threshold
        inside = [np.eye(k)[i] for i in np.flatnonzero(f0)]
        vertices = inside + [xi * x + (1.0 - xi) * np.eye(k)[j]
                             for x in inside for j in np.flatnonzero(~f0)]
    b0_idx = [model.obs.index(a) for a in e1c.B0]
    g_viol = h_viol = 0
    min_g, max_tv = np.inf, 0.0
    for seq in itertools.product(b0_idx, repeat=e1c.N):
        product = model.stepping_matrices[seq[0]]
        for a in seq[1:]:
            product = product @ model.stepping_matrices[a]
        images = [v @ product for v in vertices]
        sums = [float(_flushed(g.sum())) for g in images]
        for s in sums:
            min_g = min(min_g, s)
            g_viol += int(s < e1c.eta - 1e-12)
        for (gx, sx), (gy, sy) in itertools.combinations(zip(images, sums), 2):
            if sx > 0 and sy > 0:
                tv = np.abs(gx / sx - gy / sy).sum()
                max_tv = max(max_tv, tv)
                h_viol += int(tv >= e1c.rho)
    return len(vertices) * (len(vertices) - 1) // 2, g_viol, h_viol, min_g, max_tv


def _reduced_products(mats, n, depth):
    """The blocks of ``contraction._sequence_products``, each product from scratch.

    The stacked left fold of ``functools.reduce`` over each block of the
    sequence array, ``len(mats)**depth`` consecutive sequences a block, as
    e1_constants formed its products before they were shared by prefix.
    """
    sequences = np.array(list(itertools.product(range(len(mats)), repeat=n)))
    for s in range(0, len(sequences), len(mats) ** depth):
        block = sequences[s:s + len(mats) ** depth]
        yield functools.reduce(np.matmul, (mats[a] for a in block.T))


class TestE1PrefixProducts:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_b0=st.integers(1, 3),
           horizon=st.integers(1, 8))
    def test_match_products_formed_from_scratch(self, seed, n_b0, horizon):
        model, f0 = _sparse_product_model(seed)
        assume(n_b0 <= model.n_obs)
        pi, _ = stationary(model)
        b0 = list(range(1, n_b0 + 1))
        cert = check_condition_P(model, pi, f0, b0)
        if not cert.ok:  # only observation 1 stays in f0: take every cell
            cert = check_condition_P(model, pi, list(range(1, model.n_states + 1)), b0)
        assume(cert.ok and cert.kappa > 1.0)
        rho = 2.0 * ((cert.kappa - 1.0) / (cert.kappa + 1.0)) ** (horizon - 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contraction, "_sequence_products", _reduced_products)
            want = e1_constants(model, pi, cert, rho=rho)
        # from blocks of one sequence to blocks of all of them, which cut the
        # prefix tree at every depth
        for e1_block in (1, 7, 64, 1 << 13):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(contraction, "_E1_BLOCK", e1_block)
                got = e1_constants(model, pi, cert, rho=rho)
            assert got.N == horizon
            assert got.verification.n_sequences == n_b0 ** horizon
            assert asdict(got.verification) == asdict(want.verification)


class TestE1Vertices:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rho=st.floats(0.02, 2.0))
    def test_vertices_bound_every_sampled_pair(self, seed, rho):
        model, f0 = _sparse_product_model(seed)
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, f0, [1])
        assume(cert.ok)
        vertex = e1_constants(model, pi, cert, rho=rho).verification
        e1c = e1_constants(model, pi, cert, rho=rho, sample_pairs=400)
        sampled = e1c.verification
        assert sampled.n_pairs == 400 and not sampled.decided
        # one sequence of the single observation in B0: always exhaustive
        assert vertex.exhaustive_sequences and vertex.n_sequences == 1
        assert vertex.decided == (vertex.min_g > 0)
        assert sampled.min_g >= vertex.min_g * (1.0 - 1e-12)
        assert sampled.max_tv <= vertex.max_tv + 1e-12
        assert vertex.g_violations > 0 or sampled.g_violations == 0
        assert vertex.h_violations > 0 or sampled.h_violations == 0
        n_pairs, *counts, min_g, max_tv = _vertex_reference(model, e1c)
        assert (vertex.n_pairs, vertex.g_violations, vertex.h_violations) == \
            (n_pairs, *counts)
        assert vertex.min_g == pytest.approx(min_g, rel=1e-12, abs=0)
        # distances of rounding size (updates that agree) differ absolutely
        assert vertex.max_tv == pytest.approx(max_tv, rel=1e-12, abs=1e-14)

    def test_block_partition_decided_beyond_the_samples(self):
        # 2^12 sequences, three unit-mass vertices; the sampled extremes lie
        # inside the vertex ones
        model = build_model(BLOCK_PARTITION)
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2, 3], [1, 2])
        vertex = e1_constants(model, pi, cert, rho=1e-4).verification
        sampled = e1_constants(model, pi, cert, rho=1e-4, sample_pairs=300).verification
        assert vertex.decided and vertex.ok and not sampled.decided
        assert (vertex.n_pairs, vertex.n_sequences) == (3, 4096)
        assert vertex.min_g <= sampled.min_g * (1.0 + 1e-12)
        assert vertex.max_tv >= sampled.max_tv - 1e-12

    @pytest.mark.parametrize("e1_block", [1, 4, 64])
    def test_small_blocks_slice_the_pairs(self, e1_block, monkeypatch):
        # F0 = {1, 2} of four cells: six vertices, 15 pairs, 2^6 sequences;
        # blocks of one sequence (four at e1_block 64), pairs by row offset
        rng = np.random.default_rng(9)
        p, q = rng.gamma(1.0, size=(4, 4)), rng.gamma(1.0, size=(4, 3))
        q[2:, :2] = 0.0
        model = product_model(p / p.sum(axis=1, keepdims=True),
                              q / q.sum(axis=1, keepdims=True))
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2], [1, 2])
        monkeypatch.setattr(contraction, "_E1_BLOCK", e1_block)
        e1c = e1_constants(model, pi, cert, rho=0.5)
        v = e1c.verification
        assert (v.n_pairs, v.n_sequences) == (15, 64) and v.decided
        n_pairs, *counts, min_g, max_tv = _vertex_reference(model, e1c)
        assert (v.n_pairs, v.g_violations, v.h_violations) == (n_pairs, *counts)
        assert v.min_g == pytest.approx(min_g, rel=1e-12, abs=0)
        assert v.max_tv == pytest.approx(max_tv, rel=1e-12, abs=1e-14)

    def test_sampled_sequences_are_not_decided(self):
        model = build_model(BLOCK_PARTITION)
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2, 3], [1, 2])
        v = e1_constants(model, pi, cert, rho=1e-4, sequence_budget=10).verification
        assert not v.exhaustive_sequences and v.n_sequences == 1000
        assert v.min_g > 0 and not v.decided

    def test_underflowing_likelihoods_are_not_decided(self):
        # kappa about 1724: N = 1388 steps, where eta and every vertex
        # likelihood underflow to 0; the floor must not overflow on the way
        model, f0 = _sparse_product_model(0)
        assert (model.n_states, model.n_obs, f0) == (5, 3, [1, 2, 3])
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, f0, [1])
        assert cert.beta0 > 1.0
        e1c = e1_constants(model, pi, cert, rho=0.4)
        v = e1c.verification
        assert e1c.N == 1388 and e1c.eta == 0.0
        assert v.min_g == 0.0 and v.ok and not v.decided
        assert json.loads(e1c.to_json())["verification"]["decided"] is False

    def test_subnormal_likelihoods_are_not_decided(self):
        # kappa about 4732: N = 3281 steps, where each vertex likelihood
        # falls to 0 or to the smallest subnormal; a mix of the vertices
        # rounds to 0 there, so none of them decides the check
        model, f0 = _sparse_product_model(24677)
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, f0, [1])
        e1c = e1_constants(model, pi, cert, rho=0.5)
        v = e1c.verification
        assert e1c.N == 3281 and e1c.eta == 0.0
        assert v.min_g == 0.0 and v.ok and not v.decided
        sampled = e1_constants(model, pi, cert, rho=0.5, sample_pairs=400).verification
        assert sampled.min_g == 0.0 and not sampled.decided

    def test_zero_likelihood_vertices_counted_like_the_loop(self, monkeypatch):
        # {1, 2} and {3} are closed classes and observation 1 is impossible
        # from state 3; a vertex set with the unit mass on 3 added has a zero
        # likelihood on every sequence, which is a violation and no decision
        model = partition_model([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]],
                                [[1, 2], [3]])
        pi, _ = stationary(model)
        cert = check_condition_P(model, pi, [1, 2], [1])
        units = np.eye(3)
        monkeypatch.setattr(contraction, "_threshold_vertices", lambda f0, xi: units)
        e1c = e1_constants(model, pi, cert, rho=0.1)
        v = e1c.verification
        want = _vertex_reference(model, e1c, list(units))
        assert (v.n_pairs, v.g_violations, v.h_violations) == want[:3]
        assert v.g_violations == v.n_sequences and v.min_g == 0.0
        assert v.max_tv == pytest.approx(want[4], rel=1e-12, abs=1e-14)
        assert v.exhaustive_sequences and not v.decided

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_b0=st.integers(1, 2),
           horizon=st.integers(1, 6))
    # every cell and two sequences, which share one block from _E1_BLOCK 64
    # on: a sum that reads the rows beside it moves max_tv in the last bit
    @example(seed=933864, n_b0=2, horizon=1)
    def test_block_size_changes_no_field(self, seed, n_b0, horizon):
        model, f0 = _sparse_product_model(seed)
        pi, _ = stationary(model)
        b0 = list(range(1, n_b0 + 1))
        cert = check_condition_P(model, pi, f0, b0)
        if not cert.ok:  # only observation 1 stays in f0: take every cell
            cert = check_condition_P(model, pi, list(range(1, model.n_states + 1)), b0)
        assume(cert.ok and cert.kappa > 1.0)
        # 2 factor**N falls below rho first at N = horizon
        rho = 2.0 * ((cert.kappa - 1.0) / (cert.kappa + 1.0)) ** (horizon - 0.5)
        for kwargs in ({}, {"sample_pairs": 40},
                       {"sample_pairs": 40, "sequence_budget": 0}):
            runs = []
            for e1_block in (1, 7, 64, 1 << 13):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(contraction, "_E1_BLOCK", e1_block)
                    runs.append(e1_constants(model, pi, cert, rho=rho, **kwargs))
            e1c = runs[0]
            v = e1c.verification
            assert e1c.N == horizon
            assert all(asdict(r.verification) == asdict(v) for r in runs[1:])
            if kwargs:
                budget = kwargs.get("sequence_budget", 10**4)
                n_pairs = 40
                n_sequences, *counts, min_g, max_tv = _reference_verification(
                    model, cert, e1c, n_pairs, budget, seed=0)
            else:
                n_sequences = n_b0 ** horizon
                n_pairs, *counts, min_g, max_tv = _vertex_reference(model, e1c)
            assert (v.n_pairs, v.n_sequences, v.g_violations, v.h_violations) == \
                (n_pairs, n_sequences, *counts)
            assert v.min_g == pytest.approx(min_g, rel=1e-12, abs=0)
            # distances of rounding size (updates that agree) differ absolutely
            assert v.max_tv == pytest.approx(max_tv, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("sample_pairs", [0, -3])
    def test_non_positive_sample_pairs_refused_before_any_work(
            self, sample_pairs, partition_fixture, monkeypatch):
        pi, _ = stationary(partition_fixture)
        cert = check_condition_P(partition_fixture, pi, [1], [1])

        def no_work(*args, **kwargs):
            raise AssertionError("e1_constants revalidated before checking its input")

        monkeypatch.setattr(contraction, "check_condition_P", no_work)
        with pytest.raises(ValueError, match="sample_pairs must be positive, or None"):
            e1_constants(partition_fixture, pi, cert, rho=0.1, sample_pairs=sample_pairs)
