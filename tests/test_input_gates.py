"""What enters the library passes one gate per kind of input.

One sign check refuses negative, NaN and infinite entries everywhere; one
subset rule reads cell ids or a boolean mask of the grid's length; one
builder makes every product-form model; and the CLI turns a bad option or an
unreadable input file into exit 64 with one line on stderr.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import filterlab
from filterlab.cli import main
from filterlab.contraction import check_condition_P, e1_constants, verify_hopf
from filterlab.coupling import (
    JointFilterMeasure,
    condition_E_estimate,
    coupled_chain,
    coupled_filter_step,
    coupled_laws,
    extremal_pair,
    product_coupling,
    vasershtein_obs_coupling,
)
from filterlab.errors import (
    BadPartition,
    CertificateInvalid,
    HypothesisViolated,
    MassMismatch,
    NegativeDensity,
    NonStochastic,
    NonStochasticEmission,
    SpaceMismatch,
    UnknownObservation,
)
from filterlab.filter import apply_T_grid, grid_averages, lipschitz_probe, mass_functional
from filterlab.lab import (
    osc_decay_report,
    simplex_grid,
    tightness_probe,
    weak_contraction_report,
)
from filterlab.measures import (
    PointMassMeasure,
    _AtomStore,
    _check_barycenter,
    barycenter_lower_bound,
    barycenter_match,
    brute_force_uniform_assignment,
    hahn_witness,
    half_mass_check,
    kantorovich,
    nearest_barycenter_distance,
)
from filterlab.model import (
    DensityVector,
    HmmModel,
    ObsSpace,
    SteppingKernel,
    StateSpace,
    _check_nonnegative,
    _check_space,
    build_model,
    load_model,
    partition_model,
    product_model,
    simulate,
    stationary,
)

from conftest import P_SYM, Q_SYM, e

BAD = [float("nan"), float("inf"), -float("inf"), -1.0]
DEMOS = Path(__file__).parents[1] / "demos" / "models"


def _with(values, bad, at=(0,)):
    out = np.array(values, dtype=float)
    out[at] = bad
    return out


class TestSignCheck:
    def test_gate_itself(self):
        # negative zero and empty arrays pass; a bad value is found when it
        # is the last of many
        for ok in (np.array([-0.0, 0.0]), np.empty(0), np.empty((0, 3))):
            _check_nonnegative(ok, NegativeDensity, "values")
        for bad in BAD:
            values = _with(np.ones((1000, 100)), bad, (-1, -1))
            with pytest.raises(NegativeDensity, match="values must be nonnegative"):
                _check_nonnegative(values, NegativeDensity, "values")

    def test_grid_weights(self):
        for bad in BAD:
            with pytest.raises(ValueError, match="positive and finite"):
                StateSpace((1, 2), [1.0, bad])
            with pytest.raises(ValueError, match="positive and finite"):
                ObsSpace((1, 2), [bad, 1.0])

    def test_density_vector(self, m2):
        for bad in BAD:
            with pytest.raises(NegativeDensity):
                DensityVector(m2.states, [bad, 1.0])
            with pytest.raises(NegativeDensity):
                DensityVector(m2.states, [0.5, bad], unnormalized=True)

    def test_stepping_kernel(self):
        for bad in BAD:
            with pytest.raises(NegativeDensity):
                SteppingKernel(1, _with([[0.5, 0.5], [0.5, 0.5]], bad, (1, 0)))

    def test_hmm_model(self, m2):
        for bad in BAD:
            with pytest.raises(NegativeDensity):
                HmmModel(m2.states, m2.obs, _with(m2.m, bad, (0, 1, 1)))

    def test_build_model_dense_and_factored(self, m2):
        for bad in BAD:
            dense = {"states": {"ids": [1, 2]}, "obs": {"ids": [1, 2]},
                     "m": {"dense": _with(m2.m, bad, (1, 0, 0)).tolist()}}
            with pytest.raises(NegativeDensity):
                build_model(dense)
            for key, base in (("p", P_SYM), ("q", Q_SYM)):
                spec = {"states": {"ids": [1, 2]}, "obs": {"ids": [1, 2]},
                        "m": {"p": P_SYM, "q": Q_SYM}}
                spec["m"][key] = _with(base, bad, (0, 1)).tolist()
                # a bad row sum may be caught first; a NaN passes no check
                with pytest.raises((NegativeDensity, NonStochastic)):
                    build_model(spec)

    def test_point_mass_measure(self, m2):
        for bad in BAD:
            with pytest.raises(NegativeDensity, match="atom weights"):
                PointMassMeasure(m2.states, [[1.0, 0.0], [0.0, 1.0]], [bad, 0.5])
            with pytest.raises(NegativeDensity, match="atom densities"):
                PointMassMeasure(m2.states, [[bad, 1.0]], [1.0])

    def test_joint_filter_measure(self, m2):
        pts = [[1.0, 0.0], [0.0, 1.0]]
        for bad in BAD:
            with pytest.raises(NegativeDensity, match="atom weights"):
                JointFilterMeasure(m2.states, pts, pts, [bad, 0.5])
            with pytest.raises(NegativeDensity, match="atom densities"):
                JointFilterMeasure(m2.states, _with(pts, bad, (1, 1)), pts, [0.5, 0.5])
            with pytest.raises(NegativeDensity, match="atom densities"):
                JointFilterMeasure(m2.states, pts, _with(pts, bad, (0, 0)), [0.5, 0.5])


class TestSubsetRule:
    def test_id_array_is_read_as_ids(self):
        x = DensityVector(StateSpace((1, 2, 3), [1.0, 1.0, 1.0]), [0.5, 0.2, 0.3])
        assert x.mass_of(np.array([1])) == x.mass_of([1]) == 0.5
        assert x.mass_of(np.array([True, False, True])) == x.mass_of([1, 3])

    def test_condition_P_takes_ids_as_list_or_array(self):
        model = load_model(DEMOS / "block_partition.json")
        pi, _ = stationary(model)
        listed = check_condition_P(model, pi, [1, 2], [1])
        assert listed.ok
        arrayed = check_condition_P(model, pi, np.array([1, 2]), np.array([1]))
        assert arrayed.to_json() == listed.to_json()

    def test_mask_of_wrong_length(self, m2):
        with pytest.raises(ValueError, match="subset mask"):
            e(m2, 1).mass_of(np.array([True, False, True]))

    def test_unknown_observation_in_coupling(self, m2):
        coupling = vasershtein_obs_coupling(m2, e(m2, 1), e(m2, 2))
        with pytest.raises(UnknownObservation):
            coupling.diagonal_mass_on([3])


# a negative horizon, at each entry point that takes one
NEGATIVE_HORIZON = {
    "grid_averages": lambda m, u, x, y: grid_averages(m, [u], np.eye(2), -1),
    "apply_T_grid": lambda m, u, x, y: apply_T_grid(m, u, np.eye(2), -1),
    "osc_decay_report": lambda m, u, x, y: osc_decay_report(m, [u], -1),
    "lipschitz_probe": lambda m, u, x, y: lipschitz_probe(m, u, -1),
    "weak_contraction_report": lambda m, u, x, y: weak_contraction_report(m, [(x, y)], -1),
    "coupled_laws": lambda m, u, x, y: list(coupled_laws(
        m, PointMassMeasure.dirac(x), PointMassMeasure.dirac(y), -1)),
    "coupled_chain": lambda m, u, x, y: coupled_chain(
        m, PointMassMeasure.dirac(x), PointMassMeasure.dirac(y), -1),
    "condition_E_estimate": lambda m, u, x, y: condition_E_estimate(m, x, 0.1, -1),
    # -2: the report's (starts, n_max + 1) array is sized from the horizon
    "tightness_probe": lambda m, u, x, y: tightness_probe(m, x, 0.1, [x], -2),
}


class TestHorizonGate:
    @pytest.mark.parametrize("call", NEGATIVE_HORIZON.values(), ids=NEGATIVE_HORIZON.keys())
    def test_negative_horizon_is_refused_by_name(self, call):
        model = load_model(DEMOS / "noisy_sensor.json")
        u = mass_functional(model, [1])
        with pytest.raises(ValueError, match="n must be nonnegative"):
            call(model, u, e(model, 1), e(model, 2))


class TestStateSpaceGate:
    # two cells, like noisy_sensor's grid, but with other cell weights
    OTHER = StateSpace((1, 2), [2.0, 0.5])

    @pytest.fixture
    def sensor(self):
        return load_model(DEMOS / "noisy_sensor.json")

    def _foreign(self):
        return DensityVector(self.OTHER, [0.2, 1.2])

    def test_coupled_filter_step(self, sensor):
        x = self._foreign()
        with pytest.raises(SpaceMismatch):
            coupled_filter_step(sensor, x, x)

    @pytest.mark.parametrize("model", ["noisy_sensor", "block_partition"])
    def test_coupled_chain(self, model):
        model = load_model(DEMOS / f"{model}.json")
        mu = PointMassMeasure.dirac(self._foreign())
        with pytest.raises(SpaceMismatch):
            coupled_chain(model, mu, mu, 2)

    def test_mass_in_ball(self, sensor):
        mu = PointMassMeasure.dirac(e(sensor, 1))
        with pytest.raises(SpaceMismatch):
            mu.mass_in_ball(self._foreign(), 0.5)

    def test_tightness_probe(self, sensor):
        with pytest.raises(SpaceMismatch):
            tightness_probe(sensor, self._foreign(), 0.5, [e(sensor, 1)], 2)


class TestProductFormBuilder:
    @pytest.mark.parametrize("blocks", [[[1], []], [[1]], [[1, 1], [2]], [[1, 2], [2]]],
                             ids=["empty", "missing", "twice-in-one", "twice-in-two"])
    def test_partition_refusals(self, blocks):
        with pytest.raises(BadPartition):
            partition_model(P_SYM, blocks)

    @staticmethod
    def _same(model, by_hand):
        assert model.states.cells == by_hand.states.cells
        assert model.obs.cells == by_hand.obs.cells
        for got, want in ((model.m, by_hand.m),
                          (model.stepping_matrices, by_hand.stepping_matrices),
                          (model.states.lambda_weights, by_hand.states.lambda_weights),
                          (model.obs.tau_weights, by_hand.obs.tau_weights)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_factored_spec_is_bit_identical(self):
        rng = np.random.default_rng(5)
        lam, tau = rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 2)
        p = rng.gamma(2.0, size=(3, 3))
        p /= (p @ lam)[:, None]
        q = rng.gamma(2.0, size=(3, 2))
        q /= (q @ tau)[:, None]
        spec = {"states": {"ids": ["a", "b", "c"], "lambda": lam.tolist()},
                "obs": {"ids": [7, 8], "tau": tau.tolist()},
                "m": {"p": p.tolist(), "q": q.tolist()}}
        by_hand = HmmModel(StateSpace(("a", "b", "c"), lam), ObsSpace((7, 8), tau),
                           p[:, :, None] * q[None, :, :])
        self._same(build_model(spec), by_hand)

    def test_partition_is_bit_identical(self):
        rng = np.random.default_rng(6)
        lam = rng.uniform(0.5, 2.0, 4)
        p = rng.gamma(2.0, size=(4, 4))
        p /= (p @ lam)[:, None]
        ids, blocks = (1, 2, 3, 4), [[2, 4], [1], [3]]
        m = np.stack([p * np.isin(ids, b)[None, :] for b in blocks], axis=2)
        by_hand = HmmModel(StateSpace(ids, lam), ObsSpace((1, 2, 3), [1.0] * 3), m)
        self._same(partition_model(p, blocks, ids, lam), by_hand)

    # a NaN row sum compares False with any tolerance; the row checks name it
    @pytest.mark.parametrize("at", [(0, 0), (1, 1)])
    def test_nan_emission_row_is_named(self, at):
        with pytest.raises(NonStochasticEmission,
                           match=f"emission row {at[0] + 1} integrates to nan"):
            product_model(P_SYM, _with(Q_SYM, float("nan"), at))

    @pytest.mark.parametrize("at", [(0, 1), (1, 0)])
    def test_nan_transition_row_is_named(self, at):
        with pytest.raises(NonStochastic, match=f"row {at[0] + 1} integrates to nan"):
            product_model(_with(P_SYM, float("nan"), at), Q_SYM)
        with pytest.raises(NonStochastic, match=f"row {at[0] + 1} integrates to nan"):
            partition_model(_with(P_SYM, float("nan"), at), [[1], [2]])


def _split():
    """Two states, observed as the state entered; F0 = {1}, B0 = {1} certifies it."""
    return partition_model(P_SYM, [[1], [2]])


def _split_pi():
    return stationary(_split())[0]


def _foreign():
    """A density on two cells, like ``_split``'s grid, with other cell weights."""
    return DensityVector(StateSpace((1, 2), [2.0, 0.5]), [0.2, 1.2])


def _dirac(cell=1):
    return PointMassMeasure.dirac(e(_split(), cell))


def _stale_e1():
    # certified under the stationary law, revalidated under a law with no mass on F0
    cert = check_condition_P(_split(), _split_pi(), [1], [1])
    return e1_constants(_split(), e(_split(), 2), cert, 0.1)


def _empty_b0():
    v = check_condition_P(_split(), _split_pi(), [1], [])
    return v.ok, v.clause, v.message


def _labels(reports):
    return [(r.mu_label, r.nu_label) for r in reports]


# each gate with the outcome it documents: an error and its message, or the
# value returned (error None)
DOCUMENTED_GATES = {
    "grid without cells": (
        lambda: StateSpace((), []), ValueError, "state space needs at least one cell"),
    "grid with duplicate ids": (
        lambda: ObsSpace((1, 1), [1.0, 1.0]), ValueError, "observation ids must be unique"),
    "grid with a weight short": (
        lambda: StateSpace((1, 2), [1.0]), ValueError, "one lambda weight per cell required"),
    "density off the simplex": (
        lambda: DensityVector(_split().states, [0.5, 0.2]), ValueError,
        "density has lambda-integral 0.7, expected 1"),
    "density of the wrong length": (
        lambda: DensityVector(_split().states, [1.0]), ValueError,
        "one density value per state cell required"),
    "density tensor shape": (
        lambda: HmmModel(StateSpace((1, 2), [1.0, 1.0]), ObsSpace((1,), [1.0]),
                         np.full((2, 2, 2), 0.25)),
        ValueError, r"density tensor must have shape .*=\(2,2,1\), got \(2, 2, 2\)"),
    "spec without dense or p and q": (
        lambda: build_model({"states": {"ids": [1, 2]}, "obs": {"ids": [1, 2]},
                             "m": {"p": P_SYM}}),
        ValueError, "m must supply either 'dense' or factored 'p'/'q'"),
    "product model shapes": (
        lambda: product_model([[1.0]], Q_SYM), ValueError,
        r"factored form needs p of shape \(\|S\|,\|S\|\), q of \(\|S\|,\|A\|\)"),
    "simulate no step": (
        lambda: simulate(_split(), e(_split(), 1), 0, seed=0), ValueError,
        "simulate requires n >= 1"),
    "simulate from another space": (
        lambda: simulate(_split(), _foreign(), 3, seed=0), SpaceMismatch,
        "initial density lives on a different state space"),
    "measure point shape": (
        lambda: PointMassMeasure(_split().states, [[1.0, 0.0, 0.0]], [1.0]), ValueError,
        r"points must have shape \(n_atoms, n_cells\)"),
    "joint measure point shape": (
        lambda: JointFilterMeasure(_split().states, [[1.0, 0.0]], [[1.0, 0.0]], [0.5, 0.5]),
        ValueError, r"points must have shape \(n_atoms, n_cells\)"),
    "kantorovich across spaces": (
        lambda: kantorovich(_dirac(), PointMassMeasure.dirac(_foreign())), SpaceMismatch,
        "measures live on different state spaces"),
    "kantorovich of zero mass": (
        lambda: kantorovich(_dirac().scaled(0.0), _dirac(2).scaled(0.0)), MassMismatch,
        "transport between zero-mass measures is undefined"),
    "barycenter_lower_bound across spaces": (
        lambda: barycenter_lower_bound(_dirac(), PointMassMeasure.dirac(_foreign())),
        SpaceMismatch, "measures live on different state spaces"),
    "barycenter_match across spaces": (
        lambda: barycenter_match(_dirac(), _foreign()), SpaceMismatch,
        "target lives on a different state space"),
    "half_mass_check of half a measure": (
        lambda: half_mass_check(_dirac().scaled(0.5), [1]), MassMismatch,
        "half-mass bound applies to probability measures"),
    "product_coupling across spaces": (
        lambda: product_coupling(_dirac(), PointMassMeasure.dirac(_foreign())),
        SpaceMismatch, "measures live on different state spaces"),
    "condition P with pi from another space": (
        lambda: check_condition_P(_split(), _foreign(), [1], [1]), SpaceMismatch,
        "pi lives on a different state space than the model"),
    "e1_constants with pi from another space": (
        lambda: e1_constants(_split(), _foreign(),
                             check_condition_P(_split(), _split_pi(), [1], [1]), 0.1),
        SpaceMismatch, "pi lives on a different state space than the model"),
    "nearest_barycenter_distance across spaces": (
        lambda: nearest_barycenter_distance(_dirac(), _foreign()), SpaceMismatch,
        "target lives on a different state space"),
    "hahn_witness across spaces": (
        lambda: hahn_witness(_dirac(), PointMassMeasure.dirac(_foreign())),
        SpaceMismatch, "measures live on different state spaces"),
    "brute_force_uniform_assignment across spaces": (
        lambda: brute_force_uniform_assignment(_dirac(), PointMassMeasure.dirac(_foreign())),
        SpaceMismatch, "measures live on different state spaces"),
    "condition P with an empty B0": (
        _empty_b0, None, (False, "2", "tau mass of B0 is zero")),
    "verify_hopf with no first-row mass in y": (
        lambda: verify_hopf([np.full((2, 2), 0.5)], [1.0, 0.0], [0.0, 0.0]),
        HypothesisViolated, "y carries no mass on the first row set"),
    "e1_constants on a certificate that no longer validates": (
        _stale_e1, CertificateInvalid,
        "certificate no longer validates: stationary mass of F0 is zero"),
    "simplex_grid on one cell": (
        lambda: simplex_grid(StateSpace((1,), [1.0])).tolist(), None, [[1.0]]),
    "condition E with a valid extra pair": (
        lambda: _labels(condition_E_estimate(_split(), _split_pi(), 0.1, 1,
                                             extra_pairs=[extremal_pair(_split_pi())[::-1]])),
        None, [("dirac(pi)", "atomized(pi)")] * 2 + [("user_mu_0", "user_nu_0")] * 2),
}


@pytest.mark.parametrize("call, error, expected", DOCUMENTED_GATES.values(),
                         ids=DOCUMENTED_GATES.keys())
def test_documented_gate(call, error, expected):
    if error is None:
        assert call() == expected
    else:
        with pytest.raises(error, match=expected):
            call()


class TestEachRuleWrittenOnce:
    """A gate is written out in the one function that owns it."""

    @staticmethod
    def _count(text):
        return sum(path.read_text().count(text)
                   for path in Path(filterlab.__file__).parent.glob("*.py"))

    def test_grid_gate(self):
        gate = ".same_as("
        assert self._count(gate) == inspect.getsource(_check_space).count(gate) == 1

    def test_barycenter_gate(self):
        raised = "raise BarycenterMismatch("
        assert self._count(raised) == inspect.getsource(_check_barycenter).count(raised) == 1

    def test_density_entry(self):
        shape = "points must have shape"
        assert self._count(shape) == inspect.getsource(_AtomStore).count(shape) == 1


def _measure_file(path, atoms):
    path.write_text(json.dumps({
        "space": {"ids": [1, 2], "lambda": [1.0, 1.0]},
        "atoms": [{"point": p, "weight": w} for p, w in atoms],
    }))
    return str(path)


class TestCliGates:
    @pytest.fixture
    def files(self, tmp_path):
        noobs = tmp_path / "noobs.json"
        noobs.write_text(json.dumps({"states": {"ids": [1, 2]},
                                     "m": {"p": P_SYM, "q": Q_SYM}}))
        return {
            "model": str(DEMOS / "noisy_sensor.json"),
            "missing": str(tmp_path / "missing.json"),
            "noobs": str(noobs),
            "dirac": _measure_file(tmp_path / "dirac.json", [([1.0, 0.0], 1.0)]),
            "off": _measure_file(tmp_path / "off.json", [([2.0, 0.0], 0.5)]),
        }

    @pytest.mark.parametrize("argv", [
        ["ergodics", "--model", "{model}", "--nmax", "0"],
        ["simulate", "--model", "{model}", "--nmax", "0"],
        ["check", "--model", "{model}", "--rho", "0"],
        ["check", "--model", "{model}", "--budget", "0"],
        ["check", "--model", "{model}", "--seed", "-1"],
        ["simulate", "--model", "{model}", "--seed", "-1"],
        ["check", "--model", "{missing}"],
        ["transport", "--mu", "{missing}", "--nu", "{dirac}"],
        ["couple", "--model", "{noobs}"],
        ["transport", "--mu", "{off}", "--nu", "{dirac}"],
    ], ids=["ergodics-nmax", "simulate-nmax", "rho", "budget", "check-seed",
            "simulate-seed", "missing-model", "missing-mu", "no-obs", "off-simplex"])
    def test_usage_errors_exit_64_on_one_line(self, argv, files, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([a.format(**files) for a in argv] + ["--out", str(out)])
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:")
        assert not out.exists()

    def test_nan_weight_exits_2_without_a_report(self, tmp_path):
        mu = _measure_file(tmp_path / "mu.json", [([1.0, 0.0], float("nan")),
                                                  ([0.0, 1.0], 0.5)])
        nu = _measure_file(tmp_path / "nu.json", [([1.0, 0.0], 1.0)])
        out = tmp_path / "out"
        assert main(["transport", "--mu", mu, "--nu", nu, "--out", str(out)]) == 2
        assert not (out / "transport.json").exists()

    def test_nan_model_exits_2(self, tmp_path):
        m = np.array(load_model(DEMOS / "noisy_sensor.json").m)
        m[0, 1, 0] = np.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"states": {"ids": [1, 2]}, "obs": {"ids": [1, 2]},
                                    "m": {"dense": m.tolist()}}))
        assert main(["simulate", "--model", str(path), "--out", str(tmp_path / "o")]) == 2
