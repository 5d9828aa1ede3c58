import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from filterlab import measures
from filterlab.cli import build_parser, main
from filterlab.errors import SolverFailure
from filterlab.filter import update
from filterlab.model import DensityVector, load_model

from conftest import P_SYM, Q_SYM

M2_DOC = {
    "states": {"ids": [1, 2], "lambda": [1.0, 1.0]},
    "obs": {"ids": [1, 2], "tau": [1.0, 1.0]},
    "m": {"p": P_SYM, "q": Q_SYM},
}

PERIODIC_DOC = {
    "states": {"ids": [1, 2]},
    "obs": {"ids": [1]},
    "m": {"dense": [[[0.0], [1.0]], [[1.0], [0.0]]]},
}


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(M2_DOC))
    return str(path)


@pytest.fixture
def periodic_file(tmp_path):
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(PERIODIC_DOC))
    return str(path)


def _measure_doc(atoms):
    return {
        "space": {"ids": [1, 2], "lambda": [1.0, 1.0]},
        "atoms": [{"point": p, "weight": w} for p, w in atoms],
    }


class TestCheck:
    def test_m2_all_found(self, m2_file, tmp_path):
        # KR ratios decay like 0.18^n here, so the 1e-8 verdict needs n ~ 14
        out = tmp_path / "out"
        code = main(["check", "--model", m2_file, "--rho", "0.1",
                     "--nmax", "14", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "check.json").read_text())
        assert doc["condition_A"]["witness"] == [1]
        assert doc["condition_KR"]["verdict"] is True
        assert doc["condition_P"]["d0"] == pytest.approx(0.06)
        assert doc["condition_E1"]["N"] == 14
        assert doc["condition_E1"]["verification"]["g_violations"] == 0

    def test_periodic_inconclusive(self, periodic_file, tmp_path):
        out = tmp_path / "out"
        code = main(["check", "--model", periodic_file, "--nmax", "3",
                     "--out", str(out)])
        assert code == 3
        doc = json.loads((out / "check.json").read_text())
        assert doc["condition_A"]["witness"] is None

    def test_condition_A_decided(self, periodic_file, m2_file, tmp_path):
        # the periodic closure (2 patterns) is exhausted at length 3: a
        # decided "none" from --nmax 2 on, still exit 3; --nmax 1 stops first
        def condition_a(name, *args):
            assert main(["check", *args, "--out", str(tmp_path / name)]) == 3
            return json.loads((tmp_path / name / "check.json").read_text())["condition_A"]

        assert condition_a("a", "--model", periodic_file, "--nmax", "2") == \
            {"witness": None, "decided": True}
        stopped = condition_a("b", "--model", periodic_file, "--nmax", "1")
        assert stopped["decided"] is False and "max_len 1" in stopped["error"]
        stopped = condition_a("c", "--model", m2_file, "--budget", "1")
        assert stopped["decided"] is False and "budget 1" in stopped["error"]

    def test_exhaustive_check_never_imports_numpy_random(self, m2_file, tmp_path):
        # every E1 sequence enumerated and the pairs on vertices: nothing is drawn
        code = ("import sys; from filterlab.cli import main; "
                "print(main(sys.argv[1:]), 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, "check", "--model", m2_file,
                              "--nmax", "14", "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.split() == ["0", "False"]


class TestContract:
    def test_m2(self, m2_file, tmp_path):
        out = tmp_path / "out"
        assert main(["contract", "--model", m2_file, "--out", str(out)]) == 0
        doc = json.loads((out / "contract.json").read_text())
        kappas = {e["observation"]: e["kappa"] for e in doc["observations"]}
        # kappa^2 = max cross ratio of the stepping kernel entries
        assert kappas["1"] == pytest.approx(
            np.sqrt((0.56 * 0.14) / (0.24 * 0.06)))
        assert all(e["ok"] for e in doc["observations"])


class TestErgodics:
    def test_m2(self, m2_file, tmp_path):
        out = tmp_path / "out"
        code = main(["ergodics", "--model", m2_file, "--nmax", "5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "ergodics.json").read_text())
        assert doc["ergodic_evidence"] is True
        assert doc["weak_contraction_floor_ok"] is True
        assert doc["barycenter_identity_residual"] < 1e-10
        assert (out / "weak_contraction.csv").exists()
        assert (out / "osc_decay.csv").exists()


class TestTransport:
    def test_distance_and_plan(self, tmp_path):
        mu_path = tmp_path / "mu.json"
        nu_path = tmp_path / "nu.json"
        mu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 1.0)])))
        nu_path.write_text(json.dumps(_measure_doc(
            [([1.0, 0.0], 0.5), ([0.0, 1.0], 0.5)])))
        out = tmp_path / "out"
        code = main(["transport", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "transport.json").read_text())
        assert doc["distance"] == pytest.approx(1.0, abs=1e-12)
        assert doc["barycenter_lower_bound"] == pytest.approx(1.0, abs=1e-12)
        assert (out / "plan.csv").exists()

    def test_equal_mass_is_relative(self, tmp_path):
        # masses 1000 and 1000.00000001 agree within 1e-10 relative, as
        # kantorovich and every other equal-mass check in measures accept
        mu_path = tmp_path / "mu.json"
        nu_path = tmp_path / "nu.json"
        mu_path.write_text(json.dumps(_measure_doc(
            [([0.9, 0.1], 500.0), ([0.2, 0.8], 500.0)])))
        nu_path.write_text(json.dumps(_measure_doc([([0.6, 0.4], 1000.00000001)])))
        out = tmp_path / "out"
        code = main(["transport", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "transport.json").read_text())
        assert doc["barycenter_match_distance"] == pytest.approx(100.0, rel=1e-12)


class TestSimulate:
    def test_deterministic_output(self, m2_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--model", m2_file, "--nmax", "25",
                     "--seed", "5", "--out", str(out1)]) == 0
        assert main(["simulate", "--model", m2_file, "--nmax", "25",
                     "--seed", "5", "--out", str(out2)]) == 0
        assert (out1 / "simulate.csv").read_text() == \
            (out2 / "simulate.csv").read_text()
        assert (out1 / "filter_trajectory.csv").exists()

    def test_trajectory_is_the_update_chain_on_weighted_cells(self, tmp_path):
        # lambda and tau away from one, so the recursion's divisions by lambda
        # show; every CSV cell must read back to the update chain's float
        rng = np.random.default_rng(11)
        lam, tau = [0.5, 1.25, 2.0], [0.75, 1.5]
        m = rng.gamma(2.0, size=(3, 3, 2))
        m /= np.einsum("sta,t,a->s", m, lam, tau)[:, None, None]
        doc = {"states": {"ids": [1, 2, 3], "lambda": lam},
               "obs": {"ids": [1, 2], "tau": tau}, "m": {"dense": m.tolist()}}
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(path), "--nmax", "200",
                     "--seed", "3", "--out", str(out)]) == 0
        with open(out / "filter_trajectory.csv", newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["step", "observation", "1", "2", "3"]
        model = load_model(path)
        x = DensityVector.uniform(model.states)
        for k, row in enumerate(got[1:]):
            if k:
                x = update(model, x, int(row[1]))
            assert row[0] == str(k)
            assert row[2:] == [repr(v) for v in x.values.tolist()]
        assert len(got) == 202


class TestCouple:
    def test_m2_positive_alpha(self, m2_file, tmp_path):
        out = tmp_path / "out"
        code = main(["couple", "--model", m2_file, "--rho", "0.5",
                     "--nmax", "2", "--out", str(out)])
        assert code == 0
        docs = json.loads((out / "couple.json").read_text())
        alphas = {d["N"]: d["alpha"] for d in docs}
        assert alphas[1] > 0

    def test_periodic_never_couples(self, periodic_file, tmp_path):
        out = tmp_path / "out"
        code = main(["couple", "--model", periodic_file, "--rho", "0.5",
                     "--nmax", "3", "--out", str(out)])
        assert code == 3


class TestExitCodes:
    def test_violated_input_maps_to_two(self, tmp_path):
        mu_path = tmp_path / "mu.json"
        nu_path = tmp_path / "nu.json"
        mu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 1.0)])))
        nu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 0.25)])))
        code = main(["transport", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("command", ["ergodics", "couple"])
    def test_budget_exit_names_the_reason(self, command, tmp_path, capsys):
        model = Path(__file__).parents[1] / "demos/models/noisy_sensor.json"
        code = main([command, "--model", str(model), "--budget", "4",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exhausted:") and "budget 4" in err

    def test_uncertified_solve_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        def fail(mu, nu):
            raise SolverFailure("lp plan not certified: marginal residual 1")
        monkeypatch.setattr(measures, "kantorovich", fail)
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 1.0)])))
        code = main(["transport", "--mu", str(mu_path), "--nu", str(mu_path),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("solver failed: lp plan not certified")


class TestDeclaredOptions:
    # every subcommand takes exactly the options it reads
    READS = {
        "check": {"rho", "nmax", "seed", "budget"},
        "contract": set(),
        "ergodics": {"nmax", "budget"},
        "transport": set(),
        "simulate": {"nmax", "seed"},
        "couple": {"rho", "nmax", "budget"},
    }

    def test_unread_options_are_rejected(self):
        parser = build_parser()
        inputs = {"transport": ["--mu", "mu.json", "--nu", "nu.json"]}
        for command, reads in self.READS.items():
            base = [command, *inputs.get(command, ["--model", "m.json"])]
            for flag in ("rho", "nmax", "seed", "budget"):
                argv = base + [f"--{flag}", "1"]
                if flag in reads:
                    assert getattr(parser.parse_args(argv), flag) == 1
                else:
                    with pytest.raises(SystemExit):
                        parser.parse_args(argv)


class TestUsageExitCode:
    def test_usage_error_maps_to_64(self, m2_file, tmp_path):
        # 2 would read as a violated assertion
        assert main(["contract", "--model", m2_file, "--rho", "0.1",
                     "--out", str(tmp_path)]) == 64
        assert main(["contract"]) == 64

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["contract", "--help"])
        assert exc.value.code == 0


def _kappa_1724_doc(tau=1.0):
    """``_sparse_product_model(0)`` of test_contraction as a model file, its
    emissions divided by a common tau weight."""
    rng = np.random.default_rng(0)
    k, n_obs = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    f = int(rng.integers(1, k + 1))
    p = rng.gamma(1.0, size=(k, k))
    q = rng.gamma(1.0, size=(k, n_obs))
    q[f:, 0] = 0.0
    return {"states": {"ids": list(range(1, k + 1))},
            "obs": {"ids": list(range(1, n_obs + 1)), "tau": [tau] * n_obs},
            "m": {"p": (p / p.sum(axis=1, keepdims=True)).tolist(),
                  "q": (q / q.sum(axis=1, keepdims=True) / tau).tolist()}}


class TestCheckLongHorizon:
    def test_underflowing_e1_is_reported_undecided(self, tmp_path, capsys):
        # kappa about 1724 and beta0 = 3 > 1: at N = 1388 the likelihood
        # floor and every vertex likelihood underflow to 0, and the floor
        # used to overflow into a traceback on the way
        path = tmp_path / "long.json"
        path.write_text(json.dumps(_kappa_1724_doc()))
        out = tmp_path / "out"
        # an undecided E1 check proves nothing: inconclusive, not "all passed"
        assert main(["check", "--model", str(path), "--rho", "0.4", "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        e1 = json.loads((out / "check.json").read_text())["condition_E1"]
        assert e1["N"] == 1388 and e1["eta"] == 0.0
        assert e1["verification"]["decided"] is False

    def _check_exhausts_the_budget(self, doc, tmp_path, capsys, *flags):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path), *flags,
                     "--out", str(tmp_path / "out")]) == 3
        return capsys.readouterr().err

    def test_overflowing_beta_exhausts_the_budget(self, tmp_path, capsys):
        # tau weights 2 and halved emissions: tau(B0)**N = 2**1388 leaves
        # the float range
        err = self._check_exhausts_the_budget(_kappa_1724_doc(tau=2.0), tmp_path, capsys,
                                              "--rho", "0.4")
        assert err == "budget exhausted: beta = tau(B0)**N overflows at N = 1388\n"

    def test_horizon_cap_exhausts_the_budget(self, tmp_path, capsys):
        # kappa 4.5e8: at the default rho the horizon passes 10^6 steps;
        # nothing was violated, so not exit 2
        err = self._check_exhausts_the_budget({
            "states": {"ids": [1, 2]}, "obs": {"ids": [1, 2]},
            "m": {"p": [[1 - 1e-8, 1e-8], [0.5, 0.5]], "q": [[0.9, 0.1], [0.2, 0.8]]}},
            tmp_path, capsys)
        assert err == "budget exhausted: contraction horizon exceeds 1e6 steps\n"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decided_e1_exits_zero(self, seed, tmp_path):
        # i.i.d. Gamma(2) densities on 3 cells and 2 observations, rows
        # normalized: every sequence enumerated, every vertex likelihood positive
        m = np.random.default_rng([seed, 1]).gamma(2.0, size=(3, 3, 2))
        path = tmp_path / "random.json"
        path.write_text(json.dumps({
            "states": {"ids": [1, 2, 3]}, "obs": {"ids": [1, 2]},
            "m": {"dense": (m / m.sum(axis=(1, 2), keepdims=True)).tolist()}}))
        out = tmp_path / "out"
        assert main(["check", "--model", str(path), "--rho", "0.1", "--nmax", "6",
                     "--seed", str(seed), "--out", str(out)]) == 0
        e1 = json.loads((out / "check.json").read_text())["condition_E1"]
        assert e1["verification"]["decided"] is True


class TestMeasureFileMessages:
    def test_off_simplex_point_names_the_atom_and_its_integral(self, tmp_path, capsys):
        mu_path, nu_path = tmp_path / "off.json", tmp_path / "nu.json"
        mu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 0.5), ([2.0, 0.0], 0.5)])))
        nu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 1.0)])))
        out = tmp_path / "out"
        assert main(["transport", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "atoms[1] is not a normalized density" in err
        assert "lambda-integral is 2.0" in err
        assert "unnormalized=True" not in err
        assert not out.exists()

    @pytest.mark.parametrize("point, code, named", [
        ([1.5, -0.5], 2, "assertion violated: density values must be nonnegative"),
        ([0.5, 0.25, 0.25], 64, "usage error: cannot read"),
        ([1.0], 64, "usage error: cannot read"),
    ], ids=["negative", "long", "short"])
    def test_faulty_second_point_is_refused(self, point, code, named, tmp_path, capsys):
        mu_path, nu_path = tmp_path / "mu.json", tmp_path / "nu.json"
        mu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 0.5), (point, 0.5)])))
        nu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 1.0)])))
        out = tmp_path / "out"
        assert main(["transport", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(named)
        assert not out.exists()

    def test_empty_atom_list_is_named(self, tmp_path, capsys):
        mu_path, nu_path = tmp_path / "empty.json", tmp_path / "nu.json"
        mu_path.write_text(json.dumps(_measure_doc([])))
        nu_path.write_text(json.dumps(_measure_doc([([1.0, 0.0], 1.0)])))
        out = tmp_path / "out"
        assert main(["transport", "--mu", str(mu_path), "--nu", str(nu_path),
                     "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot read {mu_path}")
        assert "atoms is empty" in err
        assert "one density value per state cell" not in err
        assert not out.exists()
