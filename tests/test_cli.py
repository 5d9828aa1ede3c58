import json
from pathlib import Path

import numpy as np
import pytest

from filterlab import measures
from filterlab.cli import build_parser, main
from filterlab.errors import SolverFailure

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
