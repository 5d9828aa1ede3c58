"""The benchmark's four workloads: inputs, the jobs of one pass, their checks.

A workload is built from ``--seed`` in two steps.  ``__init__`` is the set-up
a user pays: ``import filterlab`` (done by the caller) and building models
and inputs.  ``prepare()`` then computes the references every output is
checked against; it is not part of ``setup_s``.  ``jobs`` is the fixed list
of calls one pass makes, in order; each job returns the program's output and
its check raises :class:`reference.Mismatch` when the output is wrong.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import Mismatch, require

import filterlab.contraction as FC
import filterlab.coupling as FCP
import filterlab.filter as FF
import filterlab.lab as FL
import filterlab.measures as FM
import filterlab.model as FMO

NOISY_SENSOR = {
    "states": {"ids": [1, 2], "lambda": [1.0, 1.0]},
    "obs": {"ids": [1, 2], "tau": [1.0, 1.0]},
    "m": {"p": [[0.7, 0.3], [0.3, 0.7]], "q": [[0.8, 0.2], [0.2, 0.8]]},
}
BLOCK_PARTITION = {
    "states": {"ids": [1, 2, 3], "lambda": [1.0, 1.0, 1.0]},
    "obs": {"ids": [1, 2], "tau": [1.0, 1.0]},
    "m": {"dense": [[[0.5, 0.0], [0.3, 0.0], [0.0, 0.2]],
                    [[0.3, 0.0], [0.4, 0.0], [0.0, 0.3]],
                    [[0.25, 0.0], [0.25, 0.0], [0.0, 0.5]]]},
}


def random_spec(seed: int, tag: int, n_states: int, n_obs: int) -> dict:
    """Seeded model: i.i.d. Gamma(2) densities, rows normalized, counting weights.

    ``tag`` gives each model of a workload its own stream of the seed.
    """
    rng = np.random.default_rng([seed, tag])
    m = rng.gamma(2.0, size=(n_states, n_states, n_obs))
    m /= m.sum(axis=(1, 2), keepdims=True)
    return {
        "states": {"ids": list(range(1, n_states + 1)), "lambda": [1.0] * n_states},
        "obs": {"ids": list(range(1, n_obs + 1)), "tau": [1.0] * n_obs},
        "m": {"dense": m.tolist()},
    }


class Model:
    """One model as both the program and the references see it."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.program = FMO.build_model(spec)
        mm = spec["m"]
        if "dense" in mm:
            self.m = np.asarray(mm["dense"], float)
        else:
            self.m = np.asarray(mm["p"], float)[:, :, None] * np.asarray(mm["q"], float)[None]
        self.lam = np.asarray(spec["states"]["lambda"], float)
        self.tau = np.asarray(spec["obs"]["tau"], float)
        self.P = ref.markov(self.m, self.lam, self.tau)
        self.k = len(self.lam)

    def point(self, i: int) -> np.ndarray:
        x = np.zeros(self.k)
        x[i] = 1.0
        return x

    def density(self, masses) -> FMO.DensityVector:
        return FMO.DensityVector.from_masses(self.program.states, masses)

    def law(self, start, n: int):
        return ref.enumerate_law(self.m, self.lam, self.tau, start, n)

    def measure(self, start, n: int) -> FM.PointMassMeasure:
        """A filter law built by the reference enumerator, merged by components."""
        pts, w = ref.tolerance_components(*self.law(start, n))
        return FM.PointMassMeasure(self.program.states, pts / self.lam, w)


def masses_of(measure) -> np.ndarray:
    return measure.points * measure.space.lambda_weights[None, :]


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def number(cell: str) -> float:
    """A CSV cell as a float; anything but a plain number is a wrong output."""
    try:
        return float(cell)
    except ValueError:
        raise Mismatch(f"CSV cell {cell!r} is not a number") from None


def law_check(model: Model, start, n: int, points=None, weights=None):
    """Reference check of one n-step filter law, given as a PointMassMeasure."""
    if points is None:
        points, weights = model.law(start, n)
    check = ref.LawReference(points, weights, start, model.P, n)
    return lambda law: check(masses_of(law), law.weights)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None] = lambda out: None


class Workload:
    jobs: list[Job]

    def prepare(self) -> None:
        """Compute the references; not part of set-up time."""

    def once(self) -> list[Job]:
        """Operations checked once per run, outside the timed passes."""
        return []


# ---------------------------------------------------------------------------


class Laws(Workload):
    """Exact filter laws at deep horizons, with and without shared atoms."""

    def __init__(self, seed: int, workdir: Path):
        self.ns = Model(NOISY_SENSOR)
        self.bp = Model(BLOCK_PARTITION)
        self.rnd = Model(random_spec(seed, 1, 4, 3))
        rng = np.random.default_rng([seed, 2])
        self.rnd_start = rng.dirichlet(np.ones(4))
        self.grid = rng.dirichlet(np.ones(4), size=64)
        ns, bp, rnd = self.ns, self.bp, self.rnd
        self.laws = [  # (model, start masses, horizon)
            (ns, ns.point(0), 15),
            (ns, ns.point(1), 15),
            (rnd, self.rnd_start, 10),
            (bp, bp.point(0), 16),
            (bp, bp.point(2), 16),
        ]
        # tightness centre: the cell masses (1/2, 1/2, 0) that block_partition
        # reaches after observing block {3} then block {1, 2}; no atom of any
        # horizon lies within 1e-2 of the ball's edge
        self.center, self.eps = np.array([0.5, 0.5, 0.0]), 0.1
        self.tight_starts, self.tight_n = [bp.point(0), bp.point(2)], 14
        self.bary_starts, self.bary_n = [ns.point(0), ns.point(1)], 12
        self.funcs = [
            (lambda x: x[..., 0]),
            (lambda x: (x**2).sum(axis=-1)),
        ]
        self.osc_n = 6
        self.u_list = [
            FF.mass_functional(rnd.program, [1], name="mass_1"),
            FF.LipschitzFunction(fn=self.funcs[1], gamma=2.0, sup_norm=1.0, name="sq"),
        ]
        self.jobs = [self._law_job(i) for i in range(len(self.laws))] + [
            Job("tightness_probe", self._tightness, self._check_tightness),
            Job("barycenter_identity_check", self._bary, self._check_bary),
            Job("osc_decay_report", self._osc, self._check_osc),
        ]

    def _law_job(self, i):
        model, start, n = self.laws[i]
        x = model.density(start)
        return Job(f"pushforward_n[{i}]",
                   lambda: FF.pushforward_n(model.program, x, n),
                   lambda law: self.law_checks[i](law))

    def _tightness(self):
        return FL.tightness_probe(self.bp.program, self.bp.density(self.center), self.eps,
                                  [self.bp.density(s) for s in self.tight_starts],
                                  self.tight_n)

    def _bary(self):
        return FL.barycenter_identity_check(
            self.ns.program, [self.ns.density(s) for s in self.bary_starts], self.bary_n)

    def _osc(self):
        return FL.osc_decay_report(self.rnd.program, self.u_list, self.osc_n, grid=self.grid)

    def prepare(self):
        self.law_checks = [law_check(m, s, n) for m, s, n in self.laws]
        self.tight_ref = np.zeros((len(self.tight_starts), self.tight_n + 1))
        for i, s in enumerate(self.tight_starts):
            for n in range(self.tight_n + 1):
                pts, w = self.bp.law(s, n)
                d = np.abs(pts - self.center).sum(axis=1)
                require(np.abs(d - self.eps).min() > 1e-2, "tightness input is ambiguous")
                self.tight_ref[i, n] = w[d < self.eps].sum()
        self.osc_ref = np.zeros((len(self.funcs), self.osc_n + 1))
        for i, fn in enumerate(self.funcs):
            for n in range(self.osc_n + 1):
                vals = ref.averages_on_grid(self.rnd.m, self.rnd.lam, self.rnd.tau,
                                            self.grid, fn, n)
                self.osc_ref[i, n] = vals.max() - vals.min()

    def _check_tightness(self, rep):
        err = float(np.abs(rep.masses - self.tight_ref).max())
        require(err <= 1e-12, f"ball masses differ from reference by {err:g}")

    def _check_bary(self, residual):
        require(residual <= 1e-12, f"barycenter identity residual {residual:g}")

    def _check_osc(self, rep):
        err = float(np.abs(rep.oscillations - self.osc_ref).max())
        require(err <= 1e-12, f"oscillations differ from reference by {err:g}")


# ---------------------------------------------------------------------------


class Transport(Workload):
    """Transport solves between filter laws the benchmark enumerates itself."""

    # The LP pairs come from models drawn with fixed generator seeds, not
    # from --seed: on seeded pairs the LP path misses its own certificate for
    # a seed-dependent share of inputs (about 1 in 100 pairs at 81 atoms a
    # side, 1 in 4 at 243; see CHANGES.md), and every run must attempt the
    # same operations with the same outcome.  LP_SEED gives pairs the LP path
    # certifies; FAULT_SEED gives one 243-atom pair on which it fails every
    # time (marginal residual 8.4e-8 against MARGINAL_TOL 1e-10), so that this
    # fault counts in ``failed`` until it is mended.
    LP_SEED, FAULT_SEED = 2, 3

    def __init__(self, seed: int, workdir: Path):
        ns = Model(NOISY_SENSOR)
        r23 = Model(random_spec(seed, 1, 2, 3))
        r33 = Model(random_spec(self.LP_SEED, 3, 3, 3))
        r43 = Model(random_spec(self.LP_SEED, 5, 4, 3))
        fault = Model(random_spec(self.FAULT_SEED, 3, 3, 3))

        def laws(mod, n, *starts):
            return [mod.measure(mod.point(i), n) for i in starts]

        self.pairs = [  # two cells: monotone path; three and four cells: LP
            ("noisy_sensor n=11 e1-e2", *laws(ns, 11, 0, 1)),
            ("random 2x3 n=7 e1-e2", *laws(r23, 7, 0, 1)),
        ]
        for name, mod, n, pairs in (("fixed 3x3", r33, 5, [(0, 1), (1, 2)]),
                                    ("fixed 4x3", r43, 4,
                                     list(itertools.combinations(range(4), 2)))):
            pts = laws(mod, n, *range(mod.k))
            self.pairs += [(f"{name} n={n} e{i + 1}-e{j + 1}", pts[i], pts[j])
                           for i, j in pairs]
        self.pairs.append(("fault 3x3 n=5 e1-e2", *laws(fault, 5, 0, 1)))
        self.moves = [  # nearest_barycenter_distance(mu, barycenter of nu)
            ("noisy_sensor n=10 e1-e2", *laws(ns, 10, 0, 1)),
            ("fixed 4x3 n=4 e1-e4", *laws(r43, 4, 0, 3)),
        ]
        self.jobs = [Job(f"kantorovich[{name}]", self._kant(mu, nu), self._check_kant(mu, nu))
                     for name, mu, nu in self.pairs]
        self.jobs += [Job(f"nearest_barycenter_distance[{name}]", self._move(mu, nu),
                          self._check_move(mu, nu))
                      for name, mu, nu in self.moves]

    @staticmethod
    def _kant(mu, nu):
        return lambda: FM.kantorovich(mu, nu)

    @staticmethod
    def _check_kant(mu, nu):
        def check(out):
            distance, plan = out
            ref.check_transport(masses_of(mu), mu.weights, masses_of(nu), nu.weights,
                                distance, plan.source, plan.target, plan.mass,
                                plan.potential_source, plan.potential_target)
        return check

    @staticmethod
    def _move(mu, nu):
        y = FMO.DensityVector(nu.space, FM.barycenter(nu).values / nu.total_mass)
        return lambda: FM.nearest_barycenter_distance(mu, y)

    @staticmethod
    def _check_move(mu, nu):
        target = nu.weights @ masses_of(nu) / nu.total_mass * mu.total_mass

        def check(out):
            psi, achieved = out
            ref.check_barycenter_move(masses_of(mu), mu.weights, masses_of(psi), psi.weights,
                                      target, achieved)
        return check


# ---------------------------------------------------------------------------


class Certify(Workload):
    """The condition pipeline per model: stationary law to coupled closeness."""

    # (name, B0 as observation indices, rho for E1, rho and horizon for the
    #  coupled-closeness estimate)
    PLAN = [
        ("noisy_sensor", [0], 0.1, 0.05, 7),
        ("block_partition", [0, 1], 1e-4, 0.05, 7),
        ("random 3x2", [0], 0.05, 0.05, 6),
    ]
    A_LEN, KR_DEPTH = 6, 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.models = [Model(NOISY_SENSOR), Model(BLOCK_PARTITION),
                       Model(random_spec(seed, 1, 3, 2))]
        self.pi, self.cert = {}, {}
        self.jobs = []
        for i, (name, *_rest) in enumerate(self.PLAN):
            self.jobs += [
                Job(f"stationary[{name}]", self._stationary(i), self._check_stationary(i)),
                Job(f"check_condition_A[{name}]", self._cond_a(i), self._check_a(i)),
                Job(f"check_condition_KR[{name}]", self._cond_kr(i), self._check_kr(i)),
                Job(f"check_condition_P[{name}]", self._cond_p(i), self._check_p(i)),
                Job(f"e1_constants[{name}]", self._e1(i), self._check_e1(i)),
                Job(f"condition_E_estimate[{name}]", self._cond_e(i), self._check_e(i)),
            ]

    def _f0(self, i):
        return np.ones(self.models[i].k, bool)

    def _b0(self, i):
        return [self.models[i].program.obs.cells[a] for a in self.PLAN[i][1]]

    def prepare(self):
        self.pi_ref = [ref.stationary_direct(m.P) for m in self.models]
        self.a_ref = [ref.shortest_rectangular(m.m, m.lam, self.A_LEN) for m in self.models]
        self.p_ref = [ref.block_certificate(m.m, m.lam, self.pi_ref[i], self._f0(i),
                                            self.PLAN[i][1])
                      for i, m in enumerate(self.models)]

    # each job reads what the previous job of its model produced in this pass
    def _stationary(self, i):
        def run():
            out = FMO.stationary(self.models[i].program)
            self.pi[i] = out[0]
            return out
        return run

    def _check_stationary(self, i):
        def check(out):
            err = float(np.abs(out[0].masses - self.pi_ref[i]).sum())
            require(err <= 1e-9, f"stationary law differs from direct solve by {err:g}")
        return check

    def _cond_a(self, i):
        return lambda: FC.check_condition_A(self.models[i].program, max_len=self.A_LEN)

    def _check_a(self, i):
        def check(witness):
            cells = self.models[i].program.obs.cells
            want = self.a_ref[i]
            want = None if want is None else tuple(cells[a] for a in want)
            require(witness == want, f"condition A witness {witness} != reference {want}")
        return check

    def _cond_kr(self, i):
        return lambda: FC.check_condition_KR(self.models[i].program, depth=self.KR_DEPTH)

    def _check_kr(self, i):
        def check(rep):
            cells = self.models[i].program.obs.cells
            idx = [cells.index(a) for a in rep.sequence]
            require(len(idx) == self.KR_DEPTH, "rank-one probe stopped early")
            want = ref.sigma_ratios(self.models[i].m, self.models[i].lam, idx)
            err = float(np.abs(np.asarray(rep.ratios) - want).max())
            require(err <= 1e-9, f"singular value ratios differ by {err:g}")
        return check

    def _cond_p(self, i):
        def run():
            cert = FC.check_condition_P(self.models[i].program, self.pi[i], self._f0(i),
                                        self._b0(i))
            self.cert[i] = cert
            return cert
        return run

    def _check_p(self, i):
        def check(cert):
            require(cert.ok, f"block certificate refused: {getattr(cert, 'message', '')}")
            want = self.p_ref[i]
            for key in ("d0", "D0", "beta0"):
                got = getattr(cert, key)
                require(abs(got - want[key]) <= 1e-12 * want[key], f"{key} {got!r} != "
                        f"{want[key]!r}")
            require(abs(cert.pi_F0 - want["pi_F0"]) <= 1e-9, "pi(F0) differs")
        return check

    def _e1(self, i):
        rho = self.PLAN[i][2]
        return lambda: FC.e1_constants(self.models[i].program, self.pi[i], self.cert[i],
                                       rho=rho, seed=self.seed)

    def _check_e1(self, i):
        def check(e1):
            m = self.models[i]
            want = ref.closeness_constants(self.p_ref[i], float(m.tau[self.PLAN[i][1]].sum()),
                                           self.PLAN[i][2])
            require(e1.N == want["N"], f"horizon {e1.N} != {want['N']}")
            for key in ("kappa", "xi", "beta", "eta"):
                got = getattr(e1, key)
                require(abs(got - want[key]) <= 1e-9 * abs(want[key]),
                        f"{key} {got!r} != {want[key]!r}")
            v = e1.verification
            require(v.g_violations == 0 and v.h_violations == 0,
                    f"E1 verification found {v.g_violations} + {v.h_violations} violations")
            if v.exhaustive_sequences:
                require(v.n_sequences == len(self.PLAN[i][1]) ** e1.N, "sequence count")
        return check

    def _cond_e(self, i):
        _, _, _, rho, n_max = self.PLAN[i]
        return lambda: FCP.condition_E_estimate(self.models[i].program, self.pi[i], rho,
                                                n_max)

    def _alpha0(self, i):
        pi, rho = self.pi_ref[i], self.PLAN[i][3]
        tv = np.abs(np.eye(len(pi)) - pi[None, :]).sum(axis=1)
        return float(pi[tv < rho].sum())

    def _check_e(self, i):
        def check(reports):
            n_max = self.PLAN[i][4]
            require([r.n for r in reports] == list(range(n_max + 1)), "horizons")
            alpha = np.array([r.alpha_achieved for r in reports])
            require(((alpha >= 0) & (alpha <= 1 + 1e-12)).all(), "alpha outside [0, 1]")
            require(abs(alpha[0] - self._alpha0(i)) <= 1e-12, "alpha at n = 0")
            require(all(r.pruned_mass == 0 for r in reports), "mass was pruned")
        return check

    def once(self):
        jobs = []
        for i, m in enumerate(self.models):
            n = self.PLAN[i][4]
            pi = self.pi_ref[i]
            mu, nu = FCP.extremal_pair(m.density(pi))
            x_ref = law_check(m, pi, n)
            y_ref = law_check(m, pi, n, *ref.mixture_law(m.m, m.lam, m.tau, np.eye(m.k), pi, n))

            def check(joint, x_ref=x_ref, y_ref=y_ref):
                x_ref(joint.marginal_x())
                y_ref(joint.marginal_y())

            jobs.append(Job(f"coupled_chain[{self.PLAN[i][0]}]",
                            lambda m=m, mu=mu, nu=nu, n=n: FCP.coupled_chain(m.program, mu,
                                                                             nu, n),
                            check))
        return jobs


# ---------------------------------------------------------------------------


@dataclass
class Child:
    """A finished child process with what the kernel accounted to it."""

    returncode: int
    child_cpu_s: float
    maxrss_kb: int
    trace: dict


class Cli(Workload):
    """Each subcommand as a user runs it: one ``python -m filterlab.cli`` at a time."""

    SIM_STEPS = 10_000
    # simulate's output fails its check on every input (its CSV cells read
    # np.float64(...)), so its input does not depend on --seed
    SIM_SEED = 0

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.seed, self.dir, self.traced = seed, workdir, traced
        self.ns = Model(NOISY_SENSOR)
        self.rnd = Model(random_spec(seed, 1, 3, 2))
        self.mu = self.ns.measure(self.ns.point(0), 9)
        self.nu = self.ns.measure(self.ns.point(1), 9)
        workdir.mkdir(parents=True, exist_ok=True)
        for name, spec in (("noisy_sensor", NOISY_SENSOR), ("random", self.rnd.spec)):
            (workdir / f"{name}.json").write_text(json.dumps(spec))
        for name, meas in (("mu", self.mu), ("nu", self.nu)):
            doc = {"space": {"ids": list(meas.space.cells),
                             "lambda": meas.space.lambda_weights.tolist()},
                   "atoms": [{"point": p.tolist(), "weight": float(w)}
                             for p, w in zip(meas.points, meas.weights)]}
            (workdir / f"{name}.json").write_text(json.dumps(doc))
        d = str(workdir)
        self.commands = [
            ("check", ["--model", f"{d}/random.json", "--rho", "0.1", "--nmax", "6",
                       "--seed", str(seed)], self._check_check),
            ("contract", ["--model", f"{d}/random.json"], self._check_contract),
            ("ergodics", ["--model", f"{d}/noisy_sensor.json", "--nmax", "8"],
             self._check_ergodics),
            ("transport", ["--mu", f"{d}/mu.json", "--nu", f"{d}/nu.json"],
             self._check_transport),
            ("simulate", ["--model", f"{d}/noisy_sensor.json", "--nmax", str(self.SIM_STEPS),
                          "--seed", str(self.SIM_SEED)], self._check_simulate),
            ("couple", ["--model", f"{d}/noisy_sensor.json", "--rho", "0.05", "--nmax", "6"],
             self._check_couple),
        ]
        self.jobs = [Job(f"cli {name}", self._launch(name, args), self._exited_ok(name, check))
                     for name, args, check in self.commands]

    def out(self, name) -> Path:
        return self.dir / f"out-{name}"

    def _launch(self, name, args):
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        trace_file = self.dir / f"trace-{name}.json"
        err_file = self.dir / f"stderr-{name}.txt"
        if self.traced:
            argv = [sys.executable, str(here / "cli_child.py"), str(trace_file)]
        else:
            argv = [sys.executable, "-m", "filterlab.cli"]
        argv += [name, *args, "--out", str(self.out(name))]

        def run():
            with open(err_file, "w") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            trace = {}
            if self.traced and trace_file.exists():
                trace = json.loads(trace_file.read_text())
                trace_file.unlink()
                trace["cli.process_s"] = wall - trace.pop("cli.main.total_s", 0.0)
            return Child(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                         trace)
        return run

    def _exited_ok(self, name, check):
        """Every command here must exit 0: all assertions passed (cli docstring)."""
        def checked(child):
            require(child.returncode == 0, f"exit code {child.returncode}, want 0: "
                    f"{(self.dir / f'stderr-{name}.txt').read_text()[-300:]}")
            check(child)
        return checked

    def prepare(self):
        ns, rnd = self.ns, self.rnd
        self.pi_ns = ref.stationary_direct(ns.P)
        self.pi_rnd = ref.stationary_direct(rnd.P)
        self.a_rnd = ref.shortest_rectangular(rnd.m, rnd.lam, 6)
        self.p_rnd = ref.block_certificate(rnd.m, rnd.lam, self.pi_rnd, np.ones(3, bool), [0])
        self.e1_rnd = ref.closeness_constants(self.p_rnd, 1.0, 0.1)
        K = ref.stepping(rnd.m, rnd.lam)
        self.kappa_rnd = [ref.cross_ratio_kappa(k) for k in K]
        (p1, w1), (p2, w2) = ns.law(ns.point(0), 8), ns.law(ns.point(1), 8)
        self.wc_ref = ref.cdf_distance(p1[:, 0], w1, p2[:, 0], w2)
        mu_m, nu_m = masses_of(self.mu), masses_of(self.nu)
        self.dist_ref = ref.cdf_distance(mu_m[:, 0], self.mu.weights, nu_m[:, 0], self.nu.weights)
        self.gap_ref = float(np.abs(self.mu.weights @ mu_m - self.nu.weights @ nu_m).sum())
        self.alpha0_ns = float(self.pi_ns[np.abs(np.eye(2) - self.pi_ns).sum(axis=1) < 0.05].sum())

    def _json(self, name, file):
        return json.loads((self.out(name) / file).read_text())

    def _check_check(self, _):
        doc = self._json("check", "check.json")
        err = float(np.abs(np.asarray(doc["stationary"]) - self.pi_rnd).sum())
        require(err <= 1e-9, f"stationary law differs from direct solve by {err:g}")
        want = [self.rnd.program.obs.cells[a] for a in self.a_rnd]
        require(doc["condition_A"]["witness"] == want, "condition A witness")
        cp = doc["condition_P"]
        for key in ("d0", "D0", "beta0"):
            require(abs(cp[key] - self.p_rnd[key]) <= 1e-12 * self.p_rnd[key],
                    f"condition P {key}")
        e1 = doc["condition_E1"]
        require(e1["N"] == self.e1_rnd["N"], "E1 horizon")
        for key in ("kappa", "xi", "beta", "eta"):
            require(abs(e1[key] - self.e1_rnd[key]) <= 1e-9 * abs(self.e1_rnd[key]), key)
        v = e1["verification"]
        require(v["g_violations"] == 0 and v["h_violations"] == 0, "E1 violations")

    def _check_contract(self, _):
        doc = self._json("contract", "contract.json")
        require(len(doc["observations"]) == len(self.kappa_rnd), "one entry per observation")
        for entry, kappa in zip(doc["observations"], self.kappa_rnd):
            require(entry["rectangular"] and entry["ok"], f"observation {entry['observation']}")
            require(abs(entry["kappa"] - kappa) <= 1e-9 * kappa, "kappa")
            bound = 2.0 * (kappa - 1.0) / (kappa + 1.0)
            require(abs(entry["bound"] - bound) <= 1e-9, "contraction bound")
            require(entry["achieved"] <= entry["bound"] + 1e-12, "achieved above bound")

    def _check_ergodics(self, _):
        doc = self._json("ergodics", "ergodics.json")
        err = float(np.abs(np.asarray(doc["stationary"]) - self.pi_ns).sum())
        require(err <= 1e-9, "stationary law")
        require(doc["ergodic_evidence"] is True, "noisy_sensor reported not ergodic")
        require(doc["weak_contraction_floor_ok"] is True, "distance below barycenter floor")
        require(abs(doc["final_distance"] - self.wc_ref) <= 1e-9,
                f"distance at n=8 {doc['final_distance']!r} != closed form {self.wc_ref!r}")
        require(doc["osc_monotone"] is True, "oscillations not monotone")
        require(doc["barycenter_identity_residual"] <= 1e-12, "barycenter identity")
        # the float columns of the CSVs are not read here: they carry the fault
        # the simulate job counts (CSV cells written as np.float64(...))
        rows = read_csv(self.out("ergodics") / "weak_contraction.csv")
        require([(r["pair"], r["n"]) for r in rows] == [("0", str(n)) for n in range(1, 9)],
                "weak contraction rows")
        rows = read_csv(self.out("ergodics") / "osc_decay.csv")
        require([r["n"] for r in rows] == [str(n) for n in range(9)], "osc decay rows")

    def _check_transport(self, _):
        doc = self._json("transport", "transport.json")
        require(doc["method"] == "monotone", "two-cell transport left the monotone path")
        require(abs(doc["distance"] - self.dist_ref) <= 1e-9, "distance != closed form")
        require(doc["marginal_residual"] <= 1e-10 and doc["slackness_residual"] <= 1e-9,
                "certificate residuals above the documented tolerances")
        require(abs(doc["barycenter_lower_bound"] - self.gap_ref) <= 1e-12, "barycenter gap")
        require(abs(doc["barycenter_match_distance"] - self.gap_ref) <= 1e-9,
                "barycenter match distance")
        rows = read_csv(self.out("transport") / "plan.csv")
        i = np.array([int(r["i"]) for r in rows])
        j = np.array([int(r["j"]) for r in rows])
        m, n = self.mu.n_atoms, self.nu.n_atoms
        require(len(rows) <= m + n - 1, f"monotone plan has {len(rows)} arcs > m + n - 1")
        require(i.min() >= 0 and i.max() < m and j.min() >= 0 and j.max() < n,
                "plan indexes atoms that do not exist")
        require(len(np.unique(i)) == m and len(np.unique(j)) == n, "plan misses atoms")

    def _check_simulate(self, _):
        rows = read_csv(self.out("simulate") / "simulate.csv")
        require(len(rows) == self.SIM_STEPS + 1, "path length")
        cells = [int(r["state"]) - 1 for r in rows]
        obs = [int(r["observation"]) - 1 for r in rows[1:]]
        require((self.ns.m[cells[:-1], cells[1:], obs] > 0).all(), "impossible transition")
        rows = read_csv(self.out("simulate") / "filter_trajectory.csv")
        require(len(rows) == self.SIM_STEPS + 1, "trajectory length")
        traj = np.array([[number(r["1"]), number(r["2"])] for r in rows])
        want = ref.bayes_path(self.ns.m, self.ns.lam, np.full(2, 0.5), obs) / self.ns.lam
        err = float(np.abs(traj - want).max())
        require(err <= 1e-12, f"filter states differ from the Bayes recursion by {err:g}")

    def _check_couple(self, _):
        doc = self._json("couple", "couple.json")
        require([r["N"] for r in doc] == list(range(7)), "horizons")
        alpha = np.array([r["alpha"] for r in doc])
        require(((alpha >= 0) & (alpha <= 1 + 1e-12)).all(), "alpha outside [0, 1]")
        require(abs(alpha[0] - self.alpha0_ns) <= 1e-12, "alpha at n = 0")
        require(alpha.max() > 0, "no positive alpha")


WORKLOADS = {"laws": Laws, "transport": Transport, "certify": Certify, "cli": Cli}
