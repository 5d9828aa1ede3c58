"""Batch command-line interface.

Subcommands: ``check`` (condition checkers on a model file), ``contract``
(contraction certificates), ``ergodics`` (stationary analysis, filter-law
merging, oscillation decay), ``transport`` (exact distance and barycenter
matching between measure files), ``simulate`` (sample paths), ``couple``
(coupled-closeness evidence).

Exit codes: 0 all assertions passed, 2 an assertion was violated,
3 inconclusive or budget exhausted, 64 a usage error (``EX_USAGE``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import contraction, coupling, lab, measures
from .errors import BudgetExceeded, FilterlabError, SolverFailure
from .filter import ENUMERATION_BUDGET, mass_functional, run_filter
from .model import (DensityVector, StateSpace, _write_csv, load_model, simulate,
                    stationary)

OK, VIOLATED, INCONCLUSIVE, USAGE = 0, 2, 3, 64


def _load_measure(path) -> measures.PointMassMeasure:
    with open(path) as fh:
        doc = json.load(fh)
    sp = doc["space"]
    space = StateSpace(sp["ids"], sp.get("lambda", [1.0] * len(sp["ids"])))
    pts = [a["point"] for a in doc["atoms"]]
    ws = [a["weight"] for a in doc["atoms"]]
    return measures.PointMassMeasure(space, np.asarray(pts, dtype=float), ws)


def _write_json(out: Path, name: str, payload) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return path


def cmd_check(args) -> int:
    model = load_model(args.model)
    pi, erg = stationary(model)
    payload = {"stationary": list(pi.values), "ergodic_evidence": erg.ergodic}
    status = OK
    try:
        witness = contraction.check_condition_A(model, max_len=args.nmax,
                                                budget=args.budget)
    except BudgetExceeded as exc:
        payload["condition_A"] = {"error": str(exc), "decided": False}
        status = INCONCLUSIVE
    else:
        # a null witness is decided too: the support closure was exhausted
        payload["condition_A"] = {"witness": witness, "decided": True}
        if witness is None:
            status = INCONCLUSIVE
    kr = contraction.check_condition_KR(model, depth=args.nmax)
    payload["condition_KR"] = {
        "sequence": kr.sequence, "ratios": list(kr.ratios),
        "verdict": kr.verdict, "rate": kr.rate,
    }
    cert = None
    for a_idx, a in enumerate(model.obs.cells):
        f0 = model.m[:, :, a_idx].max(axis=0) > 0
        res = contraction.check_condition_P(model, pi, f0, [a])
        if res.ok:
            cert = res
            break
    if cert is None:
        payload["condition_P"] = {"certificate": None}
        status = max(status, INCONCLUSIVE)
    else:
        payload["condition_P"] = json.loads(cert.to_json())
        e1 = contraction.e1_constants(model, pi, cert, rho=args.rho,
                                      seed=args.seed)
        payload["condition_E1"] = json.loads(e1.to_json())
        if not e1.verification.ok:
            status = VIOLATED
    _write_json(Path(args.out), "check.json", payload)
    return status


def cmd_contract(args) -> int:
    model = load_model(args.model)
    payload = {"observations": []}
    status = OK
    for a in model.obs.cells:
        kernel = model.stepping_matrix(a)
        sup = contraction.rectangular_support(kernel)
        entry = {"observation": str(a), "rectangular": sup is not None}
        if sup is not None:
            kappa = contraction.cross_ratio_kappa(kernel, sup.rows, sup.cols)
            entry["kappa"] = kappa
            entry["bound"] = contraction.hopf_bound([kappa])
            x = np.zeros(model.n_states)
            y = np.zeros(model.n_states)
            x[sup.rows[0]] = 1.0
            y[sup.rows[-1]] = 1.0
            try:
                check = contraction.verify_hopf([kernel], x, y)
                entry["achieved"] = check.achieved
                entry["ok"] = check.ok
            except FilterlabError as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
                status = VIOLATED
        payload["observations"].append(entry)
    if not any(e["rectangular"] for e in payload["observations"]):
        status = max(status, INCONCLUSIVE)
    _write_json(Path(args.out), "contract.json", payload)
    return status


def cmd_ergodics(args) -> int:
    model = load_model(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pi, erg = stationary(model)
    e1v = DensityVector.point_mass(model.states, model.states.cells[0])
    e2v = DensityVector.point_mass(model.states, model.states.cells[-1])
    status = OK
    wc = lab.weak_contraction_report(model, [(e1v, e2v)], n_max=args.nmax,
                                     budget=args.budget)
    wc.to_csv(out / "weak_contraction.csv")
    u = mass_functional(model, [model.states.cells[0]])
    osc = lab.osc_decay_report(model, [u], n_max=min(args.nmax, 8))
    osc.to_csv(out / "osc_decay.csv")
    residual = lab.barycenter_identity_check(model, [e1v, e2v],
                                             n_max=min(args.nmax, 6),
                                             budget=args.budget)
    payload = {
        "stationary": list(pi.values),
        "ergodic_evidence": erg.ergodic,
        "sup_tv": list(erg.sup_tv[:20]),
        "weak_contraction_floor_ok": wc.floor_ok,
        "final_distance": float(wc.distances[0, -1]),
        "osc_monotone": osc.monotone_ok,
        "osc_decay_detected": osc.decay_detected,
        "barycenter_identity_residual": residual,
    }
    if not wc.floor_ok or not osc.monotone_ok or residual > 1e-10:
        status = VIOLATED
    _write_json(out, "ergodics.json", payload)
    return status


def cmd_transport(args) -> int:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    out = Path(args.out)
    distance, plan = measures.kantorovich(mu, nu)
    out.mkdir(parents=True, exist_ok=True)
    plan.to_csv(out / "plan.csv")
    floor = measures.barycenter_lower_bound(mu, nu)
    psi, achieved = measures.nearest_barycenter_distance(
        mu, DensityVector(nu.space, measures.barycenter(nu).values / nu.total_mass)
    )
    payload = {
        "distance": distance,
        "method": plan.method,
        "marginal_residual": plan.marginal_residual,
        "slackness_residual": plan.slackness_residual,
        "barycenter_lower_bound": floor,
        "barycenter_match_distance": achieved,
    }
    status = OK
    if floor > distance + 1e-9 or abs(achieved - floor) > 1e-9:
        status = VIOLATED
    _write_json(out, "transport.json", payload)
    return status


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    x0 = DensityVector.uniform(model.states)
    path = simulate(model, x0, n=args.nmax, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "simulate.csv", "step,state,observation",
               zip(range(len(path.states)), path.states, ["", *path.observations]))
    traj = run_filter(model, x0, path.observations)
    traj.to_csv(out / "filter_trajectory.csv")
    return OK


def cmd_couple(args) -> int:
    model = load_model(args.model)
    pi, _ = stationary(model)
    reports = coupling.condition_E_estimate(model, pi, rho=args.rho, n_max=args.nmax,
                                            budget=args.budget)
    payload = [json.loads(r.to_json()) for r in reports]
    _write_json(Path(args.out), "couple.json", payload)
    best = coupling.first_positive_alpha(reports)
    return OK if best is not None else INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filterlab",
        description="certify filter ergodicity machinery on grid models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {"rho": dict(type=float, default=0.1), "nmax": dict(type=int, default=6),
               "seed": dict(type=int, default=0),
               "budget": dict(type=int, default=ENUMERATION_BUDGET,
                              help="rows a search may hold; checked before each step")}

    def command(name, handler, summary, *flags, inputs=("model",)):
        # each subcommand declares only the options it reads
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True, help=f"{flag} JSON file")
        for flag in flags:
            p.add_argument(f"--{flag}", **options[flag])
        p.add_argument("--out", default=".", help="output directory")

    command("check", cmd_check, "run condition checkers", "rho", "nmax", "seed", "budget")
    command("contract", cmd_contract, "contraction certificates")
    command("ergodics", cmd_ergodics, "stationary + merging + oscillation", "nmax",
            "budget")
    command("transport", cmd_transport, "distance between measure files",
            inputs=("mu", "nu"))
    command("simulate", cmd_simulate, "sample a path and filter it", "nmax", "seed")
    command("couple", cmd_couple, "coupled-closeness evidence", "rho", "nmax", "budget")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a violated assertion
        if exc.code == 2:
            return USAGE
        raise
    try:
        return args.handler(args)
    except (BudgetExceeded, SolverFailure) as exc:
        # a spent budget or a solve that missed its certificate decides nothing
        kind = "budget exhausted" if isinstance(exc, BudgetExceeded) else "solver failed"
        print(f"{kind}: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except FilterlabError as exc:
        print(f"assertion violated: {exc}", file=sys.stderr)
        return VIOLATED


if __name__ == "__main__":
    sys.exit(main())
