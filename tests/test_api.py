"""The public API keeps its names and parameters.

``SIGNATURES`` records, for every name ``filterlab`` exports and for every
function the benchmark tracer binds by name, the parameter names it takes.
A name may gain parameters, but none of these may disappear.
"""

import importlib
import inspect

import pytest

import filterlab
from filterlab import filter as filter_module
from filterlab import lab, measures, model

# name -> parameter names, or None for what is not called
SIGNATURES = {
    "__version__": None,
    "contraction": None,
    "coupling": None,
    "filter": None,
    "lab": None,
    "measures": None,
    "model": None,
    "DensityVector": ("space", "values", "unnormalized"),
    "E1Certificate": ("rho", "N", "kappa", "xi", "beta", "eta", "F0", "B0", "threshold",
                      "verification"),
    "EConditionReport": ("rho", "n", "alpha_achieved", "mu_label", "nu_label",
                         "pruned_mass", "note"),
    "HmmModel": ("states", "obs", "m"),
    "JointFilterMeasure": ("space", "x_points", "y_points", "weights", "pruned_mass"),
    "LipschitzFunction": ("fn", "gamma", "sup_norm", "name"),
    "ObsCoupling": ("obs_cells", "diagonal", "off_source", "off_target", "off_mass",
                    "g_x", "g_y", "tau"),
    "ObsSpace": ("cells", "tau_weights"),
    "PCertificate": ("F0", "B0", "d0", "D0", "beta0", "F1", "pi_F0"),
    "PointMassMeasure": ("space", "points", "weights", "pruned_mass"),
    "RectSupport": ("rows", "cols"),
    "StateSpace": ("cells", "lambda_weights"),
    "SteppingKernel": ("observation", "matrix"),
    "TransportPlan": ("source", "target", "mass", "cost", "objective", "potential_source",
                      "potential_target", "marginal_residual", "slackness_residual",
                      "method"),
    "apply_T": ("model", "u", "x", "n", "budget"),
    "barycenter": ("mu",),
    "barycenter_lower_bound": ("mu", "nu"),
    "barycenter_match": ("phi", "b"),
    "build_model": ("spec",),
    "check_condition_A": ("model", "max_len", "budget"),
    "check_condition_KR": ("model", "seq", "depth"),
    "check_condition_P": ("model", "pi", "F0", "B0"),
    "compose": ("model1", "model2"),
    "condition_E_estimate": ("model", "pi", "rho", "n_max", "budget", "extra_pairs"),
    "coupled_chain": ("model", "mu", "nu", "n", "budget"),
    "coupled_filter_step": ("model", "x", "y"),
    "coupled_laws": ("model", "mu", "nu", "n_max", "budget"),
    "cross_ratio_kappa": ("kernel", "rows", "cols", "max_dense"),
    "e1_constants": ("model", "pi", "cert", "rho", "sample_pairs", "sequence_budget",
                     "seed"),
    "example_partition": ("p", "partition", "state_ids"),
    "example_product": ("p", "q", "tau_weights", "state_ids", "obs_ids"),
    "filter_laws": ("model", "x", "n_max", "prune_eps", "budget"),
    "grid_averages": ("model", "u_list", "masses_grid", "n_max"),
    "half_mass_check": ("mu", "F", "pi"),
    "hopf_bound": ("kappas",),
    "is_subrectangular": ("kernel",),
    "iterate": ("model", "n"),
    "kantorovich": ("mu", "nu"),
    "kantorovich_dual_check": ("mu", "nu", "u_samples"),
    "likelihood": ("model", "x", "a"),
    "lipschitz_probe": ("model", "u", "n", "sample_pairs", "seed"),
    "load_model": ("path",),
    "markov_kernel": ("model",),
    "mass_functional": ("model_or_space", "cells", "name"),
    "nearest_barycenter_distance": ("mu", "y"),
    "osc_decay_report": ("model", "u_list", "n_max", "grid"),
    "pushforward": ("model", "x"),
    "pushforward_n": ("model", "x", "n", "prune_eps", "budget"),
    "rectangular_support": ("kernel", "zero_tol"),
    "run_filter": ("model", "x0", "obs_seq"),
    "simulate": ("model", "x0", "n", "seed"),
    "stationary": ("model",),
    "stepping_kernel": ("model", "a"),
    "tightness_probe": ("model", "x0", "epsilon", "starts", "n_max", "budget"),
    "tv_distance": ("x", "y"),
    "update": ("model", "x", "a"),
    "vasershtein_obs_coupling": ("model", "x", "y"),
    "verify_hopf": ("kernels", "x", "y"),
    "weak_contraction_report": ("model", "pairs", "n_max", "budget", "prune_eps"),
    # bound by name in bench/tracer.py, which reads some arguments by name
    "model.stationary": ("model",),
    "model.simulate": ("model", "x0", "n", "seed"),
    "model.load_model": ("path",),
    "filter.pushforward_n": ("model", "x", "n", "prune_eps", "budget"),
    "filter.apply_T_grid": ("model", "u", "masses_grid", "n"),
    "filter.run_filter": ("model", "x0", "obs_seq"),
    "measures.PointMassMeasure.merged": ("self",),
    "measures.kantorovich": ("mu", "nu"),
    "measures.barycenter_match": ("phi", "b"),
    "coupling.condition_E_estimate": ("model", "pi", "rho", "n_max", "budget",
                                      "extra_pairs"),
    "coupling.coupled_chain": ("model", "mu", "nu", "n", "budget"),
    "coupling.coupled_filter_step": ("model", "x", "y"),
    "coupling.JointFilterMeasure.merged": ("self",),
    "contraction.check_condition_A": ("model", "max_len", "budget"),
    "contraction.check_condition_KR": ("model", "seq", "depth"),
    "contraction.check_condition_P": ("model", "pi", "F0", "B0"),
    "contraction.e1_constants": ("model", "pi", "cert", "rho", "sample_pairs",
                                 "sequence_budget", "seed"),
    "contraction.verify_hopf": ("kernels", "x", "y"),
    "lab.tightness_probe": ("model", "x0", "epsilon", "starts", "n_max", "budget"),
    "lab.barycenter_identity_check": ("model", "starts", "n_max", "budget"),
    "lab.osc_decay_report": ("model", "u_list", "n_max", "grid"),
    "lab.weak_contraction_report": ("model", "pairs", "n_max", "budget", "prune_eps"),
    "cli.main": ("argv",),
}


def _resolve(dotted):
    head, *rest = dotted.split(".")
    obj = (getattr(filterlab, head) if hasattr(filterlab, head)
           else importlib.import_module(f"filterlab.{head}"))
    for part in rest:
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_name_keeps_its_parameters(name):
    obj = _resolve(name)
    params = SIGNATURES[name]
    if params is not None:
        assert set(params) <= set(inspect.signature(obj).parameters)


def test_one_lipschitz_type():
    assert filter_module.LipschitzFunction is measures.LipschitzWitness
    assert filterlab.LipschitzFunction is measures.LipschitzFunction


def test_example_builders_are_the_model_builders():
    assert lab.example_product is model.product_model
    assert lab.example_partition is model.partition_model


def test_witness_keywords_still_construct():
    w = measures.LipschitzWitness(fn=lambda m: m.sum(axis=-1), gamma=1.0, name="total")
    assert (w.gamma, w.name, w.sup_norm) == (1.0, "total", float("inf"))
