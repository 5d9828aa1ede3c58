"""filterlab: exact filtering processes on grid HMMs and their certification.

The package is organized around six concerns:

- :mod:`filterlab.model`: HMMs with densities on finite weighted grids,
  composition and iteration, stationary analysis, simulation;
- :mod:`filterlab.filter`: likelihoods, Bayes updates, exact filter-law
  pushforwards, the averaging operator and its smoothing probes;
- :mod:`filterlab.measures`: total-variation geometry, finitely supported
  measures on the simplex, exact transport distances, barycenter matching;
- :mod:`filterlab.coupling`: maximal-diagonal observation couplings, coupled
  filter chains, coupled-closeness evidence;
- :mod:`filterlab.contraction`: cross-ratio contraction certificates for
  kernel products and the condition checkers built on them;
- :mod:`filterlab.lab`: end-to-end experiments, worked example builders,
  and the report objects behind the CLI.
"""

from . import contraction, coupling, filter, lab, measures, model
from .contraction import (
    E1Certificate,
    PCertificate,
    RectSupport,
    check_condition_A,
    check_condition_KR,
    check_condition_P,
    cross_ratio_kappa,
    e1_constants,
    hopf_bound,
    is_subrectangular,
    rectangular_support,
    verify_hopf,
)
from .coupling import (
    EConditionReport,
    JointFilterMeasure,
    ObsCoupling,
    condition_E_estimate,
    coupled_chain,
    coupled_filter_step,
    coupled_laws,
    vasershtein_obs_coupling,
)
from .filter import (
    LipschitzFunction,
    apply_T,
    filter_laws,
    grid_averages,
    likelihood,
    lipschitz_probe,
    mass_functional,
    pushforward,
    pushforward_n,
    run_filter,
    update,
)
from .lab import (
    example_partition,
    example_product,
    osc_decay_report,
    tightness_probe,
    weak_contraction_report,
)
from .measures import (
    PointMassMeasure,
    TransportPlan,
    barycenter,
    barycenter_lower_bound,
    barycenter_match,
    half_mass_check,
    kantorovich,
    kantorovich_dual_check,
    nearest_barycenter_distance,
    tv_distance,
)
from .model import (
    DensityVector,
    HmmModel,
    ObsSpace,
    StateSpace,
    SteppingKernel,
    build_model,
    compose,
    iterate,
    load_model,
    markov_kernel,
    simulate,
    stationary,
    stepping_kernel,
)

__version__ = "0.1.0"
