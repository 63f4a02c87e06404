"""oomlab: observable operator models and their operator-algebra cousins.

A numpy library for building, validating and measuring stochastic-process
models in the observable-operator formalism:

- word probabilities, mixtures, stationarity and sampling (:mod:`oomlab.oom`)
- process dimension via Hankel rank ladders and model minimization
  (:mod:`oomlab.dimension`)
- finite-horizon causal states and statistical complexity
  (:mod:`oomlab.causal`)
- models whose output alphabet is a finite-dimensional block matrix algebra
  (:mod:`oomlab.algebra`, :mod:`oomlab.ncoom`)
- desk-scale harnesses checking dimension additivity over distinct mixture
  components, lower semi-continuity along convergent families, and the
  causal-state upper bound (:mod:`oomlab.experiments`)

Model files and experiment specs are JSON (:mod:`oomlab.model_io`); the
``oomlab`` command line drives everything (:mod:`oomlab.cli`).
"""

from .algebra import (
    AlgebraElement,
    CStarAlgebra,
    basis_elements,
    construct_algebra,
    is_positive,
    unit_element,
)
from .causal import (
    CausalState,
    CausalStatePartition,
    PredictiveDistribution,
    causal_span_rank,
    empirical_causal_states,
    enumerate_causal_states,
    predictive_distribution,
    statistical_complexity,
    topological_complexity,
    total_variation,
)
from .dimension import (
    DimensionReport,
    HankelBlock,
    apply_tau,
    build_hankel,
    equivalent,
    minimize_oom,
    numerical_rank,
    process_dimension,
)
from .errors import (
    OomlabError,
    PreconditionError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
)
from .experiments import (
    ExperimentReport,
    FamilySpec,
    coalescing_bernoulli_family,
    cylinder_distance,
    markov_merge_family,
    mixture_weight_family,
    run_additivity,
    run_semicontinuity,
    run_upperbound,
)
from .model_io import (
    dumps_canonical,
    parse_experiment_file,
    parse_factors_file,
    parse_model_file,
    save_model,
    serialize_model,
)
from .ncoom import (
    NcOomModel,
    embed_classical,
    indicator_factors,
    nc_evaluate,
    nc_hankel,
    nc_mixture_direct_sum,
    nc_process_dimension,
    nc_stationarity_check,
    validate_ncoom,
)
from .oom import (
    HmmModel,
    OomModel,
    StationarityReport,
    ValidationReport,
    hmm_to_oom,
    kolmogorov_residual,
    mixture_direct_sum,
    sample_trajectory,
    stationarity_check,
    validate_hmm,
    validate_oom,
    word_probability,
)
from .processes import bernoulli, iid, markov_chain, periodic, random_hmm
from .words import normalize_word, words_of_length, words_up_to

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "CStarAlgebra",
    "CausalState",
    "CausalStatePartition",
    "DimensionReport",
    "ExperimentReport",
    "FamilySpec",
    "HankelBlock",
    "HmmModel",
    "NcOomModel",
    "OomModel",
    "OomlabError",
    "PreconditionError",
    "PredictiveDistribution",
    "ResourceLimitError",
    "SchemaError",
    "StationarityReport",
    "ValidationError",
    "ValidationReport",
    "apply_tau",
    "basis_elements",
    "bernoulli",
    "build_hankel",
    "causal_span_rank",
    "coalescing_bernoulli_family",
    "construct_algebra",
    "cylinder_distance",
    "dumps_canonical",
    "embed_classical",
    "empirical_causal_states",
    "enumerate_causal_states",
    "equivalent",
    "hmm_to_oom",
    "iid",
    "indicator_factors",
    "is_positive",
    "kolmogorov_residual",
    "markov_chain",
    "markov_merge_family",
    "minimize_oom",
    "mixture_direct_sum",
    "mixture_weight_family",
    "nc_evaluate",
    "nc_hankel",
    "nc_mixture_direct_sum",
    "nc_process_dimension",
    "nc_stationarity_check",
    "normalize_word",
    "numerical_rank",
    "parse_experiment_file",
    "parse_factors_file",
    "parse_model_file",
    "periodic",
    "predictive_distribution",
    "process_dimension",
    "random_hmm",
    "run_additivity",
    "run_semicontinuity",
    "run_upperbound",
    "sample_trajectory",
    "save_model",
    "serialize_model",
    "statistical_complexity",
    "stationarity_check",
    "topological_complexity",
    "total_variation",
    "unit_element",
    "validate_hmm",
    "validate_ncoom",
    "validate_oom",
    "word_probability",
    "words_of_length",
    "words_up_to",
]
