"""Toolkit for testing the minimal Hilbert-space dimension compatible with
bipartite correlations: Bell functionals, exact local bounds, fixed-dimension
see-saw lower bounds, and Grothendieck-constant vector searches."""

from .catalog import (
    WitnessReport,
    by_name,
    cglmp_C,
    cglmp_D,
    chsh,
    expression_E,
    gamma_state,
    i_phi,
    iphi_sweep,
    theta_state,
    witness_report,
)
from .bellfmt import (
    parse_correlation_matrix,
    parse_functional,
    parse_table_csv,
    serialize_correlation_matrix,
    serialize_functional,
)
from .grothendieck import (
    CorrelationFunctional,
    VectorStrategy,
    correlator_bell,
    local_norm,
    normalize,
    vector_seesaw,
)
from .localbound import DeterministicStrategy, local_bound, local_bound_min
from .scenario import (
    AVERAGE,
    PARTNER_SETTING_ZERO,
    BellFunctional,
    BellScenario,
    ProbabilityTable,
    QuantumModel,
    evaluate,
    model_value,
    table_of,
)
from .seesaw import (
    SeesawConfig,
    SeesawResult,
    embed_model,
    refine,
    seeded_models,
    seesaw,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGE",
    "BellFunctional",
    "BellScenario",
    "CorrelationFunctional",
    "DeterministicStrategy",
    "PARTNER_SETTING_ZERO",
    "ProbabilityTable",
    "QuantumModel",
    "SeesawConfig",
    "SeesawResult",
    "VectorStrategy",
    "WitnessReport",
    "by_name",
    "cglmp_C",
    "cglmp_D",
    "chsh",
    "correlator_bell",
    "embed_model",
    "evaluate",
    "expression_E",
    "gamma_state",
    "i_phi",
    "iphi_sweep",
    "local_bound",
    "local_bound_min",
    "local_norm",
    "model_value",
    "normalize",
    "parse_correlation_matrix",
    "parse_functional",
    "parse_table_csv",
    "refine",
    "seeded_models",
    "seesaw",
    "serialize_correlation_matrix",
    "serialize_functional",
    "table_of",
    "theta_state",
    "vector_seesaw",
    "witness_report",
]
