"""One-shot secrecy rate regions for classical-quantum interference wiretap channels."""

from .operators import (
    OperatorError,
    RegisterLayout,
    fidelity,
    purified_distance,
    trace_distance,
    validate_density,
)
from .states import CQState, joint_and_product
from .entropic import (
    ConvergenceError,
    ToleranceParams,
    binary_entropy,
    classical_np_oracle,
    cond_smooth_ht_mi,
    cond_smooth_max_mi,
    fact_bound,
    ht_mutual_info,
    hypothesis_testing_beta,
    hypothesis_testing_divergence,
    max_mutual_info,
    max_relative_entropy,
    relative_entropy,
    smooth_max_mutual_info,
    smooth_max_relative_entropy,
    von_neumann_entropy,
)
from .channel import (
    ChannelFormatError,
    ChannelSpec,
    InputDistribution,
    bundled_path,
    control_state_hk,
    control_state_t1,
    load_channel,
    load_distribution,
    save_channel,
    save_distribution,
    uniform_hk,
    uniform_t1,
)
from .regions import (
    MITerm,
    PenaltyMode,
    PolyRow,
    RatePolytope,
    SweepResult,
    VertexEnumeration,
    conjecture_region,
    fourier_motzkin,
    hk_nosecrecy_region,
    hk_region_via_projection,
    minimal_2d,
    qmac_inner_bound,
    sweep_union,
    theorem1_region,
    theorem2_region,
    vertices_2d,
)
from .secrecy import (
    LeakageBound,
    RandomizerPlan,
    SecrecyReport,
    leakage_bound,
    randomizer_plan,
    secrecy_check,
)

__version__ = "0.1.0"
