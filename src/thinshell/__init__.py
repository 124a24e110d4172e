"""Gibbs models for additive energies, exact thin-shell projections, and
numerical verification of their convergence bounds."""

from .gibbs1d import (
    CltPrereqs,
    GibbsModel,
    GridParams,
    characteristic_function,
    clt_prerequisites,
    entropy_energy,
    model_at,
    moments,
    partition_function,
    solve_energy,
    y_density,
)
from .grids import DensityGrid, EdgeModel, make_grid
from .hamiltonians import (
    HALF_LINE,
    SYMMETRIC,
    HamiltonianSpec,
    MembershipReport,
    check_class_f,
    custom,
    derivative,
    evaluate,
    inverse,
    linear_half,
    power,
    quadratic,
    quartic_perturbed,
)
from .projection import (
    BoundReport,
    ConverseReport,
    MixtureReport,
    ProjectionContext,
    bound_report,
    converse_lower_bound,
    kl_to_gibbs,
    make_context,
    mixture_bound_check,
    project_uniform_k1,
    rk_conditional_density,
    tv_to_gibbs,
)
from .sampler import (
    EnsembleGapReport,
    SampleBatch,
    TestFunction,
    central_projection,
    empirical_projection_check,
    ensemble_expectation_gap,
    load_batch,
    sample_surface_rejection,
    sample_surface_scaling,
    save_batch,
    shell_mass,
)
from .sumdensity import (
    LocalCltReport,
    local_clt_scan,
    log_w,
    log_w_exact,
    w_density,
    w_exact,
    w_fft,
)

__version__ = "0.1.0"
