"""conelab: numerical laboratory for entropy functionals and Ricci-de Turck
flow on radial metrics with isolated conical singularities."""

__version__ = "0.1.0"

from .link import (
    LinkData,
    SpectrumTruncationError,
    check_admissibility_gap,
    check_tangential_stability,
    get_link,
    parse_link_file,
    sphere_link,
)
from .geometry import (
    ConelabError,
    RadialField,
    RadialGrid,
    RadialMetric,
    flat_cone,
    perturbed_cone,
    sphere_suspension,
    total_volume,
    volume_form,
    warped_ricci,
    warped_scal,
)
from .spectral import (
    EigensolverError,
    RadialOperator,
    fit_asymptotics,
    indicial_exponents,
    solve_ground_state,
)
from .heat import (
    bessel_i,
    cone_kernel_mode,
    heat_apply,
    heat_convolve,
    mapping_exponent_report,
    s1_plane_kernel_error,
)
from .entropy import (
    compute_lambda,
    compute_mu,
    compute_nu,
    first_variation_lambda,
)
from .flow import (
    FlowConfig,
    FlowError,
    FlowState,
    deturck_vector_field,
    monotonicity_report,
    run_flow,
)

__all__ = [
    "__version__",
    "LinkData", "SpectrumTruncationError", "check_admissibility_gap",
    "check_tangential_stability", "get_link", "parse_link_file", "sphere_link",
    "ConelabError", "RadialField", "RadialGrid", "RadialMetric", "flat_cone",
    "perturbed_cone", "sphere_suspension", "total_volume", "volume_form",
    "warped_ricci", "warped_scal",
    "EigensolverError", "RadialOperator", "fit_asymptotics",
    "indicial_exponents", "solve_ground_state",
    "bessel_i", "cone_kernel_mode", "heat_apply", "heat_convolve",
    "mapping_exponent_report", "s1_plane_kernel_error",
    "compute_lambda", "compute_mu", "compute_nu", "first_variation_lambda",
    "FlowConfig", "FlowError", "FlowState", "deturck_vector_field",
    "monotonicity_report", "run_flow",
]
