"""High-precision laboratory for clustered-node Vandermonde and
generalized prolate spectra: matrix builders, an arbitrary-precision
Jacobi eigensolver, explicit bound formulas, exponential-sum inequality
suites, and a reproducible experiment runner."""

__version__ = "0.1.0"

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    ConvergenceError,
    DegenerateInputError,
    InvalidParameterError,
    PrecisionError,
    ResourceLimitError,
    VandelabError,
)
from .hp import PrecisionPolicy, decimal_str, parse_decimal, required_bits
from .geometry import (
    ClusterSpec,
    NodeSet,
    PartitionResult,
    generate_config,
    scale_to_circle,
    validate_config,
    wrap_distance,
)
from .matrices import (
    VandermondeSpec,
    build_dirichlet_kernel,
    build_gram_closed_form,
    build_prolate,
)
from .spectra import (
    SpectrumResult,
    hermitian_eigenvalues,
    prolate_limit_check,
    singular_values,
)
from .bounds import (
    BoundReport,
    evaluate_all,
    lower_bound_shape,
    prolate_lower_shape,
    slepian_constant,
    srf,
    upper_bound_explicit,
)
from .expsums import (
    CertifiedSup,
    ExpSum,
    check_cor_turan,
    check_nikolskii,
    check_riemann,
    check_salem_ratio,
    check_turan,
    discrete_norm,
    evaluate,
    l2_norm_exact,
    linf_norm_certified,
    min_salem_ratio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
