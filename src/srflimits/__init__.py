"""srflimits: high-precision certification of sparse superresolution limits.

Computes restricted isometry constants, the eps-spark, Szego/conformal-map
quantities and minimax l0 recovery bounds for the on-grid partial Fourier
system on a band, and verifies the explicit two-sided inequalities that
govern them.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    CoefficientVector,
    MeasurementVector,
    SupportSet,
    SystemParams,
    build_gram,
    gram_entry,
    measurement_norm,
    synthesize,
)
from .hp import (  # noqa: F401
    default_bits,
    hp_cholesky,
    min_eig,
    min_eig_adaptive,
    vandermonde_lastrow,
)
from .recovery import (  # noqa: F401
    adversarial_pair,
    l0_solve,
    minimax_experiment,
    srf_scaling,
)
from .spectral import (  # noqa: F401
    contiguity_scan,
    eps_spark,
    epsilon,
    sigma_min,
    smally_exponent,
    verify_srf_bounds,
)
from .szego import (  # noqa: F401
    Phi_map,
    arc_inner_product,
    bound_suite,
    faber_poly,
    leading_coeffs,
    phi_map,
    szego_kernel,
    szego_reproduce,
)
