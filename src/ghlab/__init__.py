"""Numerical laboratory for torus-invariant Calabi-Yau metric ansatz work.

Subpackages:
    geometry    quadratic forms, base points, index sets, Schur reductions
    quadrature  adaptive orthant integration of singular power kernels
    locus       discriminant strata, projections, region decomposition
    kernels     potential kernels, their exact Hessians, closed forms, weak checks
    ansatz      flat model, first order field jets, decay scans
    frame       the two integrability identities of a coefficient field
    holo        holomorphic coordinate surrogates and their log moduli
    glue        cutoffs, glue weights, eigenvalue extension profiles
    checks      acceptance-criterion samplers and residuals (suite and CLI)
"""

from .geometry import (
    BasePoint,
    IndexSet,
    QuadForm,
    anorm,
    ball_volume,
    batch_from_vectors,
    block,
    schur_complement,
)
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    SingularityProximity,
    power_kernel_integral,
)
from .locus import (
    Projection,
    RegionConstants,
    RegionReport,
    all_strata,
    dist_boundary,
    dist_closed_stratum,
    dist_locus,
    project,
    region_membership,
)
from .kernels import (
    KernelSpec,
    KernelValue,
    RadialBump,
    alpha,
    alpha_batch,
    alpha_grad,
    closed_form_axis,
    kernel_prefactor,
    weak_distributional_check,
)
from .ansatz import (
    FieldJet,
    FirstOrderField,
    FlatFieldResult,
    Ray,
    RestrictedField,
    decay_scan,
    flat_field,
    restricted_remainders,
    sigma_expansion,
    weight_ell,
)
from .frame import (
    integrability_batch,
    integrability_residual,
)
from .holo import (
    GammaSpec,
    gamma,
    gamma_family,
    gamma_sum_check,
    log_z,
    taubnut_moduli,
)
from .glue import (
    ExtensionProfile,
    cutoff,
    glue_weight,
    glue_weight_batch,
    profile_condition_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
