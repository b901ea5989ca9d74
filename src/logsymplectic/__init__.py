"""Exact local-coordinate algebra of log-symplectic Poisson structures."""

from .ring import (
    LaurentPoly,
    Rational,
    VarSpec,
    poly_from_string,
    poly_to_string,
)
from .exterior import (
    DiffForm,
    Frame,
    MultiVector,
    change_frame,
    contract,
    coordinate_frame,
    coordinate_one_form,
    coordinate_vector,
    exterior_derivative,
    log_frame,
    log_one_form,
    log_vector,
    wedge,
)
from .poisson import (
    DivisorReport,
    PoissonStructure,
    SkewMatrix,
    degeneracy_divisor,
    jacobi_holds,
    log_matrix,
    pfaffian,
    phi_forms,
    pi_flat,
    pi_sharp,
    schouten,
    top_power,
)
from .genpos import (
    GenPosCertificate,
    first_failure_t_general,
    is_relative_t_general,
    is_standard_t_general,
    poisson_t_general,
    verify_certificate,
)
from .complexes import (
    WeightSlicedComplex,
    build_bracket_complex,
    build_log_complex,
    build_logplus_complex,
    build_qi,
    cohomology_dims,
    conjugation_report,
    exactness_report,
    filtration_level_of,
    filtration_report,
    verify_d_squared,
    verify_exactness,
)
from .koszul import qi_cohomology
from .toric import (
    ToricStructure,
    betti_torus,
    certify,
    deformation_tangent_dim,
    log_hodge_numbers,
    make_toric,
    random_skew,
)

__all__ = [name for name in dir() if not name.startswith("_")]
