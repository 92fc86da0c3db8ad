"""Exact computations in fused Hecke algebras: q-symmetriser projectors,
partial elementary braidings, baxterised R-elements and the induced
R-matrices on quantum symmetric powers, all over arbitrary-precision
rationals.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    FusedHeckeError,
    InternalConsistencyError,
    ParameterError,
    PoleError,
    ResourceError,
)
from .fused import (
    FusedContext,
    baxter_R_expansion,
    baxter_R_factorized,
    baxter_coefficients,
    classical_baxter_R,
    classical_baxter_R_factorized,
    classical_coefficients,
    element_diff,
    minimal_polynomial_check,
    partial_braiding,
    partial_braiding_mixed,
    projector_P,
    verify_braided_ybe,
    verify_classical_ybe,
    verify_commPR,
    verify_mixed_ybe,
)
from .hecke import (
    HeckeElement,
    element_from_obj,
    element_to_obj,
    generator,
    multiply,
    symmetriser_product,
    symmetriser_sum,
    unit,
)
from .permutations import (
    identity,
    reduced_word,
)
from .qnumbers import (
    brace_int,
    format_rational,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)
from .tensorrep import (
    classical_fused_R_matrix,
    fused_R_matrix,
    sigma_matrix,
    verify_matrix_ybe,
    w_basis,
)
