"""Exact symbolic engine for Lie-algebra-type noncommutative spaces.

Generators of a finite-dimensional Lie algebra are realized as x-linear
formal power series in the Weyl algebra, truncated at a working derivative
order, with all coefficients exact Gaussian rationals.  On top of the
realizations the package provides the ordering isomorphism with the
enveloping algebra, the transported star-products together with their
left-right duals, and closed forms for the kappa-deformed space that are
cross-checked against the generic engine.
"""

from .kappa import (
    KappaParams,
    KappaStarContext,
    bidiff_star,
    kappa_closed_realization,
    kappa_dual_closed,
    kappa_poisson_check,
    kappa_power_check,
    kappa_t_closed,
    verify_kappa,
)
from .lie import (
    AlgebraSpecError,
    LieAlgebra,
    abelian,
    algebra_to_json,
    custom_algebra,
    dual_algebra,
    g2_algebra,
    kappa_algebra,
    load_algebra,
    rescale,
    su2_algebra,
    validate,
)
from .pbw import PBWElement, pbw_mul, t_action, tinv_action, y_action
from .poly import Polynomial, parse_polynomial
from .realization import (
    Realization,
    adjoint_matrix,
    dual_realization,
    realization_from_phi,
    t_realization,
    verify_appendix,
    verify_realization,
    verify_shift_relations,
    verify_symmetrization,
    weyl_realization,
)
from .scalars import I, ONE, ZERO, Scalar
from .series import TruncSeries, bernoulli, series_coeffs
from .star import (
    StarContext,
    duality_check,
    first_order_check,
    make_context,
    omega,
    omega_inv,
    poisson_first_order,
    star,
    verify_duality,
)
from .weyl import (
    InsufficientOrder,
    OpMatrix,
    WeylOp,
    matrix_series,
    series_in_op,
    sum_of_products,
)

__version__ = "0.1.0"
