"""Exact Diophantine approximation over Laurent series fields F_q((1/X)).

Everything is computed in exact arithmetic: finite field elements, integer
polynomials, precision-tracked truncated series, and rational exponents.
Absolute values of size e^k are represented by the integer k throughout.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FFDiophError,
    ParseError,
    PreconditionError,
    PrecisionExhaustedError,
)
from .field import Fq, parse_field_spec
from .poly import NEG_INF, Poly, parse_poly_literal, poly_divmod
from .series import (
    DegValue,
    LaurentSeries,
    deg_lt,
    deg_max,
    deg_sum,
    parse_series_literal,
)
from .matrix import (
    SeriesMatrix,
    matvec_affine,
    prod_plus_deg,
    sup_deg,
    zero_theta,
)
from .approx import (
    BestError,
    DirichletResult,
    DirichletTarget,
    Witness,
    best_error,
    best_error_mult,
    dirichlet_solve,
    witness_error_degs,
)
from .exponents import (
    EstimateWindowError,
    ExponentEstimate,
    ExponentProfile,
    estimate,
    profile,
)
from .transference import (
    CheckReport,
    check_bz,
    check_dirichlet_bound,
    check_dyson,
    check_mult_dominance,
)
from .limsup import (
    CellPlane,
    IndexTuple,
    MembershipResult,
    PlaneSpec,
    TsetParams,
    audit_grid,
    cell_plane,
    cell_plane_identity_check,
    delta_membership,
    intersection_check,
    plane_member,
    prop_backward_check,
    prop_forward_check,
    tau0,
    tset_enumerate,
    witness_extract_uv,
    xi_and_t,
)
from .generators import (
    PlantParams,
    PlantedInstance,
    cf_series,
    derive_rng,
    generate_matrix,
    generate_series,
    generate_theta,
    lacunary_series,
    plant_membership_pair,
    plant_witness,
    random_series,
    rational_series,
    solve_matrix_for_residual,
)
from .config import ExperimentConfig

__all__ = [name for name in dir() if not name.startswith("_")]
