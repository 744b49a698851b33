"""Exact Poisson structures on twisted polygons and their reductions.

The package constructs the odd-kernel family of quadratic brackets on twisted
polygons over the rationals, reduces them to the quotient field coordinates,
derives the named closed-form tensors (quadratic Toda, lattice Virasoro and
its fixed-sequence generalisation, extended-Toda pair), and verifies every
structural identity exactly: no floating point outside the trajectory
integrator.
"""

from .linalg import rat, rat_str
from .lattice_ops import (
    Kernel,
    OddKernel,
    PerSeq,
    SingularOperator,
    convolve_apply,
    invert,
    phi_special,
    shift_kernel,
)
from .exchange_algebra import (
    BracketSpec,
    DegeneratePolygon,
    Polygon,
    default_rc,
    group_act,
    projective_bracket,
    random_polygon,
    verify_structure,
    verify_ybe,
)
from .coord_reduction import (
    ConstraintNotSecondClass,
    GaugeInconsistent,
    NonUniqueGauge,
    OpTensor,
    PolyTensor,
    closed_tensor,
    compatibility,
    coords,
    dirac_reduce,
    gauge_normalize,
    jacobiator,
    oracle_match,
    pushforward_check,
    toda_dirac_vs_ftv,
)
from .gen_nu import TheoremReport, casimir_coeffs, casimir_residual, check_theorem, quad_coeff
from .dynamics import (
    TransferMatrix,
    commute_check,
    det_transfer,
    ham_vf,
    integrate,
    lifted_flow_residual,
    lifted_vf,
    sum_field,
    trace_transfer,
    trajectory_csv,
    transfer_invariants,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
