"""Spectra of Toeplitz operators on weighted spaces of the unit ball.

Numerics for operators whose symbols live on a submanifold of the ball:
explicit spectra for the circle-in-disc model, the intrinsic geometry and
symplectic classification of charted submanifolds, the block-Hessian
determinant identities behind the trace asymptotics, and the limit-theorem
right-hand sides with golden-table reproduction via the ``szegolab`` CLI.
"""

from .errors import (
    AccuracyError,
    ContractViolation,
    DomainError,
    RankError,
    SzegolabError,
    UnsupportedClassError,
)
from .specfun import WeightedModel
from .eigen import hermitian_eigenvalues
from .geometry import (
    CHART_NAMES,
    ChartedSubmanifold,
    Pullback,
    SymplecticClass,
    classify,
    make_chart,
    pullback_forms,
    skew_half_spectrum,
)
from .hessdet import (
    BlockHessianSpec,
    ClosedFormDet,
    build_block_matrix,
    det_closed_form,
    det_direct,
    det_via_polynomial,
    random_metric_pair,
    ring_determinant_polynomial,
    scalar_block_factor,
    sqrt_det_from_spectrum,
)
from .toeplitz import (
    CircleSymbolModel,
    SpectrumTruncation,
    composition_trace_quadrature,
    explicit_count,
    explicit_trace,
    largest_eigenvalue_index,
    matrix_elements,
)
from .szego import (
    PhiFunction,
    QTransformSpec,
    ScanRow,
    convergence_scan,
    count_prediction,
    eigen_count,
    monomial_rhs_circle,
    poly_phi,
    power_phi,
    q_transform,
    schatten_limit,
    szego_rhs,
    szego_rhs_chart,
)

__version__ = "0.1.0"
