"""Deterministic particle solver for the spatially homogeneous Landau equation.

Particles carry fixed weights and move in velocity space along the regularized
entropy gradient flow; the solver conserves mass and momentum exactly and
dissipates the regularized entropy up to quadrature error. Direct-sum and
treecode summation engines are provided, with BKW exact solutions for
validation and structure-preservation diagnostics.
"""

from .diagnostics import (
    DiagnosticsRecord,
    ErrorNorms,
    blob_eval,
    blob_on_grid,
    discrete_entropy,
    dissipation,
    error_norms,
    fit_convergence_order,
    moments,
    relative_entropy,
)
from .exact import BkwParams, bimaxwellian_init, bkw_eval, bkw_params, maxwellian, rosenbluth_init
from .kernels import CollisionKernelSpec, Mollifier, Z_FLOOR, kernel_matrix, mollifier_eval, mollifier_grad
from .particles import (
    EmptyEnsembleError,
    ParticleEnsemble,
    QuadratureGrid,
    grid_fields,
    grid_log_density,
    init_from_density,
    min_pair_distance,
    score_field,
    velocity_field_direct,
)

__version__ = "0.1.0"
