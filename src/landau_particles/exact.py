"""Closed-form reference solutions and initial conditions.

The BKW family is the classical self-similar solution for Maxwell molecules
(gamma = 0): an isotropic Gaussian times a quadratic polynomial whose width
K(t) relaxes exponentially to 1. It has unit mass, zero momentum and energy d
for all admissible times, which makes it the exact reference for convergence
studies. The other two densities are the standard anisotropic two-bump and
radial-shell test initial data for the Coulomb-kernel runs.
"""

from dataclasses import dataclass

import numpy as np

BIMAXWELLIAN_CENTERS = (np.array([-2.0, 1.0]), np.array([0.0, -1.0]))


@dataclass(frozen=True)
class BkwParams:
    """Parameters of the BKW solution.

    K(t) = 1 - integration_const * exp(-2 B (d-1) t) must stay in
    [d/(d+2), 1] for the density to be nonnegative; prefactor is the kernel
    prefactor B. Conventional choices: d=2 uses C=1/2, B=1/16 (so
    K = 1 - exp(-t/8)/2); d=3 uses C=1, B=1/24 (so K = 1 - exp(-t/6)).
    """

    dim: int
    prefactor: float
    integration_const: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not (np.isfinite(self.prefactor) and self.prefactor > 0):
            raise ValueError(f"prefactor must be positive, got {self.prefactor}")

    def k_of_t(self, t):
        return 1.0 - self.integration_const * np.exp(
            -2.0 * self.prefactor * (self.dim - 1) * t
        )


def bkw_params(dim, prefactor=None, integration_const=None):
    """BkwParams with the conventional constants for the given dimension."""
    if prefactor is None:
        prefactor = 1.0 / 16.0 if dim == 2 else 1.0 / 24.0
    if integration_const is None:
        integration_const = 0.5 if dim == 2 else 1.0
    return BkwParams(dim=dim, prefactor=prefactor, integration_const=integration_const)


def _pq(params, t):
    d = params.dim
    k = params.k_of_t(t)
    # positivity window of the quadratic factor; equality is admitted (the
    # d=2 solution starts exactly at K = 1/2)
    lo = d / (d + 2.0)
    if not (lo - 1e-14 <= k <= 1.0 + 1e-14):
        raise ValueError(
            f"K(t)={k:.6g} outside the positivity range [{lo:.6g}, 1] at t={t}"
        )
    p = ((d + 2.0) * k - d) / (2.0 * k)
    q = (1.0 - k) / (2.0 * k * k)
    return k, p, q


def bkw_eval(params, t, v):
    """BKW density at time t; v has shape (d,) or (..., d)."""
    v = np.asarray(v, dtype=float)
    d = params.dim
    k, p, q = _pq(params, t)
    r2 = np.sum(v * v, axis=-1)
    return (2.0 * np.pi * k) ** (-0.5 * d) * np.exp(-r2 / (2.0 * k)) * (p + q * r2)


def bkw_time_derivative(params, t, v):
    """Analytic d/dt of the BKW density (for residual checks)."""
    v = np.asarray(v, dtype=float)
    d = params.dim
    k, _, _ = _pq(params, t)
    kdot = 2.0 * params.prefactor * (d - 1.0) * (1.0 - k)
    r2 = np.sum(v * v, axis=-1)
    poly = d * (d + 2.0) * k * k - 2.0 * (d + 2.0) * k * r2 + r2 * r2
    return (
        (2.0 * np.pi * k) ** (-0.5 * d)
        * np.exp(-r2 / (2.0 * k))
        * poly
        * (1.0 - k)
        / (4.0 * k**4)
        * kdot
    )


def maxwellian(v, rho=1.0, mean=None, temperature=1.0):
    """Maxwellian density rho (2 pi T)^(-d/2) exp(-|v-u|^2 / (2T))."""
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    if mean is not None:
        v = v - np.asarray(mean, dtype=float)
    r2 = np.sum(v * v, axis=-1)
    return rho * (2.0 * np.pi * temperature) ** (-0.5 * d) * np.exp(
        -r2 / (2.0 * temperature)
    )


def bimaxwellian_init(v):
    """Two equal-mass unit-variance bumps at (-2,1) and (0,-1); total mass 1."""
    v = np.asarray(v, dtype=float)
    u1, u2 = BIMAXWELLIAN_CENTERS
    r1 = np.sum((v - u1) ** 2, axis=-1)
    r2 = np.sum((v - u2) ** 2, axis=-1)
    return (np.exp(-r1 / 2.0) + np.exp(-r2 / 2.0)) / (4.0 * np.pi)


def rosenbluth_init(v, sigma=0.3, sharpness=10.0):
    """Radial shell density (1/S^2) exp(-S (|v| - sigma)^2 / sigma^2)."""
    v = np.asarray(v, dtype=float)
    r = np.sqrt(np.sum(v * v, axis=-1))
    return np.exp(-sharpness * (r - sigma) ** 2 / sigma**2) / sharpness**2
