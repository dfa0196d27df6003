"""Structure-preservation observables and error measurement.

Discrete mass, momentum and energy are sum w_i, sum w_i v_i, sum w_i |v_i|^2.
The discrete entropy is the midpoint-quadrature sum of g log g for the
mollified particle density g on the fixed grid, and the dissipation is the
nonnegative quadratic form pairing score differences through the collision
matrix. Blob reconstruction convolves the particle measure with the mollifier
for visualization and error norms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Z_FLOOR, mollifier_eval
from .particles import mollified_grid_density


@dataclass
class DiagnosticsRecord:
    """One row of per-step observables."""

    step: int
    time: float
    mass: float
    momentum: np.ndarray
    energy: float
    entropy: float
    relative_entropy: float
    dissipation: float
    min_pair_distance: float
    escaped_count: int


def moments(ens):
    """(mass, momentum vector, energy) = (sum w, sum w v, sum w |v|^2)."""
    w, v = ens.weights, ens.velocities
    mass = float(np.sum(w))
    momentum = w @ v
    energy = float(np.sum(w * np.einsum("id,id->i", v, v)))
    return mass, momentum, energy


def conserved_maxwellian_params(ens):
    """(rho, u, T) of the Maxwellian sharing the ensemble's conserved moments."""
    mass, momentum, energy = moments(ens)
    u = momentum / mass
    temperature = (energy / mass - float(u @ u)) / ens.dim
    return mass, u, temperature


def discrete_entropy(ens, grid, mol, density_pair=None):
    """Quadrature entropy sum_l h^d g_l log g_l of the mollified density.

    Cells whose density underflows contribute zero (the x log x -> 0 limit).
    Pass density_pair = (density, log_density) to reuse a per-step cache.
    """
    if density_pair is None:
        density_pair = mollified_grid_density(ens, grid, mol)
    dens, log_dens = density_pair
    return grid.cell_volume * float(np.sum(dens * log_dens))


def relative_entropy(ens, grid, mol, reference="standard", density_pair=None):
    """Quadrature relative entropy of the mollified density against a Maxwellian.

    reference="standard" uses the unit Maxwellian (rho, u, T) = (1, 0, 1), so
    the integrand is g (log g + (d/2) log(2 pi) + |v|^2 / 2); "moments" uses
    the Maxwellian built from the ensemble's conserved moments.
    """
    if density_pair is None:
        density_pair = mollified_grid_density(ens, grid, mol)
    dens, log_dens = density_pair
    centers = grid.centers
    if reference == "standard":
        rho, u, temperature = 1.0, np.zeros(grid.dim), 1.0
    elif reference == "moments":
        rho, u, temperature = conserved_maxwellian_params(ens)
    else:
        raise ValueError(f"unknown reference {reference!r}")
    r2 = np.sum((centers - u) ** 2, axis=-1)
    neg_log_ref = (
        -math.log(rho)
        + 0.5 * grid.dim * math.log(2.0 * math.pi * temperature)
        + r2 / (2.0 * temperature)
    )
    return grid.cell_volume * float(np.sum(dens * (log_dens + neg_log_ref)))


def dissipation(ens, scores, spec):
    """Entropy dissipation 0.5 sum_ij w_i w_j (F_i - F_j) . A(v_i - v_j) (F_i - F_j).

    Nonnegative up to rounding since A is PSD; pairs within Z_FLOOR are skipped.
    """
    v, w = ens.velocities, ens.weights
    f = np.asarray(scores, dtype=float)
    n = ens.size
    block = max(1, int(2.4e7 / max(n * ens.dim, 1)))
    half_gamma = 0.5 * spec.gamma
    total = 0.0
    for lo in range(0, n, block):
        z = v[lo : lo + block, None, :] - v[None, :, :]
        r2 = np.einsum("tjd,tjd->tj", z, z)
        near = r2 <= Z_FLOOR * Z_FLOOR
        if spec.gamma == 0.0:
            ag = np.where(near, 0.0, spec.prefactor)
        else:
            ag = spec.prefactor * np.where(near, 1.0, r2) ** half_gamma
            ag[near] = 0.0
        df = f[lo : lo + block, None, :] - f[None, :, :]
        zdf = np.einsum("tjd,tjd->tj", z, df)
        df2 = np.einsum("tjd,tjd->tj", df, df)
        quad = ag * (r2 * df2 - zdf * zdf)
        total += float(w[lo : lo + block] @ quad @ w)
    return 0.5 * total


def dissipation_from_velocities(ens, scores, velocities):
    """Dissipation via the exact identity D = -sum_i w_i F_i . U_i.

    Algebraically equal to the pairwise quadratic form (symmetrize i <-> j);
    free once the velocity field is in hand.
    """
    return -float(np.sum(ens.weights * np.einsum("id,id->i", scores, velocities)))


def blob_eval(ens, mol, points):
    """Blob reconstruction sum_i w_i psi_eps(p - v_i) at arbitrary points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v, w = ens.velocities, ens.weights
    # (block, N, d) temporaries of at most 2^17 d doubles each
    block = max(1, 2**17 // ens.size)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], block):
        psi = mollifier_eval(points[lo : lo + block, None, :] - v[None, :, :], mol)
        out[lo : lo + block] = psi @ w
    return out


def blob_on_grid(ens, grid, mol):
    """Blob values at the grid centers (tensor-product fast path), shape (n^d,)."""
    return mollified_grid_density(ens, grid, mol)[0]


@dataclass(frozen=True)
class ErrorNorms:
    l1: float
    l2: float
    linf: float
    rel_l1: float
    rel_l2: float
    rel_linf: float


def error_norms(values, reference, grid):
    """Discrete L1/L2/Linf norms of (values - reference) on the grid centers.

    ||g||_p^p = sum_l h^d |g(v_l^c)|^p and ||g||_inf = max_l |g(v_l^c)|;
    relative versions divide by the same norm of the reference.
    """
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape or values.shape != (grid.num_cells,):
        raise ValueError("values and reference must be aligned to the grid centers")
    hval = grid.cell_volume
    diff = values - reference
    l1 = hval * float(np.sum(np.abs(diff)))
    l2 = math.sqrt(hval * float(np.sum(diff * diff)))
    linf = float(np.max(np.abs(diff)))
    r1 = hval * float(np.sum(np.abs(reference)))
    r2 = math.sqrt(hval * float(np.sum(reference * reference)))
    rinf = float(np.max(np.abs(reference)))
    if r1 == 0.0 or r2 == 0.0 or rinf == 0.0:
        raise ZeroDivisionError("reference norm is zero; relative error undefined")
    return ErrorNorms(l1, l2, linf, l1 / r1, l2 / r2, linf / rinf)


def fit_convergence_order(h_list, error_list):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(h_list, dtype=float)
    errs = np.asarray(error_list, dtype=float)
    if hs.size < 3:
        raise ValueError("need at least three resolutions for a slope fit")
    if np.any(hs <= 0) or np.any(errs <= 0):
        raise ValueError("mesh sizes and errors must be positive")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)
