"""Structure-preservation observables and error measurement.

Discrete mass, momentum and energy are sum w_i, sum w_i v_i, sum w_i |v_i|^2.
The discrete entropy is the midpoint-quadrature sum of g log g for the
mollified particle density g on the fixed grid, and the dissipation is the
nonnegative quadratic form pairing score differences through the collision
matrix. Blob reconstruction convolves the particle measure with the mollifier
for visualization and error norms. Both reuse the solver's kernels (the pair
tiles and the per-axis Gaussian factors of particles), in bounded memory. The
entropies and the blob on the grid read the density pair from
mollified_grid_density, which recalls the step's grid_fields pair for the
same ensemble object, so within simulate.run they sum nothing again.
"""

import math
from dataclasses import dataclass

import numpy as np

from .particles import _centered, _flush, _gauss_factors, _pair_tiles, mollified_grid_density


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


def discrete_entropy(ens, grid, mol):
    """Quadrature entropy sum_l h^d g_l log g_l of the mollified density.

    Cells whose density underflows contribute zero (the x log x -> 0 limit).
    """
    dens, log_dens = mollified_grid_density(ens, grid, mol)
    return grid.cell_volume * float(np.sum(dens * log_dens))


def relative_entropy(ens, grid, mol, reference="standard"):
    """Quadrature relative entropy of the mollified density against a Maxwellian.

    reference="standard" uses the unit Maxwellian (rho, u, T) = (1, 0, 1), so
    the integrand is g (log g + (d/2) log(2 pi) + |v|^2 / 2); "moments" uses
    the Maxwellian built from the ensemble's conserved moments.
    """
    dens, log_dens = mollified_grid_density(ens, grid, mol)
    if reference == "standard":
        rho, u, temperature = 1.0, np.zeros(grid.dim), 1.0
    elif reference == "moments":
        rho, u, temperature = conserved_maxwellian_params(ens)
    else:
        raise ValueError(f"unknown reference {reference!r}")
    # |c - u|^2 over the cell centers c, summed over the axes in order
    r2 = (grid.axis - u[0]) ** 2
    for s in range(1, grid.dim):
        r2 = np.add.outer(r2, (grid.axis - u[s]) ** 2)
    r2 = r2.reshape(-1)
    neg_log_ref = (
        -math.log(rho)
        + 0.5 * grid.dim * math.log(2.0 * math.pi * temperature)
        + r2 / (2.0 * temperature)
    )
    return grid.cell_volume * float(np.sum(dens * (log_dens + neg_log_ref)))


def dissipation(ens, scores, spec):
    """Entropy dissipation 0.5 sum_ij w_i w_j (F_i - F_j) . A(v_i - v_j) (F_i - F_j).

    Nonnegative up to rounding since A is PSD; pairs within Z_FLOOR are skipped.
    Summed once per unordered pair of tiles, in O(N + PAIR_TILE^2) memory.
    """
    v, w = ens.velocities, ens.weights
    f = np.asarray(scores, dtype=float)
    vc, fc = _centered(v, w, f)
    total = 0.0
    for rows_i, rows_j, pair, k0, _ in _pair_tiles(v, f, vc, fc, spec.gamma, with_df2=True):
        r2, zdf, df2 = pair
        quad = k0 * (r2 * df2 - zdf * zdf)
        tile = float(w[rows_i] @ quad @ w[rows_j])
        total += tile if rows_i == rows_j else 2.0 * tile
    return 0.5 * spec.prefactor * total


def dissipation_from_velocities(ens, scores, velocities):
    """Dissipation via the exact identity D = -sum_i w_i F_i . U_i.

    Algebraically equal to the pairwise quadratic form (symmetrize i <-> j);
    free once the velocity field is in hand.
    """
    return -float(np.sum(ens.weights * np.einsum("id,id->i", scores, velocities)))


def blob_eval(ens, mol, points):
    """Blob reconstruction sum_i w_i psi_eps(p - v_i) at arbitrary points.

    Products of the per-axis Gaussian factors, flushed below DBL_MIN as in the
    grid sums, in (points, N) blocks of at most 2^17 doubles. Each axis's
    factors are built once per distinct coordinate of a block (an axis
    slice's points share every coordinate but one) and multiplied into its
    rows 2^14 doubles at a time.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v = ens.velocities
    nw = mol.norm_const * ens.weights
    block = max(1, 2**17 // ens.size)
    chunk = max(1, 2**14 // ens.size)
    out = np.empty(points.shape[0])
    psi_buf = np.empty((min(block, points.shape[0]), ens.size))
    for lo in range(0, points.shape[0], block):
        pts = points[lo : lo + block]
        psi = psi_buf[: pts.shape[0]]
        for s in range(ens.dim):
            coords, rows = np.unique(pts[:, s], return_inverse=True)
            factors = _gauss_factors(coords, v[:, s], mol)
            if s == 0:
                # mode="clip" writes straight into psi; the default buffers it
                np.take(factors, rows, axis=0, out=psi, mode="clip")
                continue
            for c in range(0, rows.size, chunk):
                part = psi[c : c + chunk]
                part *= factors[rows[c : c + chunk]]
                _flush(part)
        out[lo : lo + pts.shape[0]] = psi @ nw
    return out


def blob_on_grid(ens, grid, mol):
    """Blob values at the grid centers (tensor-product fast path), shape (n^d,).

    The density of mollified_grid_density: the pair of the step's grid_fields
    when it was built for this ensemble object.
    """
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
