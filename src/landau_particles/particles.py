"""Particle ensemble, midpoint quadrature grid, and direct-sum field evaluation.

The solver state is a weighted particle measure sum_i w_i delta(v - v_i); the
entropy score at a point x is the midpoint-quadrature sum over the fixed cell
centers v_l of grad psi_eps(x - v_l) * log(sum_k w_k psi_eps(v_l - v_k)), and
the particle velocities are U_i = -sum_j w_j A(v_i - v_j) [F(v_i) - F(v_j)].

All Gaussian grid sums factor over the tensor-product grid, so the density and
score evaluations are organized as per-dimension factor matrices contracted by
matmuls: the exact direct sums, reassociated. Cells whose density underflows in
that fast path are recomputed with log-sum-exp and clamped at
log(min w) - 745 so downstream products stay finite.

The direct velocity sum is O(N) for gamma = 0 (global moments). Otherwise it
visits each unordered pair once, in PAIR_TILE-square tiles: per pair a few
elementwise passes and one power, contracted by small matrix products (about
20 ns per unordered pair on one core of a 2-vCPU Intel Xeon VM), with
O(N + PAIR_TILE^2) memory.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from .kernels import Z_FLOOR

# Below this the fast-path density is considered underflowed and the cell is
# recomputed in log space.
_DENSITY_TINY = 1e-300

# Side of the square tiles of the gamma != 0 pair sweep. One tile pair holds
# 2d + 3 (PAIR_TILE, PAIR_TILE) float arrays, about 1.2 MB in 3D, which stays
# within a core's L2 cache; 128 ran about 9% faster than 192 or 96.
PAIR_TILE = 128


class EmptyEnsembleError(ValueError):
    """Raised when an initialization produces no particles above the weight floor."""


class ParticleEnsemble:
    """Particle velocities (N, d) with fixed positive weights (N,).

    Weights are immutable for the lifetime of the ensemble: the method moves
    particles, it never reweights them. Both arrays are stored read-only;
    stepping constructs a new ensemble.
    """

    def __init__(self, velocities, weights):
        velocities = np.ascontiguousarray(velocities, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=float)
        if velocities.ndim != 2 or velocities.shape[1] not in (2, 3):
            raise ValueError(f"velocities must be (N, d) with d in {{2,3}}, got {velocities.shape}")
        if weights.shape != (velocities.shape[0],):
            raise ValueError("weights must be one positive scalar per particle")
        if velocities.shape[0] < 1:
            raise EmptyEnsembleError("ensemble needs at least one particle")
        if not np.all(np.isfinite(velocities)):
            raise ValueError("velocities contain non-finite components")
        if not (np.all(np.isfinite(weights)) and np.all(weights > 0)):
            raise ValueError("weights must be finite and positive")
        velocities.setflags(write=False)
        weights.setflags(write=False)
        self.velocities = velocities
        self.weights = weights

    @property
    def size(self):
        return self.velocities.shape[0]

    @property
    def dim(self):
        return self.velocities.shape[1]

    def with_velocities(self, velocities):
        """New ensemble with the same (shared) weights."""
        new = object.__new__(ParticleEnsemble)
        velocities = np.ascontiguousarray(velocities, dtype=float)
        velocities.setflags(write=False)
        new.velocities = velocities
        new.weights = self.weights
        return new


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform tensor grid of cell midpoints of [-L, L]^d, fixed in time."""

    dim: int
    half_width: float
    cells_per_dim: int
    _centers: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError("half_width must be positive")
        if self.cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.cells_per_dim

    @property
    def cell_volume(self):
        return self.spacing**self.dim

    @property
    def axis(self):
        """Cell-midpoint coordinates along one dimension, shape (n,)."""
        n, h = self.cells_per_dim, self.spacing
        return -self.half_width + (np.arange(n) + 0.5) * h

    @property
    def centers(self):
        """All cell centers, shape (n^d, d), C-ordered over the axes."""
        if self._centers is None:
            mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
            centers = np.stack([m.reshape(-1) for m in mesh], axis=-1)
            object.__setattr__(self, "_centers", centers)
        return self._centers

    @property
    def num_cells(self):
        return self.cells_per_dim**self.dim


def init_from_density(density, grid, w_floor_rel=1e-15):
    """Project a density onto one particle per grid cell, w_i = f(v_i^c) h^d.

    Cells whose weight is at or below w_floor_rel times the maximal cell weight
    are dropped; they cost O(N) forever while contributing below rounding.
    """
    vals = np.asarray(density(grid.centers), dtype=float)
    if vals.shape != (grid.num_cells,):
        raise ValueError("density must return one value per grid center")
    if not np.all(np.isfinite(vals)):
        raise ValueError("density produced non-finite values on the grid")
    if np.any(vals < 0):
        raise ValueError("density must be nonnegative on the grid centers")
    w = vals * grid.cell_volume
    keep = w > w_floor_rel * w.max() if w.max() > 0 else np.zeros(w.shape, bool)
    if not np.any(keep):
        raise EmptyEnsembleError("all cell weights fall below the weight floor")
    return ParticleEnsemble(grid.centers[keep], w[keep])


def _axis_factors(points_1d, axis, eps):
    """exp(-(x - g_a)^2 / (2 eps)) for every point/axis-node pair, shape (P, n)."""
    diff = points_1d[:, None] - axis[None, :]
    return np.exp(-(diff * diff) / (2.0 * eps)), diff


def mollified_grid_density(ens, grid, mol):
    """Density sum_k w_k psi_eps(v_l^c - v_k) and its log at every cell.

    Returns (density, log_density), both shape (n^d,). The log is computed from
    the fast tensor-product sum where it does not underflow, by log-sum-exp
    over per-particle exponents where it does, and is clamped below at
    log(min w) - 745 so it is never -inf.
    """
    v, w = ens.velocities, ens.weights
    axis = grid.axis
    n, d = grid.cells_per_dim, grid.dim
    factors = [_axis_factors(v[:, s], axis, mol.eps)[0] for s in range(d)]  # (N, n) each
    if d == 2:
        dens = (factors[0] * w[:, None]).T @ factors[1]  # (n, n)
    else:
        dens = np.zeros((n, n, n))
        pblock = max(1, int(2.5e7 / (n * n)))
        for lo in range(0, ens.size, pblock):
            sl = slice(lo, lo + pblock)
            tail = (factors[1][sl, None, :] * factors[2][sl, :, None]) * w[sl, None, None]
            # tail[k, c, b] = w_k E2[k,b] E3[k,c]; contract particles against E1
            dens += np.tensordot(factors[0][sl], tail, axes=([0], [0])).transpose(0, 2, 1)
    dens = dens.reshape(-1) * mol.norm_const

    floor = np.log(w.min()) - 745.0
    log_dens = np.full(dens.shape, floor)
    ok = dens > _DENSITY_TINY
    log_dens[ok] = np.log(dens[ok])
    tiny = np.flatnonzero(~ok)
    if tiny.size:
        # exact log-sum-exp over particles for the underflowed cells
        logw = np.log(w) + np.log(mol.norm_const)
        cblock = max(1, int(2.0e7 / ens.size))
        for lo in range(0, tiny.size, cblock):
            idx = tiny[lo : lo + cblock]
            cells = grid.centers[idx]
            expo = logw[None, :] - (
                np.sum((cells[:, None, :] - v[None, :, :]) ** 2, axis=-1)
                / (2.0 * mol.eps)
            )
            log_dens[idx] = np.maximum(logsumexp(expo, axis=1), floor)
    return dens, log_dens


def grid_log_density(ens, grid, mol):
    """log(sum_k w_k psi_eps(v_l^c - v_k)) per cell, underflow clamped."""
    return mollified_grid_density(ens, grid, mol)[1]


def score_field(ens, grid, mol, targets, log_density=None):
    """Entropy score F(x) = sum_l h^d grad psi_eps(x - v_l^c) log density_l.

    Evaluates the midpoint-quadrature sum over all grid cells at each target,
    shape (T, d). Pass a precomputed log_density to reuse the per-step cache.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if log_density is None:
        log_density = grid_log_density(ens, grid, mol)
    axis = grid.axis
    n, d = grid.cells_per_dim, grid.dim
    scale = grid.cell_volume * mol.norm_const / mol.eps
    t_total = targets.shape[0]
    block = max(1, int(1.5e7 / max(n ** (d - 1), 1)))
    out = np.empty((t_total, d))
    ld = log_density.reshape((n,) * d)
    for lo in range(0, t_total, block):
        x = targets[lo : lo + block]
        gs, diffs = [], []
        for s in range(d):
            g, diff = _axis_factors(x[:, s], axis, mol.eps)
            gs.append(g)
            diffs.append(diff * g)
        if d == 2:
            out[lo : lo + block, 0] = -scale * np.sum((diffs[0] @ ld) * gs[1], axis=1)
            out[lo : lo + block, 1] = -scale * np.sum((gs[0] @ ld) * diffs[1], axis=1)
        else:
            t_d1 = np.tensordot(diffs[0], ld, axes=([1], [0]))  # (T, n, n)
            t_g1 = np.tensordot(gs[0], ld, axes=([1], [0]))
            out[lo : lo + block, 0] = -scale * np.einsum(
                "ic,ic->i", np.einsum("ibc,ib->ic", t_d1, gs[1]), gs[2]
            )
            out[lo : lo + block, 1] = -scale * np.einsum(
                "ic,ic->i", np.einsum("ibc,ib->ic", t_g1, diffs[1]), gs[2]
            )
            out[lo : lo + block, 2] = -scale * np.einsum(
                "ic,ic->i", np.einsum("ibc,ib->ic", t_g1, gs[1]), diffs[2]
            )
    return out


def velocity_field_direct(ens, scores, spec):
    """Exact summation of U_i = -sum_j w_j A(v_i - v_j)[F_i - F_j] over all pairs.

    Pairs with |v_i - v_j| <= Z_FLOOR are skipped. For gamma = 0 the collision
    matrix is a quadratic polynomial in the velocities, so the double sum
    factors exactly through a handful of global weighted moments and is
    evaluated in O(N) (the same sum, reassociated; sub-floor pairs contribute
    an exact zero bracket there). Otherwise the pairs are swept once per
    unordered pair of PAIR_TILE-square tiles (see _velocity_field_pairs), in
    fixed tile order.
    """
    v, w = ens.velocities, ens.weights
    f = np.asarray(scores, dtype=float)
    n, d = v.shape
    if f.shape != (n, d):
        raise ValueError("scores must be evaluated at the particle locations")
    if n == 1:
        return np.zeros((1, d))
    if spec.gamma == 0.0:
        return _velocity_field_maxwell(v, w, f, spec.prefactor)
    return _velocity_field_pairs(v, w, f, spec.gamma, spec.prefactor)


def _velocity_field_pairs(v, w, f, gamma, prefactor):
    """Symmetric tiled O(N^2) pair sum for gamma != 0.

    With z = v_i - v_j, dF = F_i - F_j, k0 = |z|^gamma (0 for |z| <= Z_FLOOR),
    k1 = k0 |z|^2 and g = k0 (z . dF),
      U_i = -B [(F_i sum_j k1 w_j - sum_j k1 w_j F_j)
                - (v_i sum_j g w_j - sum_j g w_j v_j)].
    k1 and g are symmetric in (i, j), so each tile pair I <= J is evaluated
    once: rows I contract the (I, J) tiles against B w_J [1, F_J] and
    B w_J [1, v_J], rows J contract their transposes against the I rows.
    z and dF are formed exactly per pair, so close pairs lose no precision.
    """
    n, d = v.shape
    # Over a tile, the pairwise differences a_i - b_j of each component of v
    # (s < d) and F (s >= d) are the rank-2 products [a_i, 1] . [1, -b_j] of
    # left and right. Both products are exact, so BLAS returns the correctly
    # rounded difference, several times faster than np.subtract.outer.
    comp = np.concatenate([v.T, f.T])  # (2d, N)
    left = np.stack([comp, np.ones_like(comp)], axis=-1)  # (2d, N, 2)
    right = np.stack([np.ones_like(comp), -comp], axis=1)  # (2d, 2, N)
    bw = prefactor * w
    weights = np.stack([  # (2, N, d+1): B w [1, F] and B w [1, v]
        np.column_stack([bw, bw[:, None] * f]),
        np.column_stack([bw, bw[:, None] * v]),
    ])
    acc = np.zeros((2, n, d + 1))  # sum_j k1 B w_j [1, F_j], sum_j g B w_j [1, v_j]
    half_gamma = 0.5 * gamma
    floor2 = Z_FLOOR * Z_FLOOR
    diff_buf = np.empty((2 * d, PAIR_TILE, PAIR_TILE))
    pair_buf = np.empty((2, PAIR_TILE, PAIR_TILE))
    k0_buf = np.empty((PAIR_TILE, PAIR_TILE))
    for lo_i in range(0, n, PAIR_TILE):
        rows_i = slice(lo_i, lo_i + PAIR_TILE)
        for lo_j in range(lo_i, n, PAIR_TILE):
            rows_j = slice(lo_j, lo_j + PAIR_TILE)
            ti, tj = min(n - lo_i, PAIR_TILE), min(n - lo_j, PAIR_TILE)
            diffs = diff_buf[:, :ti, :tj]  # z then dF, per component
            pair = pair_buf[:, :ti, :tj]  # r^2 and z . dF, then k1 and g
            k0 = k0_buf[:ti, :tj]
            np.matmul(left[:, rows_i], right[:, :, rows_j], out=diffs)
            z = diffs[:d]
            np.einsum("sij,sij->ij", z, z, out=pair[0])
            np.einsum("sij,sij->ij", z, diffs[d:], out=pair[1])
            r2 = pair[0]
            near = r2 <= floor2
            if near.any():  # diagonal tiles, coincident particles
                np.power(r2, half_gamma, out=k0, where=~near)
                k0[near] = 0.0
            else:
                np.power(r2, half_gamma, out=k0)
            np.multiply(pair, k0, out=pair)
            acc[:, rows_i] += np.matmul(pair, weights[:, rows_j])
            if lo_j != lo_i:
                acc[:, rows_j] += np.matmul(pair.transpose(0, 2, 1), weights[:, rows_i])
    acc_f, acc_v = acc
    return -((f * acc_f[:, :1] - acc_f[:, 1:]) - (v * acc_v[:, :1] - acc_v[:, 1:]))


def _velocity_field_maxwell(v, w, f, prefactor):
    """O(N) moment form of the pair sum for the polynomial gamma = 0 kernel.

    With z = v_i - v_j and dF = F_i - F_j,
      U_i = -B sum_j w_j [ |z|^2 dF - (z . dF) z ],
    and every |z|^2 / z x z factor expands into source moments
    sum_j w_j {1, v_j, |v_j|^2, v_j v_j^T, F_j, v_j F_j^T, |v_j|^2 F_j,
    v_j . F_j, (v_j . F_j) v_j}.
    """
    a = np.einsum("id,id->i", v, v)
    m0 = float(np.sum(w))
    m1 = w @ v
    m2 = float(np.sum(w * a))
    mvv = v.T @ (w[:, None] * v)
    g0 = w @ f
    gvf = v.T @ (w[:, None] * f)  # gvf[a, b] = sum w v_a F_b
    g2 = (w * a) @ f
    vdotf = np.einsum("id,id->i", v, f)
    gdot = float(np.sum(w * vdotf))
    gvdot = (w * vdotf) @ v
    s = a * m0 - 2.0 * (v @ m1) + m2
    bmat = a[:, None] * g0[None, :] - 2.0 * (v @ gvf) + g2[None, :]
    zf = (
        m0 * vdotf[:, None] * v
        - (f @ m1)[:, None] * v
        - vdotf[:, None] * m1[None, :]
        + f @ mvv
    )
    c2s = (v @ g0)[:, None] * v - gdot * v - v @ gvf.T + gvdot[None, :]
    return -prefactor * (s[:, None] * f - bmat - zf + c2s)


def min_pair_distance(ens):
    """Minimum pairwise particle distance; monitors Coulomb near-singularity risk."""
    if ens.size < 2:
        raise ValueError("min_pair_distance needs at least two particles")
    tree = cKDTree(ens.velocities)
    dists, _ = tree.query(ens.velocities, k=2)
    return float(dists[:, 1].min())
