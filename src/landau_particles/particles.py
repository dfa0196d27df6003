"""Particle ensemble, midpoint quadrature grid, and direct-sum field evaluation.

The solver state is a weighted particle measure sum_i w_i delta(v - v_i); the
entropy score at a point x is the midpoint-quadrature sum over the fixed cell
centers v_l of grad psi_eps(x - v_l) * log(sum_k w_k psi_eps(v_l - v_k)), and
the particle velocities are U_i = -sum_j w_j A(v_i - v_j) [F(v_i) - F(v_j)].

All Gaussian grid sums factor over the tensor-product grid, so the density and
score evaluations are organized as per-axis factor matrices
exp(-(x_s - g_a)^2 / (2 eps)) contracted by matmuls: the exact direct sums,
reassociated. Both sums run over blocks of rows (_factor_blocks). grid_fields
builds the particles' (d, N, n) factors once per step, into a buffer the
caller may pass (simulate.run passes one for the whole run), and shares them
between the density and the score at the particles; every other grid sum
builds its factors a few blocks of rows at a time, so beyond the factors the
working set stays small and no whole factor matrix is held. Density pairs
are always returned read-only. grid_fields also remembers its pair for its
ensemble object until the next call or until that ensemble is gone, and
mollified_grid_density returns it for the same ensemble, grid and mollifier:
a snapshot's blob is the step's density, not a second sum.

Factors below the smallest normal double DBL_MIN are set to exact zeros. On
x86, subnormal results go through microcode assists, which made exp and the
matmuls 3-4x slower on a 2-vCPU Intel Xeon VM. The density contraction sets
its operands below sqrt(DBL_MIN) to zero, so each product in it is zero or
normal; each particle then loses at most sqrt(DBL_MIN) * max(norm_const w_k, 1)
at a cell. The fast-path density is used only where it exceeds 1e16 times the
sum of these bounds (about 1e-134 for 6400 particles of mass <= 1/norm_const),
which keeps it within about 1e-16 relative. Cells below that cutoff are
recomputed by log-sum-exp of the per-axis exponents, in (cells, N) blocks of
at most 2^20 doubles, and clamped at log(min w) - 745 so downstream products
stay finite; their density values keep the fast-path sum, off by at most 1e-16
of the cutoff. The score's derivative factors are flushed only where they can
be subnormal, for eps < 1 / (2 |log DBL_MIN|) (see _SCORE_FLUSH_EPS).

The direct velocity sum is O(N) for gamma = 0 (global moments). Otherwise it
visits each unordered pair once, in PAIR_TILE-square tiles. One small matmul
per tile pair reads |v_i - v_j|^2 and (v_i - v_j) . (F_i - F_j) in Gram form
from v and F centered at their weighted means; the few close pairs where that
form cancels are recomputed from exact differences (the closest also add their
terms from them), and one power and two small matrix products finish the
tile. That is 9-11 ns per unordered pair on one core of a 2-vCPU Intel Xeon
VM (13-15 ns with exact differences for every pair), with O(N + PAIR_TILE^2)
memory; diagnostics.dissipation sums over the same tiles.

min_pair_distance is exact in O(N) memory: the particles are hashed to a grid
whose cells are as wide as a sampled nearest-neighbour distance, and the
pairs of neighbouring cells are compared a chunk at a time. Like the
log-sum-exp above (_logsumexp_rows), it needs nothing beyond numpy.
"""

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .kernels import Z_FLOOR

# Smallest normal double (DBL_MIN); grid-sum values below it are flushed to
# zero (see the module docstring).
_TINY = np.finfo(float).tiny
# exp(x) >= DBL_MIN for every x >= _LOG_TINY: exp(log(DBL_MIN)) rounds above it.
_LOG_TINY = float(np.log(_TINY))
# sqrt(DBL_MIN) = 2^-511 exactly: a product of two operands at or above it is
# at or above DBL_MIN. The density contraction flushes its operands below it.
_SQRT_TINY = float(np.sqrt(_TINY))

# A fast-path density cell must exceed the mass dropped by flushing (see
# _density_tiny) by this factor, else it is recomputed in log space.
_FAST_PATH_MARGIN = 1e16

# The score's derivative factors u g, u = x - g_a, are flushed only below this
# eps: 1 / (2 |log DBL_MIN|), with 1% to spare for the rounding of exp. At or
# above it, |u| >= 1 gives u g >= g >= DBL_MIN, and on 1.001 DBL_MIN <= |u| < 1
# log|u| - u^2 / (2 eps), concave in log|u|, stays above log(DBL_MIN) at both
# ends. A smaller |u| needs a subnormal particle coordinate on a zero axis point.
_SCORE_FLUSH_EPS = 1.01 / (2.0 * abs(_LOG_TINY))

# Rows per block of the grid sums times n^(d-1), so that a block's
# (rows, n^(d-1)) arrays take 256 KB each; 2^14 to 2^16 ran fastest.
_BLOCK = 2**15

# Rows times n of the axis factors a grid sum builds at once when it is not
# given them, rounded down to whole blocks (at least one). A 3D block is only
# 81 rows at n = 20, and building factors per block made the density ~8% slower.
_FACTOR_SPAN = 2**13

# Evenly strided particles, of the ensemble and of each crowded cell, whose
# nearest-neighbour distances bound min_pair_distance.
_NN_SAMPLES = 32

# Points a cell of min_pair_distance's grid may hold before the bound is
# tightened from the cell's own points. Such a cell yields at least 32
# samples, and any 5 points in a square or 9 in a cube hold a pair within
# 0.87 of its side, so each tightening shrinks the cells by 13% or more.
_CELL_CAP = 64

# Point pairs min_pair_distance evaluates at once: each of its temporaries
# takes 32 KB.
_PAIR_CHUNK = 2**12

# min_pair_distance's cells are this much wider than the bound, so a pair
# within the bound is never more than one cell apart through the rounding of
# the cell coordinates (at most 2^-22 of a cell, see _cell_keys).
_GRID_SLACK = 1.0 + 2.0**-20

# Side of the square tiles of the gamma != 0 pair sweep. One tile pair holds
# 3 (PAIR_TILE, PAIR_TILE) float arrays, 0.4 MB (4 arrays, 0.5 MB, for the
# dissipation), which stays within a core's L2 cache; 96 ran about 10% slower.
PAIR_TILE = 128

# A Gram-form |z|^2 at or below this share of max_I |v|^2 + max_J |v|^2 is
# recomputed from exact differences (see _pair_tiles); elsewhere its relative
# error stays below about 16 ulp / _GRAM_CUTOFF = 4e-12.
_GRAM_CUTOFF = 2.0**-10


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
        """All cell centers, shape (n^d, d), C-ordered over the axes.

        Built on each access rather than kept, so a grid (and every result
        that holds one) stays a few numbers.
        """
        mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @property
    def num_cells(self):
        return self.cells_per_dim**self.dim


def init_from_density(density, grid, w_floor_rel=1e-15):
    """Project a density onto one particle per grid cell, w_i = f(v_i^c) h^d.

    Cells whose weight is at or below w_floor_rel times the maximal cell weight
    are dropped; they cost O(N) forever while contributing below rounding.
    """
    centers = grid.centers
    vals = np.asarray(density(centers), dtype=float)
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
    return ParticleEnsemble(centers[keep], w[keep])


def _flush(a, floor=_TINY):
    """Set every entry of a with |a| < floor (default DBL_MIN) to an exact zero, in place."""
    np.multiply(a, np.abs(a) >= floor, out=a)
    return a


def _gauss_exponents(x, y, mol, out=None):
    """Gaussian exponents -(x_p - y_a)^2 / (2 eps) of coordinates, shape
    x.shape + (A,)."""
    expo = np.subtract(x[..., None], y, out=out, order="C")
    expo *= expo
    expo /= -2.0 * mol.eps
    return expo


def _gauss_factors(x, y, mol, out=None):
    """exp of _gauss_exponents, into out when given; exponents below
    log(DBL_MIN) are set to -inf first, so exp returns an exact zero there and
    never a subnormal. The masks for that cover blocks of rows of ~2^16
    entries of a flat row view, so out must be C-contiguous (a reshape of any
    other out would mask a copy)."""
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("Gaussian factors need a C-contiguous out")
    expo = _gauss_exponents(x, y, mol, out)
    flat = expo.reshape(-1, expo.shape[-1])
    rows = max(1, 2**16 // flat.shape[1])
    for lo in range(0, flat.shape[0], rows):
        block = flat[lo : lo + rows]
        block[block < _LOG_TINY] = -np.inf
    return np.exp(expo, out=expo)


def _axis_factors(points, grid, mol, out=None):
    """Gaussian factors of every point against the grid axis, shape (d, P, n),
    written into out when given."""
    shape = (grid.dim, points.shape[0], grid.cells_per_dim)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"factor buffer must have shape {shape}")
    return _gauss_factors(points.T, grid.axis, mol, out)


def _factor_blocks(points, grid, mol, factors=None):
    """Yield (rows, g) over the grid sums' blocks of rows of points, with g
    the block's axis factors, shape (d, rows, n).

    g is sliced from factors, the (d, P, n) output of _axis_factors, when it
    is given; otherwise it is built for a span of blocks at a time (see
    _FACTOR_SPAN), so no (P, n) matrix is held.
    """
    n, d = grid.cells_per_dim, grid.dim
    block = max(1, _BLOCK // n ** (d - 1))
    span = block * max(1, _FACTOR_SPAN // (block * n))
    for lo in range(0, points.shape[0], span):
        if factors is None:
            g = _axis_factors(points[lo : lo + span], grid, mol)
        else:
            g = factors[:, lo : lo + span]
        for b in range(0, g.shape[1], block):
            yield slice(lo + b, lo + b + block), g[:, b : b + block]


def _density_tiny(w, mol):
    """Fast-path density below which a cell is recomputed in log space.

    The density contraction drops at most sqrt(DBL_MIN) * max(norm_const w_k, 1)
    per particle and cell, so a fast-path cell above this cutoff is off by at
    most 1 / _FAST_PATH_MARGIN relative.
    """
    return _FAST_PATH_MARGIN * _SQRT_TINY * float(np.sum(np.maximum(mol.norm_const * w, 1.0)))


def _normal_operand(a):
    """Copy of the nonnegative a with entries below sqrt(DBL_MIN) set to zero."""
    return a * (a >= _SQRT_TINY)


def _density(ens, grid, mol, factors=None):
    """(density, log_density) at every cell, read-only, from the particles'
    axis factors when given (see _factor_blocks)."""
    v, w = ens.velocities, ens.weights
    n, d = grid.cells_per_dim, grid.dim
    nw = mol.norm_const * w
    dens = np.zeros((n, n ** (d - 1)))
    for rows, g in _factor_blocks(v, grid, mol, factors):
        # tail[k, (b, c)] = norm_const w_k E2[k, b] E3[k, c]; contract particles
        # against E1. Every operand is zero or >= sqrt(DBL_MIN), so every
        # product is zero or normal.
        tail = _flush(g[-1] * nw[rows, None], _SQRT_TINY)
        if d == 3:
            tail = _normal_operand(g[1])[:, :, None] * tail[:, None, :]
            tail = _flush(tail.reshape(-1, n * n), _SQRT_TINY)
        dens += _normal_operand(g[0]).T @ tail
    dens = dens.reshape(-1)

    floor = np.log(w.min()) - 745.0
    log_dens = np.full(dens.shape, floor)
    ok = dens > _density_tiny(w, mol)
    log_dens[ok] = np.log(dens[ok])
    tiny = np.flatnonzero(~ok)
    if tiny.size:
        # exact log-sum-exp over particles for the cells below the cutoff
        expos = [_gauss_exponents(grid.axis, v[:, s], mol) for s in range(d)]
        lognw = np.log(nw)
        cblock = max(1, 2**20 // ens.size)
        for lo in range(0, tiny.size, cblock):
            idx = tiny[lo : lo + cblock]
            rows = np.unravel_index(idx, (n,) * d)
            expo = lognw + expos[0][rows[0]]
            for s in range(1, d):
                expo += expos[s][rows[s]]
            log_dens[idx] = np.maximum(_logsumexp_rows(expo), floor)
    dens.setflags(write=False)
    log_dens.setflags(write=False)
    return dens, log_dens


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) of a 2-D array with a finite maximum in every
    row, computed in a (which it overwrites) as scipy.special.logsumexp
    computes it: the terms at each row's maximum are counted out of the sum
    of the others' exp(a - max), which goes through log1p."""
    a_max = a.max(axis=1, keepdims=True)
    ties = a == a_max
    m = ties.sum(axis=1, keepdims=True).astype(float)
    a -= a_max
    a[ties] = -np.inf
    s = np.exp(a, out=a).sum(axis=1, keepdims=True)
    s = np.where(s == 0.0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def _derivative_factors(x, axis, g, mol):
    """(x_t - a) g from the factors g, shape (T, n); flushed below DBL_MIN
    only for eps < _SCORE_FLUSH_EPS, the only case where it can be subnormal."""
    dg = (x[:, None] - axis) * g
    return _flush(dg) if mol.eps < _SCORE_FLUSH_EPS else dg


def _score(grid, mol, log_density, targets, factors=None):
    """Score at the targets, in blocks of targets, from their axis factors
    when given (see _factor_blocks)."""
    n, d = grid.cells_per_dim, grid.dim
    axis = grid.axis
    ld = log_density.reshape((n,) * d)
    out = np.empty((targets.shape[0], d))
    for rows, gs in _factor_blocks(targets, grid, mol, factors):
        dgs = [_derivative_factors(targets[rows, s], axis, gs[s], mol) for s in range(d)]
        if d == 2:
            out[rows, 0] = np.einsum("ib,ib->i", dgs[0] @ ld, gs[1])
            out[rows, 1] = np.einsum("ib,ib->i", gs[0] @ ld, dgs[1])
        else:
            t_d1 = np.tensordot(dgs[0], ld, axes=([1], [0]))  # (T, n, n)
            t_g1 = np.tensordot(gs[0], ld, axes=([1], [0]))
            out[rows, 0] = np.einsum("ic,ic->i", np.einsum("ibc,ib->ic", t_d1, gs[1]), gs[2])
            out[rows, 1] = np.einsum("ic,ic->i", np.einsum("ibc,ib->ic", t_g1, dgs[1]), gs[2])
            out[rows, 2] = np.einsum("ic,ic->i", np.einsum("ibc,ib->ic", t_g1, gs[1]), dgs[2])
    out *= -grid.cell_volume * mol.norm_const / mol.eps
    return _flush(out)


# The density pair of the last grid_fields call: (weak reference to its
# ensemble, grid, mollifier, (density, log_density)). A density asked for later
# in the step (a snapshot's blob) recalls it instead of summing again. One
# entry, dropped with its ensemble, so at most one step's pair is held.
_NO_DENSITY = (None, None, None, None)
_last_density = _NO_DENSITY


def _forget_density(ref):
    global _last_density
    if _last_density[0] is ref:
        _last_density = _NO_DENSITY


def _remember_density(ens, grid, mol, density_pair):
    """Keep density_pair as the pair of (ens, grid, mol)."""
    global _last_density
    _last_density = (weakref.ref(ens, _forget_density), grid, mol, density_pair)


def _recalled_density(ens, grid, mol):
    """The remembered pair of (ens, grid, mol), or None."""
    ref, held_grid, held_mol, density_pair = _last_density
    if ref is not None and ref() is ens and held_grid == grid and held_mol == mol:
        return density_pair
    return None


def mollified_grid_density(ens, grid, mol):
    """Density sum_k w_k psi_eps(v_l^c - v_k) and its log at every cell.

    Returns (density, log_density), both shape (n^d,). The log is computed from
    the fast tensor-product sum where the density is above the flushing error
    cutoff (see the module docstring), by log-sum-exp over per-particle
    exponents where it is not, and is clamped below at log(min w) - 745 so it
    is never -inf. Both arrays are read-only. If the last grid_fields call was
    on this ensemble object, grid and mollifier, its pair is returned,
    bit-identical to the sum.
    """
    recalled = _recalled_density(ens, grid, mol)
    return _density(ens, grid, mol) if recalled is None else recalled


def grid_log_density(ens, grid, mol):
    """log(sum_k w_k psi_eps(v_l^c - v_k)) per cell, underflow clamped."""
    return mollified_grid_density(ens, grid, mol)[1]


def score_field(ens, grid, mol, targets):
    """Entropy score F(x) = sum_l h^d grad psi_eps(x - v_l^c) log density_l.

    Evaluates the midpoint-quadrature sum over all grid cells at each target,
    shape (T, d).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    log_density = grid_log_density(ens, grid, mol)
    return _score(grid, mol, log_density, targets)


def grid_fields(ens, grid, mol, out=None):
    """((density, log_density), scores at the particles) for one step.

    Bit-identical to mollified_grid_density(ens, grid, mol) together with
    score_field(ens, grid, mol, ens.velocities). The particles' axis factors
    are built once, shape (d, N, n), and shared by both sums; they are
    written into out when given (simulate.run passes one buffer to every
    step), else into a new array. The density pair is returned read-only and
    remembered until the next call, or until ens is gone, for
    mollified_grid_density on the same ensemble.
    """
    factors = _axis_factors(ens.velocities, grid, mol, out)
    density_pair = _density(ens, grid, mol, factors)
    _remember_density(ens, grid, mol, density_pair)
    return density_pair, _score(grid, mol, density_pair[1], ens.velocities, factors)


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


def _centered(v, w, f):
    """v and F less their weighted means: the pair sums read only differences."""
    total = w.sum()
    return v - (w @ v) / total, f - (w @ f) / total


def _pair_tiles(v, f, vc, fc, gamma, with_df2=False):
    """Sweep every unordered pair once, in PAIR_TILE-square tiles I <= J.

    Yields (rows_i, rows_j, pair, k0, near): |z|^2 and z . dF, then |dF|^2 if
    with_df2, as pair (2 or 3, ti, tj), with z = v_i - v_j and dF = F_i - F_j,
    and k0 = |z|^gamma, 0 for |z| <= Z_FLOOR; buffers reused by the next tile.
    near is None, or (ii, jj, z, dF), by their indices within the tile, for
    the pairs beyond Z_FLOOR with |z|^2 at most _GRAM_CUTOFF^2 times
    max_I |v|^2 + max_J |v|^2, from exact differences.

    One matmul per tile pair reads pair in Gram form from the centered vc and
    fc: (x_i - x_j) . (y_i - y_j) = x_i . y_i + x_j . y_j - x_i . y_j - x_j . y_i
    for (x, y) = (v, v), (v, F) and (F, F). Its absolute error is a few ulp of
    |v_i|^2 + |v_j|^2, so a pair whose |z|^2 is at most _GRAM_CUTOFF times
    max_I |v|^2 + max_J |v|^2, or at most 2 Z_FLOOR^2, is recomputed from
    exact differences of v and F, and the Z_FLOOR skip is decided on that
    exact |z|^2. Diagonal tiles are symmetrized exactly, so pair and k0 are
    symmetric per unordered pair.
    """
    n, d = v.shape
    blocks = [(0, 0), (0, 1), (1, 1)][: 3 if with_df2 else 2]  # v or F by index
    # right[b] has rows 1, x . y, -y, -x for (x, y) = blocks[b]; a tile row's
    # left operand, columns x . y, 1, x, y, is read from it (perm and sign)
    right = np.empty((len(blocks), 2 * d + 2, n))
    for b, (p, q) in enumerate(blocks):
        x, y = (vc, fc)[p], (vc, fc)[q]
        right[b, 0] = 1.0
        np.einsum("id,id->i", x, y, out=right[b, 1])
        np.negative(y.T, out=right[b, 2 : d + 2])
        np.negative(x.T, out=right[b, d + 2 :])
    perm = [1, 0, *range(d + 2, 2 * d + 2), *range(2, d + 2)]
    sign = np.array([1.0, 1.0] + [-1.0] * (2 * d))
    starts = range(0, n, PAIR_TILE)
    tile_max = np.maximum.reduceat(right[0, 1], starts)  # of |v|^2
    half_gamma = 0.5 * gamma
    floor2 = Z_FLOOR * Z_FLOOR
    pair_buf = np.empty((len(blocks), PAIR_TILE, PAIR_TILE))
    k0_buf = np.empty((PAIR_TILE, PAIR_TILE))
    for t_i, lo_i in enumerate(starts):
        rows_i = slice(lo_i, lo_i + PAIR_TILE)
        left = np.ascontiguousarray(right[:, perm, rows_i].transpose(0, 2, 1))
        left *= sign
        for t_j in range(t_i, len(starts)):
            lo_j = starts[t_j]
            rows_j = slice(lo_j, lo_j + PAIR_TILE)
            ti, tj = min(n - lo_i, PAIR_TILE), min(n - lo_j, PAIR_TILE)
            pair = pair_buf[:, :ti, :tj]
            k0 = k0_buf[:ti, :tj]
            np.matmul(left, right[:, :, rows_j], out=pair)
            if t_j == t_i:
                for block in pair:  # through k0, which the power overwrites
                    np.add(block, block.T, out=k0)
                    np.multiply(k0, 0.5, out=block)
            r2 = pair[0]
            cutoff = max(_GRAM_CUTOFF * (tile_max[t_i] + tile_max[t_j]), 2.0 * floor2)
            near = None
            if r2.min() <= cutoff:
                # flatnonzero: a 2D nonzero took 40 us per tile
                ii, jj = np.divmod(np.flatnonzero(r2 <= cutoff), tj)
                diffs = v[lo_i + ii] - v[lo_j + jj], f[lo_i + ii] - f[lo_j + jj]
                pair[:, ii, jj] = [
                    np.einsum("ks,ks->k", diffs[p], diffs[q]) for p, q in blocks
                ]
                near = ii, jj, *diffs
            with np.errstate(divide="ignore"):  # coincident pairs, zeroed below
                np.power(r2, half_gamma, out=k0)
            if near is not None:
                r2_near = pair[0, ii, jj]
                skip = r2_near <= floor2
                k0[ii[skip], jj[skip]] = 0.0
                # pairs whose |v_i - mean| / |z| may exceed 1 / _GRAM_CUTOFF
                close = ~skip & (r2_near <= _GRAM_CUTOFF * cutoff)
                near = tuple(a[close] for a in near) if close.any() else None
            yield rows_i, rows_j, pair, k0, near


def _velocity_field_pairs(v, w, f, gamma, prefactor):
    """Symmetric tiled O(N^2) pair sum for gamma != 0.

    With z = v_i - v_j, dF = F_i - F_j, k0 = |z|^gamma (0 for |z| <= Z_FLOOR),
    k1 = k0 |z|^2 and g = k0 (z . dF),
      U_i = -B [(F_i sum_j k1 w_j - sum_j k1 w_j F_j)
                - (v_i sum_j g w_j - sum_j g w_j v_j)].
    k1 and g are symmetric in (i, j), so each tile pair I <= J of _pair_tiles
    is evaluated once: rows I contract the (I, J) tiles against B w_J [1, F_J]
    and B w_J [1, v_J], rows J contract their transposes against the I rows.
    U reads only differences of v and of F, so v and F enter it centered at
    their weighted means: v_i sum_j g w_j - sum_j g w_j v_j then does not
    cancel for an ensemble far from the origin. It still loses about
    |v_i - mean| / |z| ulp of a pair's term, so the pairs _pair_tiles yields
    as near, where that ratio may exceed 1 / _GRAM_CUTOFF = 1024, add
    B w_j (k1 dF - g z) from their exact differences instead.
    """
    n, d = v.shape
    vc, fc = _centered(v, w, f)
    bw = prefactor * w
    weights = np.stack([  # (2, N, d+1): B w [1, F] and B w [1, v], centered
        np.column_stack([bw, bw[:, None] * fc]),
        np.column_stack([bw, bw[:, None] * vc]),
    ])
    acc = np.zeros((2, n, d + 1))  # sum_j k1 B w_j [1, F_j], sum_j g B w_j [1, v_j]
    close = np.zeros((n, d))  # sum_j B w_j (k1 dF - g z) over the close pairs
    for rows_i, rows_j, pair, k0, near in _pair_tiles(v, f, vc, fc, gamma):
        np.multiply(pair, k0, out=pair)  # k1 and g
        if near is not None:
            ii, jj, z, df = near
            k1, g = pair[:, ii, jj]
            pair[:, ii, jj] = 0.0
            term = k1[:, None] * df - g[:, None] * z
            i, j = rows_i.start + ii, rows_j.start + jj
            np.add.at(close, i, bw[j, None] * term)
            if rows_j != rows_i:  # a diagonal tile holds both (i, j) and (j, i)
                np.subtract.at(close, j, bw[i, None] * term)
        acc[:, rows_i] += np.matmul(pair, weights[:, rows_j])
        if rows_j != rows_i:
            acc[:, rows_j] += np.matmul(pair.transpose(0, 2, 1), weights[:, rows_i])
    acc_f, acc_v = acc
    return -(close + (fc * acc_f[:, :1] - acc_f[:, 1:]) - (vc * acc_v[:, :1] - acc_v[:, 1:]))


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
    """Minimum pairwise particle distance; monitors Coulomb near-singularity risk.

    Exact: the square root of the smallest squared pair distance, the squares
    summed over the axes in order (as nearest-neighbour queries sum them). The
    nearest-neighbour distances of about _NN_SAMPLES evenly strided particles
    bound it; the particles are then hashed to a grid whose cells are that
    bound wide, so every closer pair shares a cell or lies in neighbouring
    ones, and those pairs are compared a chunk at a time (see
    _min_sq_distance). Memory is O(N) on every ensemble, coincident and
    clustered particles included: no cell's pairs are listed at once.
    """
    if ens.size < 2:
        raise ValueError("min_pair_distance needs at least two particles")
    x = ens.velocities.T
    return float(np.sqrt(_min_sq_distance(x, _sampled_sq_distance(x))))


def _sq_distances(a, b):
    """Squared distances between the points a and b, shape (d, ...) and
    broadcast against each other, the squares summed over the axes in order."""
    d2 = a[0] - b[0]
    d2 *= d2
    for s in range(1, a.shape[0]):
        t = a[s] - b[s]
        t *= t
        d2 += t
        del t
    return d2


def _sampled_sq_distance(x):
    """Smallest squared distance from about _NN_SAMPLES evenly strided points
    of x (d, n) to the other points, a chunk of pairs at a time."""
    n = x.shape[1]
    samples = np.arange(0, n, max(1, n // _NN_SAMPLES))
    rows = max(1, _PAIR_CHUNK // n)
    best = np.inf
    for lo in range(0, samples.size, rows):
        r = samples[lo : lo + rows]
        d2 = _sq_distances(x[:, r, None], x[:, None, :])
        d2[np.arange(r.size), r] = np.inf
        best = min(best, float(d2.min()))
    return best


def _cell_keys(x, lo, side, base):
    """The points x (d, n) and their cell keys, sorted by key.

    A point's cell index along axis s is floor((x_s - lo_s) / side), in
    [0, span / side]; the key is that index written as digit s of a number in
    base, so the key of a cell's neighbour differs by a fixed offset. The
    computed index is off by at most (span / side) 2^-52 <= 2^-22 of a cell for
    span / side <= 2^30.
    """
    key = np.zeros(x.shape[1], dtype=np.int64)
    for s in range(x.shape[0]):
        u = x[s] - lo[s]
        u /= side
        np.floor(u, out=u)
        key *= base
        key += u.astype(np.int64)
        del u
    order = np.argsort(key)
    key = key[order]
    return np.take(x, order, axis=1), key


def _row_offsets(d, base):
    """Key offsets from a cell's row (its cells along the last axis) to the
    rows at -1, 0 or +1 along every other axis. An offset is positive exactly
    when the first nonzero step is +1."""
    return [sum(k * base ** (d - 2 - s) for s, k in enumerate(step)) * base
            for step in itertools.product((-1, 0, 1), repeat=d - 1)]


def _ranges_sq_distance(xs, lo, hi):
    """Smallest squared distance between each point xs[:, r] and the points
    xs[:, lo[r]:hi[r]], about _PAIR_CHUNK pairs at a time."""
    sizes = hi - lo
    ends = np.cumsum(sizes)
    best = np.inf
    first = 0
    while first < sizes.size:
        done = ends[first] - sizes[first]
        last = max(first + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        cnt = sizes[first:last]
        i = np.repeat(np.arange(first, last), cnt)
        if i.size:
            j = np.repeat(lo[first:last] - (ends[first:last] - cnt - done), cnt)
            j += np.arange(i.size)
            d2 = _sq_distances(np.take(xs, i, axis=1), np.take(xs, j, axis=1))
            best = min(best, float(d2.min()))
        first = last
    return best


def _min_sq_distance(x, bound):
    """Smallest squared distance between two of the points x (d, n), or bound
    if that is smaller.

    The points are hashed to cells a little wider than sqrt(bound), and a cell
    that holds more than _CELL_CAP points tightens the bound from its own
    sample, after which the points are hashed again. At most 2^(60 // d) cells
    span each axis, which keeps the keys within int64 and the cell indices
    exact to 2^-22; when that cap, not the bound, sets the cell side, each
    crowded cell's block of 3^d cells is searched on its own finer grid, and
    its points leave this one. Then every point is compared with the later
    points of its cell and the next cell along the last axis, and with the
    three cells along the last axis in each later row (_row_offsets): each
    pair within the bound once.
    """
    d, n = x.shape
    lo = x.min(axis=1)
    cells = 2 ** (60 // d)
    base = cells + 2  # digits up to cells, and cells + 1 never used: no offset wraps
    cap = float((x.max(axis=1) - lo).max()) / cells
    side = np.inf
    while bound > 0.0:
        finer = max(np.sqrt(bound) * _GRID_SLACK, cap)
        if finer >= side:
            break
        side = finer
        xs, keys = _cell_keys(x, lo, side, base)
        starts = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [n]])
        crowded = np.flatnonzero(np.diff(starts) > _CELL_CAP)
        if crowded.size == 0:
            break
        for c in crowded:
            bound = min(bound, _sampled_sq_distance(xs[:, starts[c] : starts[c + 1]]))
    if bound == 0.0:
        return 0.0
    rows = _row_offsets(d, base)
    if crowded.size:
        for c in crowded:
            k = keys[starts[c]]
            firsts = np.searchsorted(keys, [k + off - 1 for off in rows])
            stops = np.searchsorted(keys, [k + off + 1 for off in rows], side="right")
            block = np.concatenate([xs[:, a:b] for a, b in zip(firsts, stops)], axis=1)
            bound = _min_sq_distance(block, bound)
            if bound == 0.0:
                return 0.0
        counts = np.diff(starts)
        keep = np.repeat(counts <= _CELL_CAP, counts)
        xs, keys = xs[:, keep], keys[keep]
    stops = np.searchsorted(keys, keys + 1, side="right")
    bound = min(bound, _ranges_sq_distance(xs, np.arange(1, keys.size + 1), stops))
    for off in rows:
        if off > 0:
            firsts = np.searchsorted(keys, keys + off - 1)
            stops = np.searchsorted(keys, keys + off + 1, side="right")
            bound = min(bound, _ranges_sq_distance(xs, firsts, stops))
    return bound
