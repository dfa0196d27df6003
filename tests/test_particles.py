"""Ensemble initialization, grid sums, score field, direct velocities."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from landau_particles import (
    CollisionKernelSpec,
    EmptyEnsembleError,
    Mollifier,
    ParticleEnsemble,
    QuadratureGrid,
    bkw_eval,
    bkw_params,
    grid_fields,
    grid_log_density,
    init_from_density,
    maxwellian,
    min_pair_distance,
    mollifier_eval,
    score_field,
    velocity_field_direct,
)
from landau_particles import particles
from landau_particles.config import preset
from landau_particles.kernels import Z_FLOOR
from landau_particles.particles import (
    _NN_SAMPLES,
    _SCORE_FLUSH_EPS,
    PAIR_TILE,
    _axis_factors,
    _density_tiny,
    _derivative_factors,
    _gauss_factors,
    _logsumexp_rows,
    _recalled_density,
    mollified_grid_density,
)
from landau_particles.simulate import initial_density

from helpers import cancellation_ensemble, naive_velocity_field


def random_ensemble(rng, n, dim, spread=1.0):
    v = rng.normal(size=(n, dim)) * spread
    w = rng.uniform(0.2, 1.0, size=n) / n
    return ParticleEnsemble(v, w)


def test_grid_geometry():
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=8)
    assert grid.spacing == pytest.approx(1.0)
    assert grid.cell_volume == pytest.approx(1.0)
    assert grid.centers.shape == (64, 2)
    assert grid.axis[0] == pytest.approx(-3.5)
    assert grid.axis[-1] == pytest.approx(3.5)
    # centers are the tensor grid of midpoints, symmetric about the origin
    assert np.allclose(np.sort(grid.centers[:, 0]), np.sort(-grid.centers[:, 0]))


def test_weights_are_immutable():
    ens = ParticleEnsemble(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        ens.weights[0] = 2.0


def test_init_constant_density_exact_mass():
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=12)
    c = 0.37
    ens = init_from_density(lambda pts: np.full(pts.shape[0], c), grid)
    assert ens.size == 144
    assert abs(np.sum(ens.weights) - c * 6.0**2) < 1e-12


def test_init_bkw_mass_close_to_one():
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=60)
    p = bkw_params(2)
    ens = init_from_density(lambda pts: bkw_eval(p, 0.0, pts), grid)
    mass = float(np.sum(ens.weights))
    assert 0.99 <= mass <= 1.01
    # independent midpoint quadrature of the closed form gives the same sum
    vals = bkw_eval(p, 0.0, grid.centers)
    keep = vals * grid.cell_volume > 1e-15 * np.max(vals * grid.cell_volume)
    assert mass == pytest.approx(float(np.sum(vals[keep])) * grid.cell_volume, rel=1e-12)


def test_init_gaussian_density_zero_momentum():
    grid = QuadratureGrid(dim=2, half_width=5.0, cells_per_dim=37)
    mol = Mollifier(eps=1.0, dim=2)
    ens = init_from_density(lambda pts: mollifier_eval(pts, mol), grid)
    momentum = ens.weights @ ens.velocities
    assert np.all(np.abs(momentum) < 1e-14)


def test_init_all_below_floor_raises():
    grid = QuadratureGrid(dim=2, half_width=1.0, cells_per_dim=4)
    with pytest.raises(EmptyEnsembleError):
        init_from_density(lambda pts: np.zeros(pts.shape[0]), grid)


def test_grid_log_density_single_particle_peak():
    grid = QuadratureGrid(dim=2, half_width=2.0, cells_per_dim=4)
    mol = Mollifier(eps=0.3, dim=2)
    cell = grid.centers[5]
    ens = ParticleEnsemble(cell[None, :], np.ones(1))
    vals = grid_log_density(ens, grid, mol)
    assert vals[5] == pytest.approx(np.log(mol.norm_const), rel=1e-14)


def test_grid_log_density_symmetric_pair_is_even():
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=10)
    mol = Mollifier(eps=0.4, dim=2)
    v = np.array([[0.7, -0.4], [-0.7, 0.4]])
    ens = ParticleEnsemble(v, np.full(2, 0.5))
    vals = grid_log_density(ens, grid, mol).reshape(10, 10)
    flipped = vals[::-1, ::-1]
    assert np.allclose(vals, flipped, rtol=0, atol=1e-14)


def _naive_log_density(ens, grid, mol, cells=None):
    """log(sum_k w_k psi_eps(v_l - v_k)) at the given cells (default: all),
    summed in extended precision, in blocks of cells."""
    cells = np.arange(grid.num_cells) if cells is None else cells
    v = ens.velocities.astype(np.longdouble)
    w = ens.weights.astype(np.longdouble)
    all_centers = grid.centers
    out = np.empty(cells.size, dtype=np.longdouble)
    for lo in range(0, cells.size, 64):
        centers = all_centers[cells[lo : lo + 64]].astype(np.longdouble)
        r2 = np.sum((centers[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        terms = w * np.longdouble(mol.norm_const) * np.exp(-r2 / (2 * np.longdouble(mol.eps)))
        with np.errstate(divide="ignore"):
            out[lo : lo + 64] = np.log(np.sum(terms, axis=1))
    return out


def _assert_log_density_matches_naive(ens, grid, mol, cells=None):
    vals = grid_log_density(ens, grid, mol)
    naive = _naive_log_density(ens, grid, mol, cells)
    floor = np.log(ens.weights.min()) - 745.0
    vals = vals if cells is None else vals[cells]
    assert np.allclose(vals, np.maximum(naive, floor).astype(float), rtol=0, atol=1e-12)
    return naive, floor


def test_grid_log_density_matches_extended_precision_naive():
    rng = np.random.default_rng(21)
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=15)
    mol = Mollifier(eps=0.21, dim=2)
    _assert_log_density_matches_naive(random_ensemble(rng, 50, 2), grid, mol)


def test_grid_log_density_exact_on_both_sides_of_fast_path_cutoff():
    # A cluster in one corner of a wide box: the density spans the fast-path
    # cutoff, and far cells lie below the clamp floor. Near cell c, particle a
    # contributes just under DBL_MIN through a factor that is flushed, and
    # particle b a density above 1e-300 that is still below the cutoff, so a
    # lower cutoff shows a 1e-8 error there.
    rng = np.random.default_rng(21)
    grid = QuadratureGrid(dim=2, half_width=10.0, cells_per_dim=64)
    mol = Mollifier(eps=0.05, dim=2)
    c = grid.axis[[12, 12]]
    v = np.vstack([8.0 + 0.3 * rng.normal(size=(6, 2)), c + [8.42, 0.0], c + [5.87, 5.87]])
    ens = ParticleEnsemble(v, np.append(rng.uniform(0.1, 1.0, 6), [1.0, 1.0]))
    naive, floor = _assert_log_density_matches_naive(ens, grid, mol)
    cut = np.log(_density_tiny(ens.weights, mol))
    assert np.sum((naive > floor) & (naive <= cut)) > 10
    assert np.sum((naive > cut) & (naive < cut + 20.0)) > 10
    assert np.log(1e-300) < naive[12 * 64 + 12] < cut


def test_grid_log_density_exact_where_contraction_products_underflow():
    # Three particles near one corner of a wide box. Far from them in both
    # axes, a particle's two factors (the first axis's, and the last axis's
    # times norm_const w) are normal while their product underflows; far from
    # them in one axis only, one factor lies below sqrt(DBL_MIN) and the
    # density between the DBL_MIN-based cutoff and the sqrt(DBL_MIN)-based
    # one. The contraction drops both kinds, and log space must restore them.
    grid = QuadratureGrid(dim=2, half_width=10.0, cells_per_dim=64)
    mol = Mollifier(eps=0.05, dim=2)
    c = grid.axis[8]
    ens = ParticleEnsemble(np.array([[c, c], [c + 0.1, c - 0.2], [c - 0.15, c + 0.05]]),
                           np.array([1.0, 0.5, 0.25]))
    naive, floor = _assert_log_density_matches_naive(ens, grid, mol)
    tiny = np.finfo(float).tiny
    first, last = _axis_factors(ens.velocities, grid, mol)
    nw = mol.norm_const * ens.weights
    # cells where each particle's product of two normal factors underflows
    underflow = np.ones(grid.num_cells, bool)
    for k in range(ens.size):
        tail = last[k] * nw[k]
        prod = np.outer(first[k], tail).reshape(-1)
        normal = np.outer(first[k] >= tiny, tail >= tiny).reshape(-1)
        underflow &= normal & (prod < tiny)
    assert np.sum(underflow & (naive > floor)) > 10
    old_cut = np.log(1e16 * tiny * np.sum(np.maximum(nw, 1.0)))
    cut = np.log(_density_tiny(ens.weights, mol))
    assert np.sum((naive > old_cut) & (naive <= cut)) > 100


def _fallback_case(dim):
    """A tight cluster in a wide box: over a thousand cells far from it fall
    below the fast-path cutoff and are summed in log space."""
    rng = np.random.default_rng(70 + dim)
    n_cells, eps, n = {2: (80, None, 6400), 3: (20, 0.01, 2600)}[dim]
    grid = QuadratureGrid(dim=dim, half_width=4.0, cells_per_dim=n_cells)
    mol = Mollifier(eps=eps or 0.64 * grid.spacing**1.98, dim=dim)
    x = rng.normal(size=(n, dim))
    x *= 0.5 * rng.uniform(size=(n, 1)) ** (1.0 / dim) / np.linalg.norm(x, axis=1, keepdims=True)
    return ParticleEnsemble(x, rng.uniform(0.2, 1.0, size=n) / n), grid, mol


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_log_density_fallback_matches_extended_precision(dim):
    ens, grid, mol = _fallback_case(dim)
    dens = mollified_grid_density(ens, grid, mol)[0]
    tiny = np.flatnonzero(dens <= _density_tiny(ens.weights, mol))
    assert tiny.size > 1000
    # every other log-space cell keeps the oracle cheap
    naive, floor = _assert_log_density_matches_naive(ens, grid, mol, tiny[::2])
    assert np.sum(naive > floor) > 100  # not only clamped cells


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_log_density_fallback_memory_bounded(dim):
    # the log-space cells are summed from per-axis exponents, not from
    # (cells, N, d) difference arrays
    ens, grid, mol = _fallback_case(dim)
    tracemalloc.start()
    try:
        mollified_grid_density(ens, grid, mol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_grid_log_density_weight_doubling_adds_log2():
    rng = np.random.default_rng(4)
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=12)
    mol = Mollifier(eps=0.3, dim=2)
    ens = random_ensemble(rng, 30, 2)
    doubled = ParticleEnsemble(ens.velocities, 2.0 * ens.weights)
    a = grid_log_density(ens, grid, mol)
    b = grid_log_density(doubled, grid, mol)
    assert np.allclose(b - a, np.log(2.0), rtol=0, atol=1e-12)


def test_grid_log_density_permutation_invariant():
    rng = np.random.default_rng(16)
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=9)
    mol = Mollifier(eps=0.25, dim=2)
    ens = random_ensemble(rng, 40, 2)
    perm = rng.permutation(40)
    shuffled = ParticleEnsemble(ens.velocities[perm], ens.weights[perm])
    a = grid_log_density(ens, grid, mol)
    b = grid_log_density(shuffled, grid, mol)
    assert np.allclose(a, b, rtol=1e-13, atol=1e-15)


def test_grid_log_density_never_minus_inf():
    # particles confined to a corner of a large domain: far cells underflow
    grid = QuadratureGrid(dim=2, half_width=10.0, cells_per_dim=64)
    mol = Mollifier(eps=0.005, dim=2)
    v = np.array([[8.0, 8.0], [8.2, 8.1]])
    ens = ParticleEnsemble(v, np.array([0.5, 0.5]))
    vals = grid_log_density(ens, grid, mol)
    assert np.all(np.isfinite(vals))
    floor = np.log(ens.weights.min()) - 745.0
    assert np.all(vals >= floor - 1e-9)


def test_score_field_single_particle_at_symmetric_point():
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=20)  # even n
    h = grid.spacing
    mol = Mollifier(eps=0.64 * h**1.98, dim=2)
    ens = ParticleEnsemble(np.zeros((1, 2)), np.ones(1))
    f = score_field(ens, grid, mol, np.zeros((1, 2)))
    assert np.all(np.abs(f) < 1e-12)


def test_score_field_matches_naive_quadrature_sum():
    rng = np.random.default_rng(12)
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=11)
    mol = Mollifier(eps=0.3, dim=2)
    ens = random_ensemble(rng, 25, 2)
    targets = rng.normal(size=(7, 2))
    fast = score_field(ens, grid, mol, targets)
    logs = grid_log_density(ens, grid, mol)
    for t in range(7):
        z = targets[t] - grid.centers
        grad = -(z / mol.eps) * mollifier_eval(z, mol)[:, None]
        naive = grid.cell_volume * np.sum(grad * logs[:, None], axis=0)
        assert np.allclose(fast[t], naive, rtol=1e-11, atol=1e-13)


def test_score_field_maxwellian_closed_form():
    # for a Maxwellian, the mollified score is exactly -v / (1 + eps)
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=80)
    h = grid.spacing
    mol = Mollifier(eps=0.64 * h**1.98, dim=2)
    ens = init_from_density(lambda pts: maxwellian(pts), grid)
    target = np.array([[1.0, 0.0]])
    f = score_field(ens, grid, mol, target)[0]
    expected = np.array([-1.0 / (1.0 + mol.eps), 0.0])
    assert np.linalg.norm(f - expected) < 5e-2


def test_score_field_translation_equivariance():
    # eps = 4 h^2 so that grid aliasing of the log-density ridges (spectral
    # width ~ 1/sqrt(eps), halved exponent after the product of spectra) sits
    # below the 1e-8 tolerance; shift is not a multiple of h
    rng = np.random.default_rng(8)
    grid = QuadratureGrid(dim=2, half_width=8.0, cells_per_dim=80)
    h = grid.spacing
    mol = Mollifier(eps=4.0 * h * h, dim=2)
    v = rng.normal(size=(30, 2)) * 0.6
    w = rng.uniform(0.5, 1.5, size=30) / 30
    shift = np.array([0.35, -0.15])
    targets = v[:5]
    base = score_field(ParticleEnsemble(v, w), grid, mol, targets)
    moved = score_field(ParticleEnsemble(v + shift, w), grid, mol, targets + shift)
    assert np.max(np.abs(base - moved)) < 1e-8


def test_score_field_permutation_invariant():
    rng = np.random.default_rng(30)
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=10)
    mol = Mollifier(eps=0.3, dim=2)
    ens = random_ensemble(rng, 20, 2)
    perm = rng.permutation(20)
    shuffled = ParticleEnsemble(ens.velocities[perm], ens.weights[perm])
    targets = rng.normal(size=(6, 2))
    a = score_field(ens, grid, mol, targets)
    b = score_field(shuffled, grid, mol, targets)
    assert np.allclose(a, b, rtol=1e-13, atol=1e-15)


def _spread_ensemble(rng, dim, n, grid):
    """Particles over [-1.5 L, 1.5 L]^d, so some lie outside the grid."""
    v = rng.uniform(-1.5, 1.5, size=(n, dim)) * grid.half_width
    return ParticleEnsemble(v, rng.uniform(1e-12, 1.0, size=n) / n)


@pytest.mark.parametrize("dim,n_cells,n_particles", [(2, 64, 1500), (3, 12, 700)])
def test_grid_fields_bit_identical_to_separate_sums(dim, n_cells, n_particles):
    # more particles than one block of the grid sums holds, in 2D and 3D
    rng = np.random.default_rng(40 + dim)
    grid = QuadratureGrid(dim=dim, half_width=2.0, cells_per_dim=n_cells)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=dim)
    ens = _spread_ensemble(rng, dim, n_particles, grid)
    assert np.any(np.abs(ens.velocities) > grid.half_width)
    (dens, log_dens), scores = grid_fields(ens, grid, mol)
    # the separate sums run in full on another ensemble object with the same
    # particles: grid_fields' pair is recalled only for its own ensemble
    same = ParticleEnsemble(ens.velocities, ens.weights)
    assert _recalled_density(same, grid, mol) is None
    ref_dens, ref_log = mollified_grid_density(same, grid, mol)
    assert ref_dens is not dens and ref_log is not log_dens
    assert np.array_equal(dens, ref_dens)
    assert np.array_equal(log_dens, ref_log)
    assert np.array_equal(scores, score_field(same, grid, mol, same.velocities))
    (dens2, log_dens2), scores2 = grid_fields(ens, grid, mol)
    assert np.array_equal(dens2, dens)
    assert np.array_equal(log_dens2, log_dens)
    assert np.array_equal(scores2, scores)
    # the same with the factors written into a caller's buffer, reused
    buf = np.full((dim, n_particles, n_cells), np.nan)
    for _ in range(2):
        (dens3, log_dens3), scores3 = grid_fields(ens, grid, mol, out=buf)
        assert np.array_equal(buf, _axis_factors(ens.velocities, grid, mol))
        assert np.array_equal(dens3, dens)
        assert np.array_equal(log_dens3, log_dens)
        assert np.array_equal(scores3, scores)
    with pytest.raises(ValueError, match="factor buffer"):
        grid_fields(ens, grid, mol, out=buf[:, 1:])


def test_grid_sums_hold_no_whole_factor_matrix():
    # N = 6400 particles, one per cell of an 80^2 grid: one (N, n) factor
    # matrix takes 4 MB. Outside grid_fields the sums build their factors per
    # block of rows.
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=80)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    ens = init_from_density(maxwellian, grid)
    assert ens.size == grid.num_cells
    # no grid_fields pair of this ensemble to recall: the sums run in full
    assert _recalled_density(ens, grid, mol) is None
    factor_bytes = ens.size * grid.cells_per_dim * 8
    for call in (lambda: mollified_grid_density(ens, grid, mol),
                 lambda: score_field(ens, grid, mol, ens.velocities)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < factor_bytes


def test_density_recalled_only_for_the_last_grid_fields_ensemble():
    rng = np.random.default_rng(44)
    grid = QuadratureGrid(dim=2, half_width=2.0, cells_per_dim=16)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    ens = random_ensemble(rng, 300, 2)
    pair, _ = grid_fields(ens, grid, mol)
    # the same ensemble object with an equal grid and mollifier: the same arrays,
    # read-only (as every density pair is) so no caller can change what a later
    # call recalls
    recalled = mollified_grid_density(ens, replace(grid), replace(mol))
    assert recalled[0] is pair[0] and recalled[1] is pair[1]
    assert grid_log_density(ens, grid, mol) is pair[1]
    assert not pair[0].flags.writeable and not pair[1].flags.writeable
    # another grid or mollifier, or another ensemble, sums again
    for args in ((ens, QuadratureGrid(dim=2, half_width=2.0, cells_per_dim=17), mol),
                 (ens, grid, Mollifier(eps=mol.eps * 1.5, dim=2)),
                 (ens.with_velocities(ens.velocities), grid, mol)):
        assert _recalled_density(*args) is None
        fresh = mollified_grid_density(*args)
        assert fresh[0] is not pair[0]
        assert not fresh[0].flags.writeable and not fresh[1].flags.writeable
    # the next grid_fields replaces the pair; only one is held
    other = random_ensemble(rng, 200, 2)
    other_pair, _ = grid_fields(other, grid, mol)
    assert _recalled_density(ens, grid, mol) is None
    assert _recalled_density(other, grid, mol) is other_pair
    # and the pair goes with its ensemble
    del other, other_pair
    gc.collect()
    assert particles._last_density[3] is None


def test_gauss_factors_refuse_a_strided_out():
    # exponents below log(DBL_MIN) are set to -inf through a flat row view; a
    # reshape of a strided out would copy, and subnormals would reach the sums
    rng = np.random.default_rng(45)
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=40)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    pts = rng.uniform(-6.0, 6.0, size=(300, 2))
    buf = np.zeros((2, 300, 40))
    with pytest.raises(ValueError, match="C-contiguous"):
        _gauss_factors(pts[100:200].T, grid.axis, mol, out=buf[:, 100:200])
    assert np.all(buf == 0.0)
    tiny = np.finfo(float).tiny
    whole = _gauss_factors(pts.T, grid.axis, mol, out=buf)
    assert whole is buf
    assert np.any(whole == 0.0) and not np.any((whole > 0.0) & (whole < tiny))


@pytest.mark.parametrize(
    "dim,n_cells,eps",
    [(2, 40, None), (3, 40, None), (2, 40, 5e-4)],
    ids=["2-40", "3-40", "2-40-small_eps"],
)
def test_grid_sums_hold_no_subnormals(dim, n_cells, eps):
    rng = np.random.default_rng(50 + dim)
    grid = QuadratureGrid(dim=dim, half_width=4.0, cells_per_dim=n_cells)
    mol = Mollifier(eps=eps or 0.64 * grid.spacing**1.98, dim=dim)
    ens = _spread_ensemble(rng, dim, 400, grid)
    if eps:
        # below _SCORE_FLUSH_EPS a factor g just above DBL_MIN sits at
        # |u| = sqrt(2 eps |log DBL_MIN|) < 1, where u g is subnormal
        assert eps < _SCORE_FLUSH_EPS
        u = np.sqrt(2.0 * eps * -np.log(np.finfo(float).tiny)) * (1.0 - 5e-5)
        v = np.vstack([ens.velocities, grid.axis[[5, 9, 14]][:, None] + [u, -u]])
        ens = ParticleEnsemble(v, np.append(ens.weights, [0.1, 0.2, 0.3]))
    tiny = np.finfo(float).tiny

    def subnormal(a):
        return (np.abs(a) > 0) & (np.abs(a) < tiny)

    # the unflushed factors would include subnormals
    diff = ens.velocities[:, :, None] - grid.axis
    raw = -(diff * diff) / (2.0 * mol.eps)
    assert np.any((raw > -745.0) & (raw < np.log(tiny)))
    factors = _axis_factors(ens.velocities, grid, mol)
    # the score's unflushed derivative factors include subnormals exactly
    # when eps < _SCORE_FLUSH_EPS, the only case where they are flushed
    raw_dgs = diff.transpose(1, 0, 2) * factors
    assert np.any(subnormal(raw_dgs)) == (mol.eps < _SCORE_FLUSH_EPS)
    dgs = [_derivative_factors(ens.velocities[:, s], grid.axis, factors[s], mol)
           for s in range(dim)]
    (dens, log_dens), scores = grid_fields(ens, grid, mol)
    for a in [*factors, *dgs, dens, log_dens, scores]:
        assert not np.any(subnormal(a))
    assert np.all(factors[0][raw[:, 0] < np.log(tiny)] == 0.0)


def test_velocity_field_single_particle_is_zero():
    ens = ParticleEnsemble(np.array([[0.3, -0.2]]), np.ones(1))
    spec = CollisionKernelSpec(gamma=0.0, prefactor=1.0 / 16.0, dim=2)
    u = velocity_field_direct(ens, np.array([[1.0, 2.0]]), spec)
    assert np.all(u == 0.0)


def test_velocity_field_matches_naive_double_loop():
    rng = np.random.default_rng(77)
    for dim, gamma in [(2, 0.0), (2, -3.0), (3, 0.0), (3, -3.0)]:
        spec = CollisionKernelSpec(gamma=gamma, prefactor=0.21, dim=dim)
        ens = random_ensemble(rng, 24, dim)
        f = rng.normal(size=(24, dim))
        fast = velocity_field_direct(ens, f, spec)
        naive = naive_velocity_field(ens.velocities, ens.weights, f, gamma, spec.prefactor)
        assert np.allclose(fast, naive, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("gamma", [-3.0, -2.0, -1.0, 1.0])
def test_velocity_field_tiled_matches_naive(dim, gamma):
    # three tiles, the last one partial, so off-diagonal tile pairs and their
    # transposed contributions are exercised; the coincident pairs (sub-floor,
    # A = 0) straddle the first tile boundary and join the first and last tile
    rng = np.random.default_rng(100 + dim * 10 + int(gamma))
    n = 2 * PAIR_TILE + 37
    v = rng.normal(size=(n, dim))
    v[PAIR_TILE] = v[PAIR_TILE - 1]
    v[n - 1] = v[0]
    w = rng.uniform(0.2, 1.0, size=n) / n
    f = rng.normal(size=(n, dim))
    spec = CollisionKernelSpec(gamma=gamma, prefactor=0.21, dim=dim)
    fast = velocity_field_direct(ParticleEnsemble(v, w), f, spec)
    naive = naive_velocity_field(v, w, f, gamma, spec.prefactor)
    assert np.allclose(fast, naive, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("case", ["drift", "flat_scores", "floor_pair"])
def test_velocity_field_tiled_matches_naive_under_cancellation(case, dim):
    # "drift": v_i sum_j g w_j - sum_j g w_j v_j cancels unless v is centered
    # (uncentered, this missed the tolerance by 7-13x); "flat_scores": the
    # Gram form of z . dF needs F centered too (U is ~1e-6 there, so
    # test_dissipation_matches_naive_under_cancellation is the sharper check);
    # "floor_pair": pairs 0.9 Z_FLOOR apart where the Gram form
    # |v_i|^2 + |v_j|^2 - 2 v_i . v_j is off by ~1e-14, so they are skipped
    # only if the skip is decided on the exact |z|^2
    n = 2 * PAIR_TILE + 37
    v, w, f = cancellation_ensemble(case, n, dim, PAIR_TILE, seed=7)
    if case == "floor_pair":
        z = v[PAIR_TILE - 1] - v[PAIR_TILE]
        assert 0.0 < z @ z <= Z_FLOOR**2
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=0.21, dim=dim)
    fast = velocity_field_direct(ParticleEnsemble(v, w), f, spec)
    naive = naive_velocity_field(v, w, f, spec.gamma, spec.prefactor)
    assert np.allclose(fast, naive, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("center", [0.0, 5.0])
@pytest.mark.parametrize("sep", [1e-6, 1e-9])
def test_velocity_field_close_pair_matches_naive(sep, center):
    # a pair sep apart dominates its rows; contracted in the reassociated form
    # v_i sum_j g w_j - sum_j g w_j v_j its term lost |v_i - c| / sep ulp
    # (c the origin uncentered, the weighted mean centered: up to 1e-7 of the
    # row). Along z its term k1 dF - g z is 0 but each part is ~|U_i|, so the
    # rows are compared, each to its own size.
    rng = np.random.default_rng(7)
    n = 2 * PAIR_TILE + 37
    v = rng.normal(size=(n, 3))
    w = rng.uniform(0.2, 1.0, size=n) / n
    f = rng.normal(size=(n, 3))
    v[100] = v[101] = center
    v[101, 0] += sep
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=0.21, dim=3)
    fast = velocity_field_direct(ParticleEnsemble(v, w), f, spec)
    naive = naive_velocity_field(v, w, f, spec.gamma, spec.prefactor)
    err = np.linalg.norm(fast - naive, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(naive, axis=1) + 1e-14)


@pytest.mark.parametrize("dim,gamma", [(2, 0.0), (2, -3.0), (3, 0.0), (3, -3.0)])
def test_velocity_field_conservation_identities(dim, gamma):
    # momentum rate sum w_i U_i = 0 and energy rate sum w_i v_i . U_i = 0;
    # n = 700 spans several pair tiles
    rng = np.random.default_rng(dim * 10 + int(gamma))
    spec = CollisionKernelSpec(gamma=gamma, prefactor=1.0 / 16.0, dim=dim)
    for n in (150, 700):
        ens = random_ensemble(rng, n, dim)
        f = rng.normal(size=(n, dim))
        u = velocity_field_direct(ens, f, spec)
        # reruns are bit-identical (fixed summation order)
        assert np.array_equal(u, velocity_field_direct(ens, f, spec))
        scale = float(np.sum(ens.weights * np.linalg.norm(u, axis=1)))
        mom_rate = ens.weights @ u
        energy_rate = float(np.sum(ens.weights * np.einsum("id,id->i", ens.velocities, u)))
        assert np.all(np.abs(mom_rate) <= 1e-12 * scale)
        assert abs(energy_rate) <= 1e-11 * scale * np.max(np.abs(ens.velocities))


def test_velocity_field_direct_memory_bounded():
    # the pair sweep's temporaries are O(PAIR_TILE^2), not O(N^2 d)
    rng = np.random.default_rng(41)
    n = 6000
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1.0 / (4.0 * np.pi), dim=3)
    ens = random_ensemble(rng, n, 3)
    f = rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        velocity_field_direct(ens, f, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_velocity_field_maxwellian_stationarity_refines():
    # a Maxwellian is stationary; the residual velocity shrinks under
    # refinement over the mass-carrying core |v|_inf <= L/2 (~91% of the
    # mass). Particles in the exponentially light boundary layer carry scores
    # polluted by the quadrature-box truncation (error ~ |log f(dL)|/sqrt(eps),
    # growing under the eps ~ h^2 rule), so the raw max is a boundary artifact.
    spec = CollisionKernelSpec(gamma=0.0, prefactor=1.0 / 16.0, dim=2)
    maxima = []
    for n in (20, 40, 80):
        grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=n)
        mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
        ens = init_from_density(lambda pts: maxwellian(pts), grid)
        f = score_field(ens, grid, mol, ens.velocities)
        u = velocity_field_direct(ens, f, spec)
        core = np.max(np.abs(ens.velocities), axis=1) <= 0.5 * grid.half_width
        maxima.append(float(np.max(np.linalg.norm(u[core], axis=1))))
    assert maxima[0] > maxima[1] > maxima[2]


def test_min_pair_distance():
    ens = ParticleEnsemble(np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))
    assert min_pair_distance(ens) == pytest.approx(1.0)
    grid = QuadratureGrid(dim=2, half_width=2.0, cells_per_dim=8)
    gens = init_from_density(lambda pts: np.ones(pts.shape[0]), grid)
    assert min_pair_distance(gens) == pytest.approx(grid.spacing, rel=1e-13)
    rng = np.random.default_rng(3)
    rens = random_ensemble(rng, 60, 3)
    brute = np.inf
    for i in range(60):
        for j in range(i + 1, 60):
            brute = min(brute, float(np.linalg.norm(rens.velocities[i] - rens.velocities[j])))
    assert min_pair_distance(rens) == pytest.approx(brute, rel=1e-14)
    with pytest.raises(ValueError):
        min_pair_distance(ParticleEnsemble(np.zeros((1, 2)), np.ones(1)))


def _brute_min_pair_distance(v):
    """sqrt of the smallest squared pair distance, the squares summed over the
    axes in order, as a nearest-neighbour query sums them."""
    best = np.inf
    for lo in range(0, v.shape[0], 256):
        rows = v[lo : lo + 256]
        d2 = (rows[:, None, 0] - v[None, :, 0]) ** 2
        for s in range(1, v.shape[1]):
            d2 += (rows[:, None, s] - v[None, :, s]) ** 2
        d2[np.arange(rows.shape[0]), lo + np.arange(rows.shape[0])] = np.inf
        best = min(best, float(d2.min()))
    return float(np.sqrt(best))


def _preset_ensemble(name, cells_per_dim):
    cfg = replace(preset(name), cells_per_dim=cells_per_dim).validate()
    return init_from_density(initial_density(cfg), cfg.grid())


def _min_pair_cases():
    rng = np.random.default_rng(46)
    cluster = rng.normal(size=(200, 3)) * 1e-6
    zero_axis = rng.uniform(-1.0, 1.0, size=(500, 3))
    zero_axis[:, 1] = 0.25
    coincident = rng.normal(size=(300, 2))
    coincident[[17, 230]] = coincident[99]
    t = np.arange(6400) / 6399.0
    pair = np.array([[1e-19, 2e-19, 3e-19], [1.1e-19, 2e-19, 3e-19]])
    return {
        # lattices: many pairs exactly one spacing apart, up to rounding
        "bkw2d_n40": _preset_ensemble("bkw2d", 40).velocities,
        "rosenbluth": _preset_ensemble("rosenbluth", 20).velocities,
        "coincident": coincident,
        "outlier_beside_cluster": np.vstack([cluster, [[50.0, -40.0, 30.0]]]),
        "two_2d": np.array([[0.1, 0.2], [0.4, -0.3]]),
        "two_3d": np.array([[0.1, 0.2, 0.3], [0.1, -0.3, 0.7]]),
        "zero_extent_axis": zero_axis,
        # clusters far finer than the spread, on cells far finer than a cluster
        "cluster_beside_spread": np.vstack([rng.normal(size=(6000, 2)) * 1e-6,
                                            rng.uniform(-4.0, 4.0, size=(400, 2))]),
        "two_clusters_3d": np.vstack([rng.normal(size=(1300, 3)) * 1e-5,
                                      rng.normal(size=(1300, 3)) * 1e-5 + 1.0]),
        "segment_2d": np.column_stack([0.3 - 0.7 * t, -0.2 + 0.4 * t]),
        # the sampled first point's pair: span / distance > 2^53, past any
        # grid of cells as wide as the distance
        "pair_1e-20_apart": np.vstack([pair, rng.uniform(-1.0, 1.0, size=(500, 3))]),
        # summed in reverse axis order, the squares round to another distance
        "axis_order_3d": np.array([[0.17968599759295922, 0.0559466514441207, 0.5434403893456035],
                                   [-0.578917077366921, -0.7898477745197898, -0.8289705345562239]]),
    }


# clusters, and the lattice with the most candidate pairs per point
_MEMORY_CASES = ("cluster_beside_spread", "two_clusters_3d", "rosenbluth")


@pytest.mark.parametrize("case", sorted(_min_pair_cases()))
def test_min_pair_distance_bitwise_brute_force(case, monkeypatch):
    v = _min_pair_cases()[case]
    searches = []
    inner = particles._min_sq_distance
    monkeypatch.setattr(particles, "_min_sq_distance",
                        lambda x, bound: searches.append(x.shape[1]) or inner(x, bound))
    got = min_pair_distance(ParticleEnsemble(v, np.ones(v.shape[0])))
    assert got == _brute_min_pair_distance(v)
    # the unbounded nearest-neighbour queries give the same float
    assert got == float(cKDTree(v).query(v, k=2)[0][:, 1].min())
    # only the outlier's cluster fills a cell as wide as the cap on cells
    # allows, so its block is searched again on a finer grid
    assert (len(searches) > 1) == (case == "outlier_beside_cluster")
    if case == "coincident":
        assert got == 0.0
    if case == "pair_1e-20_apart":
        assert np.ptp(v, axis=0).max() / got > 2.0**53
    if case == "axis_order_3d":
        z = (v[0] - v[1]) ** 2
        assert got != np.sqrt((z[2] + z[1]) + z[0])
    if case.startswith(("bkw2d", "rosenbluth")):
        spacing = 2.0 * preset(case.split("_")[0]).half_width / (40 if "n40" in case else 20)
        assert got == pytest.approx(spacing, rel=1e-12)


@pytest.mark.parametrize("case", _MEMORY_CASES)
def test_min_pair_distance_memory_is_linear(case):
    v = _min_pair_cases()[case]
    ens = ParticleEnsemble(v, np.ones(v.shape[0]))
    tracemalloc.start()
    try:
        min_pair_distance(ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * ens.size


@pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "unsampled"])
def test_min_pair_distance_memory_is_linear_with_coincident_particles(sampled):
    # 6400 particles, 1000 of them at one point: a list of the coincident pairs
    # alone would take ~8 MB. Either a particle of the nearest-neighbour sample
    # is among them, or none is and the crowded cell they share tightens the
    # bound from its own points. tracemalloc sees every allocation here: the
    # search is numpy arrays only.
    n = 6400
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=80)
    v = grid.centers.copy()
    stride = max(1, n // _NN_SAMPLES)
    idx = np.arange(n)
    pool = idx if sampled else idx[idx % stride != 0]
    v[pool[:1000]] = v[4321]
    assert (np.any(pool[:1000] % stride == 0)) == sampled
    ens = ParticleEnsemble(v, np.ones(n))
    tracemalloc.start()
    try:
        got = min_pair_distance(ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 0.0
    assert peak < 64 * n


def test_logsumexp_rows_matches_scipy():
    rng = np.random.default_rng(47)
    a = rng.uniform(-700.0, 700.0, size=(6, 300))
    a[0, [3, 50, 299]] = 900.0  # ties at the maximum
    a[1, 1::2] = -np.inf
    a[2, :] = 12.5  # every term ties
    a[3] = np.linspace(-1400.0, 0.0, 300)  # terms far below exp's range
    a[4, 1:] = -np.inf  # one finite term
    a[5] = rng.uniform(0.0, 1.0, size=300)
    a[5, [7, 8]] = 1.0  # ties, and the other terms of the same order
    for rows in (a, a[:, :1], np.ascontiguousarray(a[:, ::-1])):
        want = logsumexp(rows, axis=1)
        got = _logsumexp_rows(rows.copy())
        assert np.array_equal(got, want)
