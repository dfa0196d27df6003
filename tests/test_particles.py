"""Ensemble initialization, grid sums, score field, direct velocities."""

import tracemalloc

import numpy as np
import pytest

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
from landau_particles.particles import (
    PAIR_TILE,
    _axis_factors,
    _density_tiny,
    mollified_grid_density,
)

from helpers import naive_velocity_field


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


def _naive_log_density(ens, grid, mol):
    """log(sum_k w_k psi_eps(v_l - v_k)) per cell, summed in extended precision."""
    cells = grid.centers.astype(np.longdouble)
    v = ens.velocities.astype(np.longdouble)
    w = ens.weights.astype(np.longdouble)
    r2 = np.sum((cells[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    terms = w * np.longdouble(mol.norm_const) * np.exp(-r2 / (2 * np.longdouble(mol.eps)))
    with np.errstate(divide="ignore"):
        return np.log(np.sum(terms, axis=1))


def _assert_log_density_matches_naive(ens, grid, mol):
    vals = grid_log_density(ens, grid, mol)
    naive = _naive_log_density(ens, grid, mol)
    floor = np.log(ens.weights.min()) - 745.0
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
    ref_dens, ref_log = mollified_grid_density(ens, grid, mol)
    assert np.array_equal(dens, ref_dens)
    assert np.array_equal(log_dens, ref_log)
    assert np.array_equal(scores, score_field(ens, grid, mol, ens.velocities))
    (dens2, log_dens2), scores2 = grid_fields(ens, grid, mol)
    assert np.array_equal(dens2, dens)
    assert np.array_equal(log_dens2, log_dens)
    assert np.array_equal(scores2, scores)


@pytest.mark.parametrize("dim,n_cells", [(2, 40), (3, 40)])
def test_grid_sums_hold_no_subnormals(dim, n_cells):
    rng = np.random.default_rng(50 + dim)
    grid = QuadratureGrid(dim=dim, half_width=4.0, cells_per_dim=n_cells)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=dim)
    ens = _spread_ensemble(rng, dim, 400, grid)
    tiny = np.finfo(float).tiny
    # the unflushed factors would include subnormals
    diff = ens.velocities[:, :, None] - grid.axis
    raw = -(diff * diff) / (2.0 * mol.eps)
    assert np.any((raw > -745.0) & (raw < np.log(tiny)))
    factors = _axis_factors(ens.velocities, grid, mol)
    (dens, log_dens), scores = grid_fields(ens, grid, mol)
    for a in [*factors, dens, log_dens, scores]:
        assert not np.any((np.abs(a) > 0) & (np.abs(a) < tiny))
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
