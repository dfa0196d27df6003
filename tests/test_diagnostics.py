"""Observables: moments, entropy, dissipation, blob, norms, order fitting."""

import itertools
import tracemalloc

import numpy as np
import pytest

from landau_particles import (
    CollisionKernelSpec,
    Mollifier,
    ParticleEnsemble,
    QuadratureGrid,
    bkw_eval,
    bkw_params,
    blob_eval,
    blob_on_grid,
    discrete_entropy,
    dissipation,
    error_norms,
    fit_convergence_order,
    init_from_density,
    maxwellian,
    moments,
    relative_entropy,
    score_field,
)
from landau_particles.diagnostics import dissipation_from_velocities
from landau_particles.output import axis_slice_points
from landau_particles.particles import PAIR_TILE, _flush, _gauss_factors, velocity_field_direct

from helpers import cancellation_ensemble, naive_dissipation


def test_moments_single_particle():
    ens = ParticleEnsemble(np.array([[1.0, 1.0]]), np.array([2.0]))
    mass, momentum, energy = moments(ens)
    assert mass == 2.0
    assert np.allclose(momentum, [2.0, 2.0])
    assert energy == pytest.approx(4.0)


def test_moments_bkw_projection():
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=60)
    p = bkw_params(2)
    ens = init_from_density(lambda pts: bkw_eval(p, 0.0, pts), grid)
    mass, momentum, energy = moments(ens)
    assert abs(mass - 1.0) < 1e-2
    assert np.all(np.abs(momentum) <= 1e-12)
    assert abs(energy - 2.0) < 1e-2


def test_moments_permutation_invariant():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(40, 3))
    w = rng.uniform(0.1, 1.0, size=40)
    perm = rng.permutation(40)
    m1 = moments(ParticleEnsemble(v, w))
    m2 = moments(ParticleEnsemble(v[perm], w[perm]))
    assert m1[0] == pytest.approx(m2[0], rel=1e-14)
    assert np.allclose(m1[1], m2[1], rtol=1e-13)
    assert m1[2] == pytest.approx(m2[2], rel=1e-13)


def test_discrete_entropy_maxwellian_closed_form():
    # f * psi_eps of a unit Maxwellian is Gaussian with variance 1 + eps, so
    # the entropy integral is -(d/2) log(2 pi e (1 + eps))
    grid = QuadratureGrid(dim=2, half_width=6.0, cells_per_dim=80)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    ens = init_from_density(lambda pts: maxwellian(pts), grid)
    ent = discrete_entropy(ens, grid, mol)
    expected = -np.log(2.0 * np.pi * np.e * (1.0 + mol.eps))
    assert abs(ent - expected) < 5e-3


def test_discrete_entropy_weight_doubling_identity():
    # sum h^d 2g log(2g) = 2 sum h^d g log g + 2 log 2 * (mollified mass)
    rng = np.random.default_rng(6)
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=24)
    mol = Mollifier(eps=0.2, dim=2)
    v = rng.normal(size=(40, 2))
    w = rng.uniform(0.5, 1.5, size=40) / 40
    ens = ParticleEnsemble(v, w)
    doubled = ParticleEnsemble(v, 2 * w)
    e1 = discrete_entropy(ens, grid, mol)
    e2 = discrete_entropy(doubled, grid, mol)
    mol_mass = grid.cell_volume * float(np.sum(blob_on_grid(ens, grid, mol)))
    assert e2 == pytest.approx(2.0 * e1 + 2.0 * np.log(2.0) * mol_mass, rel=1e-10)
    # continuum version: the mollified mass is the total mass up to quadrature
    assert e2 == pytest.approx(2.0 * e1 + 2.0 * np.log(2.0) * np.sum(w), rel=1e-3)


def test_discrete_entropy_translation_invariant_far_from_boundary():
    grid = QuadratureGrid(dim=2, half_width=8.0, cells_per_dim=80)
    h = grid.spacing
    mol = Mollifier(eps=4.0 * h * h, dim=2)
    rng = np.random.default_rng(13)
    v = rng.normal(size=(20, 2)) * 0.5
    w = rng.uniform(0.5, 1.5, size=20) / 20
    shift = np.array([0.27, -0.41])
    e1 = discrete_entropy(ParticleEnsemble(v, w), grid, mol)
    e2 = discrete_entropy(ParticleEnsemble(v + shift, w), grid, mol)
    assert abs(e1 - e2) < 1e-8


def test_relative_entropy_maxwellian_small_positive():
    grid = QuadratureGrid(dim=2, half_width=6.0, cells_per_dim=80)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    ens = init_from_density(lambda pts: maxwellian(pts), grid)
    val = relative_entropy(ens, grid, mol)
    assert 0.0 <= val <= 5e-3


def test_relative_entropy_relabeling_invariant():
    rng = np.random.default_rng(10)
    grid = QuadratureGrid(dim=2, half_width=5.0, cells_per_dim=20)
    mol = Mollifier(eps=0.3, dim=2)
    v = rng.normal(size=(30, 2))
    w = rng.uniform(0.2, 1.0, size=30) / 30
    perm = rng.permutation(30)
    a = relative_entropy(ParticleEnsemble(v, w), grid, mol)
    b = relative_entropy(ParticleEnsemble(v[perm], w[perm]), grid, mol)
    assert a == pytest.approx(b, rel=1e-12)


def test_relative_entropy_moments_reference():
    # against its own conserved-moment Maxwellian, a shifted/heated Maxwellian
    # projection is still near equilibrium
    grid = QuadratureGrid(dim=2, half_width=8.0, cells_per_dim=80)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    ens = init_from_density(
        lambda pts: maxwellian(pts, rho=2.0, mean=[0.5, -0.3], temperature=1.7), grid
    )
    val = relative_entropy(ens, grid, mol, reference="moments")
    assert abs(val) <= 2e-2


def test_dissipation_zero_for_single_particle():
    ens = ParticleEnsemble(np.array([[0.1, 0.2]]), np.ones(1))
    spec = CollisionKernelSpec(gamma=0.0, prefactor=1.0, dim=2)
    assert dissipation(ens, np.zeros((1, 2)), spec) == 0.0


@pytest.mark.parametrize(
    "dim,gamma,n",
    [
        pytest.param(2, 0.0, 30, id="2-0.0"),
        pytest.param(3, -3.0, 30, id="3--3.0"),
        # three pair tiles, the last one partial, with a coincident pair
        # (sub-floor, A = 0) across the first tile boundary
        pytest.param(3, -3.0, 2 * PAIR_TILE + 37, id="3--3.0-tiles"),
    ],
)
def test_dissipation_nonnegative_and_matches_naive(dim, gamma, n):
    rng = np.random.default_rng(dim + 1)
    spec = CollisionKernelSpec(gamma=gamma, prefactor=0.17, dim=dim)
    v = rng.normal(size=(n, dim))
    w = rng.uniform(0.1, 0.9, size=n) / n
    f = rng.normal(size=(n, dim))
    if n > PAIR_TILE:
        v[PAIR_TILE] = v[PAIR_TILE - 1]
    ens = ParticleEnsemble(v, w)
    val = dissipation(ens, f, spec)
    assert val >= -1e-12 * max(abs(val), 1.0)
    oracle = naive_dissipation(v, w, f, gamma, spec.prefactor)
    assert val == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("case", ["drift", "flat_scores", "floor_pair"])
def test_dissipation_matches_naive_under_cancellation(case):
    # the pair tiles read |z|^2, z . dF and |dF|^2 in Gram form from centered
    # v and F; pairs where that form cancels are recomputed from differences
    n = 2 * PAIR_TILE + 37
    v, w, f = cancellation_ensemble(case, n, 3, PAIR_TILE, seed=7)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=0.21, dim=3)
    val = dissipation(ParticleEnsemble(v, w), f, spec)
    assert val == pytest.approx(naive_dissipation(v, w, f, spec.gamma, spec.prefactor), rel=1e-12)


def test_dissipation_memory_bounded():
    # the quadratic form runs over the pair sweep's tiles, not over
    # (block, N, d) difference arrays
    rng = np.random.default_rng(41)
    n = 6000
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1.0 / (4.0 * np.pi), dim=3)
    ens = ParticleEnsemble(rng.normal(size=(n, 3)), rng.uniform(0.2, 1.0, size=n) / n)
    f = rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        dissipation(ens, f, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_dissipation_velocity_identity():
    # D = -sum_i w_i F_i . U_i exactly (symmetrization of the quadratic form)
    rng = np.random.default_rng(42)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1.0 / 16.0, dim=2)
    v = rng.normal(size=(50, 2))
    w = rng.uniform(0.1, 0.9, size=50) / 50
    f = rng.normal(size=(50, 2))
    ens = ParticleEnsemble(v, w)
    u = velocity_field_direct(ens, f, spec)
    d1 = dissipation(ens, f, spec)
    d2 = dissipation_from_velocities(ens, f, u)
    assert d2 == pytest.approx(d1, rel=1e-11)


def test_blob_single_particle_peak_and_positive():
    mol = Mollifier(eps=0.4, dim=3)
    ens = ParticleEnsemble(np.array([[0.2, -0.1, 0.3]]), np.ones(1))
    val = blob_eval(ens, mol, ens.velocities)
    assert val[0] == pytest.approx(mol.norm_const, rel=1e-14)
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 3)) * 2
    assert np.all(blob_eval(ens, mol, pts) >= 0)


def test_blob_maxwellian_projection_center_value():
    grid = QuadratureGrid(dim=2, half_width=6.0, cells_per_dim=60)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    ens = init_from_density(lambda pts: maxwellian(pts), grid)
    val = blob_eval(ens, mol, np.zeros((1, 2)))[0]
    expected = (2.0 * np.pi * (1.0 + mol.eps)) ** (-1.0)
    assert val == pytest.approx(expected, rel=2e-3)


@pytest.mark.parametrize("dim", [2, 3])
def test_blob_matches_extended_precision_where_terms_underflow(dim):
    # a narrow mollifier over a wide cloud: at every point the far particles'
    # terms fall below DBL_MIN, some through products of normal axis factors
    rng = np.random.default_rng(60 + dim)
    mol = Mollifier(eps=0.01, dim=dim)
    v = rng.uniform(-3.0, 3.0, size=(900, dim))
    w = rng.uniform(0.2, 1.0, size=900) / 900
    pts = rng.uniform(-2.0, 2.0, size=(40, dim))
    expo = (pts[:, None, :] - v[None, :, :]) ** 2 / (2.0 * mol.eps)  # -exponents (P, N, d)
    log_tiny = -np.log(np.finfo(float).tiny)
    assert np.all(np.any(expo.sum(axis=-1) > log_tiny, axis=1))
    assert np.any((expo.sum(axis=-1) > log_tiny) & np.all(expo < log_tiny, axis=-1))
    vl, pl = v.astype(np.longdouble), pts.astype(np.longdouble)
    r2 = np.sum((pl[:, None, :] - vl[None, :, :]) ** 2, axis=-1)
    norm = (2.0 * np.pi * np.longdouble(mol.eps)) ** (-np.longdouble(dim) / 2.0)
    exact = np.sum(w * norm * np.exp(-r2 / (2.0 * np.longdouble(mol.eps))), axis=1)
    vals = blob_eval(ParticleEnsemble(v, w), mol, pts)
    assert np.allclose(vals, exact.astype(float), rtol=1e-14, atol=0.0)


def _blob_per_point_factors(ens, mol, points):
    """blob_eval with every point's axis factors built for that point: the
    same blocks, products, flushes and matmul, without shared coordinates."""
    v = ens.velocities
    nw = mol.norm_const * ens.weights
    block = max(1, 2**17 // ens.size)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], block):
        pts = points[lo : lo + block]
        psi = _gauss_factors(pts[:, 0], v[:, 0], mol)
        for s in range(1, ens.dim):
            psi *= _gauss_factors(pts[:, s], v[:, s], mol)
            _flush(psi)
        out[lo : lo + block] = psi @ nw
    return out


@pytest.mark.parametrize("dim,n_particles", [(2, 3000), (3, 700)])
def test_blob_eval_repeated_coordinates_bit_identical_to_per_point_factors(dim, n_particles):
    # points over several blocks that repeat coordinates: axis slices, the grid
    # centers, points drawn from a few values (with both signed zeros), and a
    # narrow mollifier so that flushed factors and products occur
    rng = np.random.default_rng(80 + dim)
    grid = QuadratureGrid(dim=dim, half_width=3.0, cells_per_dim=11)
    v = rng.normal(size=(n_particles, dim)) * 1.5
    ens = ParticleEnsemble(v, rng.uniform(0.2, 1.0, size=n_particles) / n_particles)
    values = np.array([-2.5, -0.0, 0.0, 0.7, 1.3])
    point_sets = [axis_slice_points(grid, s) for s in range(dim)] + [
        grid.centers, values[rng.integers(0, values.size, size=(300, dim))],
        rng.normal(size=(40, dim)),
    ]
    for mol in (Mollifier(eps=0.3, dim=dim), Mollifier(eps=0.004, dim=dim)):
        for pts in point_sets:
            got = blob_eval(ens, mol, pts)
            assert got.tobytes() == _blob_per_point_factors(ens, mol, pts).tobytes()
    # a lone particle whose axis factors at these points are normal and their
    # product subnormal: only the flush makes the values exact zeros
    lone = ParticleEnsemble(np.zeros((1, dim)), np.ones(1))
    pts = (1.7 if dim == 2 else 1.4) * np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
    mol = Mollifier(eps=0.004, dim=dim)
    assert np.all(blob_eval(lone, mol, pts) == 0.0)
    assert np.all(_blob_per_point_factors(lone, mol, pts) == 0.0)


def test_blob_on_grid_matches_pointwise_blob():
    rng = np.random.default_rng(3)
    grid = QuadratureGrid(dim=3, half_width=2.0, cells_per_dim=7)
    mol = Mollifier(eps=0.3, dim=3)
    v = rng.normal(size=(20, 3)) * 0.7
    w = rng.uniform(0.2, 1.0, size=20) / 20
    ens = ParticleEnsemble(v, w)
    fast = blob_on_grid(ens, grid, mol)
    slow = blob_eval(ens, mol, grid.centers)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-300)


def test_error_norms_basics():
    grid = QuadratureGrid(dim=2, half_width=3.0, cells_per_dim=10)
    ref = np.ones(grid.num_cells)
    same = error_norms(ref, ref, grid)
    assert same.l1 == same.l2 == same.linf == 0.0
    c = 0.25
    shifted = error_norms(ref + c, ref, grid)
    assert shifted.l1 == pytest.approx(c * 6.0**2, rel=1e-13)
    assert shifted.linf == pytest.approx(c, rel=1e-13)
    assert shifted.l2 == pytest.approx(c * 6.0, rel=1e-13)


def test_error_norms_matches_brute_force():
    rng = np.random.default_rng(5)
    grid = QuadratureGrid(dim=2, half_width=2.0, cells_per_dim=9)
    a = rng.normal(size=grid.num_cells)
    b = rng.normal(size=grid.num_cells) + 2.0
    res = error_norms(a, b, grid)
    h2 = grid.cell_volume
    diff = a - b
    assert res.l1 == pytest.approx(h2 * np.sum(np.abs(diff)), rel=1e-14)
    assert res.l2 == pytest.approx(np.sqrt(h2 * np.sum(diff**2)), rel=1e-14)
    assert res.linf == pytest.approx(np.max(np.abs(diff)), rel=1e-14)
    assert res.rel_l2 == pytest.approx(res.l2 / np.sqrt(h2 * np.sum(b**2)), rel=1e-14)


def test_error_norms_zero_reference_raises():
    grid = QuadratureGrid(dim=2, half_width=1.0, cells_per_dim=3)
    with pytest.raises(ZeroDivisionError):
        error_norms(np.ones(9), np.zeros(9), grid)


def test_fit_convergence_order():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    assert fit_convergence_order(hs, hs**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_convergence_order(hs, 3.7 * hs) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_convergence_order([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_convergence_order([0.1, 0.2, -0.3], [1.0, 2.0, 3.0])
