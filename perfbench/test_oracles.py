"""Each benchmark check passes on the package's output and fails on a corrupted one.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from landau_particles import (  # noqa: E402
    CollisionKernelSpec,
    Mollifier,
    ParticleEnsemble,
    QuadratureGrid,
    blob_on_grid,
    init_from_density,
    score_field,
    velocity_field_direct,
)


def _ensemble(dim, n=150, seed=3):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=0.6, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n) / n
    return ParticleEnsemble(v, w), rng.normal(size=(n, dim))


def _drop(ens, i=-1):
    keep = np.arange(ens.size) != i % ens.size
    return ParticleEnsemble(ens.velocities[keep], ens.weights[keep])


def _perturb_weight(ens, i=0, factor=1.01):
    w = ens.weights.copy()
    w[i] *= factor
    return ParticleEnsemble(ens.velocities, w)


@pytest.mark.parametrize("dim,gamma", [(2, 0.0), (3, -3.0)])
def test_pairwise_check(dim, gamma):
    ens, f = _ensemble(dim)
    spec = CollisionKernelSpec(gamma=gamma, prefactor=1.0 / 16.0, dim=dim)
    targets = np.arange(ens.size - 1)
    naive = oracles.pairwise_velocity_field(
        ens.velocities, ens.weights, f, gamma, spec.prefactor, targets
    )
    engine = velocity_field_direct(ens, f, spec)[targets]
    assert oracles.check_pairwise(engine, naive, 1e-10) == []
    assert oracles.check_pairwise(-engine, naive, 1e-10)
    dropped = velocity_field_direct(_drop(ens), f[:-1], spec)
    assert oracles.check_pairwise(dropped, naive, 1e-10)
    reweighted = velocity_field_direct(_perturb_weight(ens), f, spec)[targets]
    assert oracles.check_pairwise(reweighted, naive, 1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_score_check(dim):
    ens, _ = _ensemble(dim)
    grid = QuadratureGrid(dim=dim, half_width=2.5, cells_per_dim=24 if dim == 2 else 12)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=dim)
    centers, h = oracles.cell_centers(dim, grid.half_width, grid.cells_per_dim)
    v, w = ens.velocities, ens.weights
    log_g = oracles.log_gaussian_sum(v, w, mol.eps, centers, oracles.gaussian_sum(v, w, mol.eps, centers))
    targets = v[:20]
    naive = oracles.quadrature_score(centers, log_g, h, mol.eps, targets)
    assert oracles.check_score(score_field(ens, grid, mol, targets), naive) == []
    assert oracles.check_score(-score_field(ens, grid, mol, targets), naive)
    assert oracles.check_score(score_field(_drop(ens), grid, mol, targets), naive)
    assert oracles.check_score(score_field(_perturb_weight(ens), grid, mol, targets), naive)


def test_log_gaussian_sum_matches_log_where_it_underflows():
    v = np.array([[0.0, 0.0], [0.1, 0.0]])
    w = np.array([0.5, 0.5])
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    eps = 1e-3
    direct = oracles.gaussian_sum(v, w, eps, pts)
    assert direct[1] == 0.0
    log_g = oracles.log_gaussian_sum(v, w, eps, pts, direct)
    assert log_g[0] == pytest.approx(np.log(direct[0]))
    expected = np.log(0.5 / (2 * np.pi * eps)) - 2.9**2 / (2 * eps) + np.log1p(np.exp(-(9.0 - 2.9**2) / (2 * eps)))
    assert log_g[1] == pytest.approx(expected, rel=1e-12)


def test_blob_and_exact_checks():
    grid = QuadratureGrid(dim=2, half_width=4.0, cells_per_dim=80)
    mol = Mollifier(eps=0.64 * grid.spacing**1.98, dim=2)
    c, b, t = 0.5, 1.0 / 16.0, 0.0
    ens = init_from_density(lambda p: oracles.bkw_density(2, b, c, t, p), grid)
    centers, _ = oracles.cell_centers(2, grid.half_width, grid.cells_per_dim)
    naive = oracles.gaussian_sum(ens.velocities, ens.weights, mol.eps, centers)
    assert oracles.check_blob(blob_on_grid(ens, grid, mol), naive) == []
    assert oracles.check_blob(blob_on_grid(_perturb_weight(ens, i=ens.size // 2), grid, mol), naive)
    assert oracles.check_blob(blob_on_grid(_drop(ens, int(np.argmax(ens.weights))), grid, mol), naive)
    exact = oracles.bkw_density(2, b, c, t, centers)
    assert oracles.check_exact(naive, exact, 2e-2) == []
    assert oracles.check_exact(1.05 * naive, exact, 2e-2)
    assert oracles.check_exact(naive, oracles.bkw_density(2, b, c, 3.0, centers), 2e-2)


def _diag(steps=5, dt=0.1):
    d = np.full(steps + 1, 0.2)
    s = -np.arange(steps + 1) * dt * 0.2
    return {
        "mass": np.full(steps + 1, 1.0), "mom_1": np.zeros(steps + 1),
        "mom_2": np.zeros(steps + 1), "energy": np.full(steps + 1, 2.0),
        "entropy": s, "dissipation": d, "escaped": np.zeros(steps + 1),
    }


def test_conservation_check():
    w = np.full(4, 0.25)
    v = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert oracles.check_conservation(_diag(), w, v) == []
    bad = _diag()
    bad["mass"][-1] = np.nextafter(1.0, 2.0)
    assert oracles.check_conservation(bad, w, v)
    bad = _diag()
    bad["mom_1"][3] = 1e-9
    assert oracles.check_conservation(bad, w, v)
    assert oracles.check_conservation(_diag(), w[:-1], v[:-1])
    assert oracles.check_conservation(_diag(), w * (1 + 1e-6), v)
    flipped = v.copy()
    flipped[0] *= 2.0
    assert oracles.check_conservation(_diag(), w, flipped)


def test_entropy_check():
    assert oracles.check_entropy(_diag(), 0.1, 0.1, 1e-3) == []
    bad = _diag()
    bad["entropy"][3] = bad["entropy"][2] + 1e-5
    assert oracles.check_entropy(bad, 0.1, 0.1, 1e-3)
    bad = _diag()
    bad["dissipation"][-1] = -1e-14
    assert oracles.check_entropy(bad, 0.1, 0.1, 1e-3)
    bad = _diag()
    bad["dissipation"][1] *= 1.01
    assert oracles.check_entropy(bad, 0.1, 0.1, 1e-3)


def test_escape_check():
    v = np.array([[0.5, -0.5], [0.9, 0.0]])
    assert oracles.check_no_escape(_diag(), v, 1.0) == []
    bad = _diag()
    bad["escaped"][2] = 1
    assert oracles.check_no_escape(bad, v, 1.0)
    assert oracles.check_no_escape(_diag(), v * 2.0, 1.0)
