"""Forward-Euler stepping, domain monitoring, and the run driver."""

import math
import mmap
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from landau_particles import ParticleEnsemble, particles, simulate
from landau_particles.config import preset
from landau_particles.output import write_snapshot
from landau_particles.simulate import (
    BlowUpError,
    SimulationConfig,
    SimulationState,
    _advance,
    _mapped_empty,
    check_domain,
    euler_step,
    initial_density,
    make_engine,
    run,
)


def tiny_cfg(**overrides):
    base = replace(
        preset("bkw2d"), cells_per_dim=20, t_end=0.1, snapshot_stride=10**9
    )
    return replace(base, **overrides).validate()


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(dt=-0.1)
    with pytest.raises(ValueError):
        tiny_cfg(t_end=-1.0)  # precedes t_start = 0
    with pytest.raises(ValueError):
        tiny_cfg(engine="treecode", theta=0.0)
    with pytest.raises(ValueError):
        tiny_cfg(initial_condition="rosenbluth")  # needs dim 3
    cfg = tiny_cfg()
    assert cfg.mollifier_eps == pytest.approx(0.64 * cfg.spacing**1.98)


def test_n_steps_rounding():
    assert tiny_cfg(t_end=0.1, dt=0.01).n_steps == 10
    assert tiny_cfg(t_end=0.0).n_steps == 0
    # 0.1/0.02 is not exactly 5 in floats; rounding must not add a step
    assert tiny_cfg(t_end=0.1, dt=0.02).n_steps == 5


def test_check_domain():
    ens = ParticleEnsemble(np.array([[0.5, 0.5], [1.1, 0.0]]), np.ones(2))
    rep = check_domain(ens, 1.0)
    assert rep.escaped_count == 1
    assert rep.max_overshoot == pytest.approx(0.1)
    inside = check_domain(ens, 2.0)
    assert inside.escaped_count == 0 and inside.max_overshoot == 0.0


def test_euler_step_single_particle_fixed():
    cfg = tiny_cfg()
    ens = ParticleEnsemble(np.array([[0.3, -0.7]]), np.ones(1))
    state = SimulationState(time=0.0, step=0, ensemble=ens)
    new = euler_step(state, cfg)
    assert new.step == 1
    assert new.time == pytest.approx(cfg.dt)
    assert np.array_equal(new.ensemble.velocities, ens.velocities)


def test_euler_step_conserves_mass_and_momentum():
    rng = np.random.default_rng(3)
    cfg = tiny_cfg()
    from landau_particles import init_from_density
    from landau_particles.simulate import initial_density

    ens = init_from_density(initial_density(cfg), cfg.grid())
    state = SimulationState(time=0.0, step=0, ensemble=ens)
    new = euler_step(state, cfg)
    w = ens.weights
    assert np.array_equal(new.ensemble.weights, w)
    p0 = w @ ens.velocities
    p1 = w @ new.ensemble.velocities
    scale = math.sqrt(float(np.sum(w)) * float(np.sum(w * np.sum(ens.velocities**2, 1))))
    assert np.all(np.abs(p1 - p0) <= 1e-12 * scale)


def test_euler_step_energy_drift_second_order_locally():
    # one-step energy change scales like dt^2 on a frozen ensemble
    from landau_particles import init_from_density

    cfg1 = tiny_cfg(dt=0.02)
    cfg2 = tiny_cfg(dt=0.01)
    ens = init_from_density(initial_density(cfg1), cfg1.grid())

    def one_step_energy_change(cfg):
        state = SimulationState(time=0.0, step=0, ensemble=ens)
        new = euler_step(state, cfg)
        w = ens.weights
        e0 = float(np.sum(w * np.sum(ens.velocities**2, 1)))
        e1 = float(np.sum(w * np.sum(new.ensemble.velocities**2, 1)))
        return abs(e1 - e0)

    ratio = one_step_energy_change(cfg1) / one_step_energy_change(cfg2)
    assert 3.5 < ratio < 4.5


def test_advance_raises_blow_up_with_context():
    ens = ParticleEnsemble(np.zeros((3, 2)), np.ones(3))
    state = SimulationState(time=0.0, step=4, ensemble=ens)
    bad = np.zeros((3, 2))
    bad[1, 0] = np.inf
    with pytest.raises(BlowUpError) as err:
        _advance(state, bad, 0.1, 0.5)
    assert err.value.step == 5
    assert err.value.particle == 1


def test_run_zero_steps_has_initial_record_only():
    cfg = tiny_cfg(t_end=0.0)
    result = run(cfg)
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.step == 0 and rec.time == 0.0
    assert rec.mass == pytest.approx(1.0, abs=2e-2)


def test_run_deterministic_reruns_bit_identical():
    cfg = tiny_cfg(t_end=0.05)
    r1 = run(cfg)
    r2 = run(cfg)
    for a, b in zip(r1.records, r2.records):
        assert a.mass == b.mass
        assert np.array_equal(a.momentum, b.momentum)
        assert a.energy == b.energy
        assert a.entropy == b.entropy
        assert a.relative_entropy == b.relative_entropy
        assert a.dissipation == b.dissipation
        assert a.min_pair_distance == b.min_pair_distance
    assert np.array_equal(r1.ensemble.velocities, r2.ensemble.velocities)


def test_run_conservation_and_entropy_short():
    cfg = tiny_cfg(t_end=0.2)
    result = run(cfg)
    first, last = result.records[0], result.records[-1]
    assert last.mass == first.mass
    scale = math.sqrt(first.energy * first.mass)
    assert np.max(np.abs(last.momentum - first.momentum)) <= 1e-12 * scale
    ents = [r.entropy for r in result.records]
    assert max(b - a for a, b in zip(ents, ents[1:])) <= 1e-4 * result.grid.spacing**2
    assert min(r.dissipation for r in result.records) >= -1e-12
    assert all(r.escaped_count == 0 for r in result.records)


def test_run_snapshot_schedule():
    seen = []
    cfg = tiny_cfg(t_end=0.1, snapshot_stride=4)

    def on_snapshot(step, t, ens):
        seen.append(step)

    run(cfg, on_snapshot=on_snapshot)
    assert seen == [0, 4, 8, 10]  # stride hits plus the final step
    seen.clear()
    run(replace(cfg, snapshot_stride=0), on_snapshot=on_snapshot)
    assert seen == [10]  # stride 0: the final step only


def test_run_treecode_engine_matches_direct_for_maxwell():
    # gamma = 0: the expansion terminates, so engines agree to rounding
    cfg_d = tiny_cfg(t_end=0.05)
    cfg_t = tiny_cfg(t_end=0.05, engine="treecode", theta=0.5, order=6)
    rd = run(cfg_d)
    rt = run(cfg_t)
    assert np.allclose(
        rd.ensemble.velocities, rt.ensemble.velocities, rtol=0, atol=1e-12
    )


def test_run_maxwellian_stays_near_equilibrium():
    cfg = tiny_cfg(initial_condition="maxwellian", t_end=0.5, cells_per_dim=24)
    result = run(cfg)
    rel0 = result.records[0].relative_entropy
    relT = result.records[-1].relative_entropy
    assert relT <= 2.0 * rel0


def test_run_snapshots_reuse_the_step_density(tmp_path, monkeypatch):
    # one density sum per step, in grid_fields: a snapshot's blob is the
    # step's pair, and its file holds exactly that density
    cfg = tiny_cfg(t_end=0.03, snapshot_stride=1)
    grid, mol = cfg.grid(), cfg.mollifier()
    sums, blobs = [], []
    inner = particles._density

    def counted(*args, **kwargs):
        sums.append(args[0])
        return inner(*args, **kwargs)

    def on_snapshot(step, t, ens):
        paths = write_snapshot(ens, grid, mol, t, tmp_path, tag=f"{step:06d}")
        blob = np.loadtxt(paths[1], delimiter=",", skiprows=1)[:, -1]
        assert np.array_equal(blob, particles._recalled_density(ens, grid, mol)[0])
        blobs.append(step)

    monkeypatch.setattr(particles, "_density", counted)
    run(cfg, on_snapshot=on_snapshot)
    assert blobs == list(range(cfg.n_steps + 1))
    assert len(sums) == cfg.n_steps + 1


def test_mapped_empty_is_a_writable_c_array():
    a = _mapped_empty((2, 5, 3))
    assert a.shape == (2, 5, 3) and a.dtype == np.float64
    assert a.flags.writeable and a.flags.c_contiguous
    a[...] = 1.5
    assert a.sum() == 45.0
    assert _mapped_empty((2, 0, 3)).shape == (2, 0, 3)


def test_run_maps_one_factor_buffer_for_all_steps(monkeypatch):
    # the run's (d, N, n) buffer is a mapping of its own, handed back to the
    # system with the run, never a block of the C heap
    buffers = []
    inner = simulate.grid_fields

    def spy(ens, grid, mol, out=None):
        buffers.append(out)
        return inner(ens, grid, mol, out=out)

    monkeypatch.setattr(simulate, "grid_fields", spy)
    cfg = tiny_cfg(t_end=0.03)
    run(cfg)
    assert len(buffers) == cfg.n_steps + 1
    assert all(b is buffers[0] for b in buffers)
    base = buffers[0]
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)


def test_run_step_allocates_less_than_one_factor_matrix(tmp_path):
    # N = 6400 particles on an 80^2 grid: one (N, n) factor matrix takes 4 MB.
    # Each step's grid_fields writes into the buffer run allocates once, and
    # the snapshot's grid sums build their factors per block of rows.
    cfg = tiny_cfg(cells_per_dim=80, t_end=0.03, snapshot_stride=1)
    grid, mol = cfg.grid(), cfg.mollifier()
    rises = []
    current = []

    def on_snapshot(step, t, ens):
        write_snapshot(ens, grid, mol, t, tmp_path, tag=f"{step:06d}")

    def progress(step, n_steps, rec):
        now, peak = tracemalloc.get_traced_memory()
        if current:
            rises.append(peak - current[-1])
        current.append(now)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        result = run(cfg, on_snapshot=on_snapshot, progress=progress)
    finally:
        tracemalloc.stop()
    assert len(rises) == cfg.n_steps >= 2
    factor_bytes = result.ensemble.size * grid.cells_per_dim * 8
    assert max(rises) < factor_bytes
