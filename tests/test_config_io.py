"""Config grammar, presets, CSV emission, snapshots, CLI plumbing."""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from landau_particles import Mollifier, ParticleEnsemble, QuadratureGrid, blob_eval, cli
from landau_particles.cli import convergence_study, main, treecode_bench
from landau_particles.config import (
    ConfigError,
    PRESETS,
    emit_config,
    parse_config,
    preset,
)
from landau_particles.diagnostics import DiagnosticsRecord, blob_on_grid
from landau_particles.output import (
    RunManifest,
    axis_slice_points,
    read_diagnostics,
    write_diagnostics,
    write_snapshot,
)
from landau_particles.simulate import run


def test_preset_bkw2d_values():
    cfg = preset("bkw2d")
    assert cfg.dim == 2
    assert cfg.gamma == 0.0
    assert cfg.prefactor == 1.0 / 16.0
    assert cfg.half_width == 4.0
    assert cfg.dt == 0.01
    assert (cfg.t_start, cfg.t_end) == (0.0, 5.0)
    assert cfg.eps_coeff == 0.64 and cfg.eps_power == 1.98


def test_preset_rosenbluth_values():
    cfg = preset("rosenbluth")
    assert cfg.dim == 3
    assert cfg.gamma == -3.0
    assert cfg.prefactor == pytest.approx(1.0 / (4.0 * math.pi))
    assert cfg.half_width == 1.0
    assert cfg.dt == 0.2


def test_preset_bkw3d_values():
    cfg = preset("bkw3d")
    assert cfg.dim == 3
    assert cfg.prefactor == 1.0 / 24.0
    assert (cfg.t_start, cfg.t_end) == (5.5, 6.0)


def test_parse_empty_config_is_error():
    with pytest.raises(ConfigError):
        parse_config("")


def test_parse_unknown_keys_listed():
    text = "[simulation]\npreset = bkw2d\nwibble = 3\n\n[kernel]\nwobble = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "wibble" in str(err.value) and "wobble" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[nonsense]\nx = 1\n")


def test_parse_missing_required_keys_listed():
    with pytest.raises(ConfigError) as err:
        parse_config("[simulation]\ndim = 2\n")
    assert "dt" in str(err.value)


def test_parse_bad_value_reported():
    with pytest.raises(ConfigError):
        parse_config("[simulation]\npreset = bkw2d\ndt = fast\n")


def test_parse_rejects_negative_snapshot_stride():
    with pytest.raises(ValueError, match="snapshot_stride"):
        parse_config("[simulation]\npreset = bkw2d\nsnapshot_stride = -3\n")
    assert parse_config("[simulation]\npreset = bkw2d\nsnapshot_stride = 0\n").snapshot_stride == 0


def test_parse_preset_with_overrides():
    cfg = parse_config(
        "[simulation]\npreset = bkw2d\ncells_per_dim = 80\n\n[engine]\nengine = treecode\n"
    )
    assert cfg.cells_per_dim == 80
    assert cfg.engine == "treecode"
    assert cfg.gamma == 0.0  # inherited


@pytest.mark.parametrize("name,extra", [
    ("bkw2d", "\n[kernel]\nprefactor = -1\n"),
    ("bkw2d", "\n[kernel]\ngamma = nan\n"),
    ("bkw2d", "\n[engine]\nengine = treecode\norder = -2\n"),
    ("bkw2d", "\n[engine]\nengine = treecode\nleaf_capacity = 0\n"),
    ("bkw2d", "half_width = inf\n"),
    ("bkw2d", "eps_coeff = nan\n"),
    ("bkw2d", "eps_power = nan\n"),
    ("bkw2d", "t_end = inf\n"),
    ("bkw2d", "dt = inf\n"),
    ("rosenbluth", "\n[initial]\nrosenbluth_sigma = nan\n"),
    ("rosenbluth", "\n[initial]\nrosenbluth_sigma = -0.3\n"),
    ("rosenbluth", "\n[initial]\nrosenbluth_sharpness = -5\n"),
    ("bkw2d", "\n[initial]\nbkw_integration_const = nan\n"),
    ("bkw2d", "\n[initial]\nbkw_integration_const = 0.9\n"),
    ("bkw2d", "\n[initial]\nbkw_integration_const = -1\n"),
], ids=["prefactor", "gamma", "order", "leaf_capacity", "half_width", "eps_coeff",
        "eps_power", "t_end", "dt", "rosenbluth_sigma_nan", "rosenbluth_sigma_negative",
        "rosenbluth_sharpness_negative", "bkw_integration_const_nan", "bkw_k_below_range",
        "bkw_k_above_range"])
def test_parse_rejects_what_the_run_cannot_use(tmp_path, capsys, name, extra):
    # every component the run builds checks its values when the config is
    # parsed, so `run` stops with exit code 2 before it starts; the BKW
    # density is nonnegative only for K(t_start) in [d/(d+2), 1]
    text = f"[simulation]\npreset = {name}\n" + extra
    with pytest.raises(ValueError):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "running" not in capsys.readouterr().out


def test_emit_parse_round_trip_all_presets():
    for name in PRESETS:
        cfg = preset(name)
        assert parse_config(emit_config(cfg)) == cfg
    modified = replace(preset("bkw2d"), cells_per_dim=47, dt=0.004, theta=0.77)
    assert parse_config(emit_config(modified)) == modified


def test_diagnostics_round_trip_bit_exact(tmp_path):
    cfg = replace(preset("bkw2d"), cells_per_dim=16, t_end=0.03, snapshot_stride=10**9)
    result = run(cfg)
    path = tmp_path / "diag.csv"
    write_diagnostics(result.records, path)
    back = read_diagnostics(path)
    assert len(back) == len(result.records)
    for a, b in zip(result.records, back):
        assert a.step == b.step and a.time == b.time
        assert a.mass == b.mass and a.energy == b.energy
        assert np.array_equal(a.momentum, b.momentum)
        assert a.entropy == b.entropy
        assert a.relative_entropy == b.relative_entropy
        assert a.dissipation == b.dissipation
        assert a.min_pair_distance == b.min_pair_distance
        assert a.escaped_count == b.escaped_count


def test_diagnostics_single_record_two_lines(tmp_path):
    cfg = replace(preset("bkw2d"), cells_per_dim=12, t_end=0.0)
    result = run(cfg)
    path = tmp_path / "one.csv"
    write_diagnostics(result.records, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("step,time,mass,mom_1,mom_2,energy")


@pytest.mark.parametrize("dim", [2, 3])
def test_diagnostics_bytes_are_one_repr_per_value(tmp_path, dim):
    # integers stay integers and inf stays inf: each field is repr of the
    # record's int or float
    rng = np.random.default_rng(dim)
    records = [
        DiagnosticsRecord(
            step=k, time=0.01 * k, mass=1.0 + 1e-16 * k, momentum=rng.normal(size=dim) * 1e-17,
            energy=float(dim), entropy=-rng.uniform(), relative_entropy=rng.uniform() * 1e-3,
            dissipation=rng.uniform(), min_pair_distance=math.inf if k < 2 else 0.5 ** k,
            escaped_count=3 * k,
        )
        for k in range(4)
    ]
    path = write_diagnostics(records, tmp_path / "diag.csv")
    mom_cols = ",".join(f"mom_{s + 1}" for s in range(dim))
    lines = [f"step,time,mass,{mom_cols},energy,entropy,rel_entropy,dissipation,min_dist,escaped"]
    for rec in records:
        values = [rec.time, rec.mass, *rec.momentum, rec.energy, rec.entropy,
                  rec.relative_entropy, rec.dissipation, rec.min_pair_distance]
        fields = [repr(rec.step)] + [repr(float(x)) for x in values] + [repr(rec.escaped_count)]
        lines.append(",".join(fields))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert path.read_text().splitlines()[1].endswith(",inf,0")


def test_cli_csv_fields_parse_as_floats(tmp_path, monkeypatch):
    # a missing ratio is written as nan, as in the printed table
    monkeypatch.setattr(cli, "MIN_TIMING_S", 0.0)
    assert main(["treecode-bench", "--n-list", "4,5", "--repeats", "1",
                 "--out", str(tmp_path)]) == 0
    real_study = cli.convergence_study
    monkeypatch.setattr(cli, "convergence_study", lambda name, n_list, **kw: real_study(
        name, n_list, error_hook=lambda n: (8.0 / n) ** 2))
    assert main(["convergence", "--preset", "bkw2d", "--n", "40,60,80",
                 "--out", str(tmp_path)]) == 0
    tables = {}
    for name in ("treecode_bench.csv", "convergence_bkw2d.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        tables[name] = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert [[float(x) for x in row] for row in tables[name]]
    first = dict(zip("n_particles,t_direct,t_treecode,rel_l2,ratio_direct".split(","),
                     tables["treecode_bench.csv"][0]))
    assert first["n_particles"] == "64" and first["ratio_direct"] == "nan"
    assert [row[0] for row in tables["convergence_bkw2d.csv"]] == ["40", "60", "80"]


def test_deterministic_reruns_byte_identical(tmp_path):
    cfg = replace(preset("bkw2d"), cells_per_dim=14, t_end=0.05, snapshot_stride=10**9)
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.csv"
        write_diagnostics(run(cfg).records, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_snapshot_files(tmp_path):
    grid = QuadratureGrid(dim=2, half_width=2.0, cells_per_dim=6)
    mol = Mollifier(eps=0.3, dim=2)
    ens = ParticleEnsemble(np.array([[0.4, -0.2]]), np.array([1.0]))
    paths = write_snapshot(ens, grid, mol, time=0.0, outdir=tmp_path, tag="t0")
    by_name = {os.path.basename(p): p for p in paths}
    particle_lines = open(by_name["particles_t0.csv"]).read().strip().split("\n")
    assert len(particle_lines) == 2  # header + one particle
    blob_lines = open(by_name["blob_t0.csv"]).read().strip().split("\n")
    assert len(blob_lines) == grid.num_cells + 1
    # slice values equal blob_eval at the slice points to bit precision
    for axis in (0, 1):
        lines = open(by_name[f"slice_axis{axis + 1}_t0.csv"]).read().strip().split("\n")[1:]
        vals = np.array([float(ln.split(",")[1]) for ln in lines])
        expected = blob_eval(ens, mol, axis_slice_points(grid, axis))
        assert np.array_equal(vals, expected)


def _per_cell_csv(header, columns):
    """A CSV formatted one repr per cell, the reference for the snapshot files."""
    rows = np.column_stack(columns).tolist()
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@pytest.mark.parametrize("dim,n", [(2, 9), (2, 10), (3, 5), (3, 6)])
def test_snapshot_files_match_per_cell_formatting(tmp_path, dim, n):
    # more particles than one block of formatted rows; an odd n puts a grid
    # axis point at zero
    rng = np.random.default_rng(70 + 10 * dim + n)
    grid = QuadratureGrid(dim=dim, half_width=2.0, cells_per_dim=n)
    mol = Mollifier(eps=0.3, dim=dim)
    v = rng.normal(size=(2500, dim))
    w = rng.uniform(0.2, 1.0, size=2500) / 2500
    ens = ParticleEnsemble(v, w)
    paths = write_snapshot(ens, grid, mol, time=0.0, outdir=tmp_path, tag="t")
    by_name = {os.path.basename(p): p for p in paths}
    vcols = ",".join(f"v_{s + 1}" for s in range(dim))
    expected = {
        "particles_t.csv": _per_cell_csv(f"w,{vcols}", [w, v]),
        "blob_t.csv": _per_cell_csv(
            f"{vcols},blob", [grid.centers, blob_on_grid(ens, grid, mol)]
        ),
    }
    for axis in range(dim):
        expected[f"slice_axis{axis + 1}_t.csv"] = _per_cell_csv(
            f"v_{axis + 1},blob",
            [grid.axis, blob_eval(ens, mol, axis_slice_points(grid, axis))],
        )
    assert sorted(by_name) == sorted(expected)
    for name, text in expected.items():
        with open(by_name[name], encoding="utf-8", newline="") as fh:
            assert fh.read() == text, name


def test_manifest_lists_outputs(tmp_path):
    manifest = RunManifest(config_text="x = 1\n", version="0.0", wall_seconds=1.5,
                           started_unix=1.0e9, outputs=[str(tmp_path / "a.csv")])
    path = manifest.write(tmp_path / "manifest.json")
    payload = json.loads(open(path).read())
    assert payload["outputs"] == [str(tmp_path / "a.csv")]
    assert payload["config"] == "x = 1\n"


def test_convergence_synthetic_hook_slope_two():
    rows, slopes = convergence_study(
        "bkw2d", [40, 60, 80], error_hook=lambda n: (8.0 / n) ** 2
    )
    assert slopes["rel_l2"] == pytest.approx(2.0, abs=1e-12)
    assert slopes["rel_l1"] == pytest.approx(2.0, abs=1e-12)


def test_convergence_requires_three_resolutions():
    with pytest.raises(ValueError):
        convergence_study("bkw2d", [40, 60])


def test_treecode_bench_smoke():
    rows = treecode_bench([6, 8], theta=0.5, order=4, leaf_capacity=32, repeats=1, seed=1)
    assert len(rows) == 2
    assert rows[0]["n_particles"] == 216
    assert rows[1]["rel_l2"] < 1e-3
    assert "ratio_direct" in rows[1]


def test_bench_timing_spans_minimum_time(monkeypatch):
    monkeypatch.setattr(cli, "MIN_TIMING_S", 0.05)
    # each call lasts exactly `pause` seconds on a simulated clock (exact
    # rational time), so the call counts below do not depend on how far a
    # real sleep overshoots
    clock = [Fraction(0)]
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    calls = []

    def evaluation(pause):
        calls.append(pause)
        clock[0] += Fraction(pause)
        return len(calls)

    # short calls repeat until MIN_TIMING_S is spent; every call is timed
    [(times, out)] = cli._call_times([(evaluation, (0.005,))], repeats=2)
    assert len(calls) >= 10 and out == len(calls)
    assert times == [Fraction(0.005)] * len(calls) and sum(times) >= 0.05
    # calls of MIN_TIMING_S / repeats or longer run exactly `repeats` times
    calls.clear()
    [(times, out)] = cli._call_times([(evaluation, (0.03,))], repeats=2)
    assert len(calls) == 2 and out == 2 and times == [Fraction(0.03)] * 2
    # several calls take turns while each still needs samples; a call that
    # has met both conditions sits out, the others keep their own rule
    calls.clear()
    (times_long, out_long), (times_short, out_short) = cli._call_times(
        [(evaluation, (0.03,)), (evaluation, (0.005,))], repeats=2
    )
    assert calls[:4] == [0.03, 0.005, 0.03, 0.005]
    assert calls.count(0.03) == 2 and set(calls[4:]) == {0.005}
    assert calls.count(0.005) >= 10 and out_short == len(calls) and out_long == 3
    assert times_long == [Fraction(0.03)] * 2
    assert times_short == [Fraction(0.005)] * calls.count(0.005)


def test_treecode_bench_rows_report_call_counts_and_medians(monkeypatch):
    # the minimum (and the ratios criterion 7 reads) stays the reported time;
    # the call count and the median sit next to it
    durations = [[4.0, 1.0, 2.0], [9.0, 1.5, 3.0, 2.0], [1.0, 6.0, 2.0], [8.0, 2.0, 3.0, 1.0, 1.5]]
    monkeypatch.setattr(cli, "_call_times", lambda calls, repeats: [
        (durations[i], fn(*args)) for i, (fn, args) in enumerate(calls)
    ])
    rows = treecode_bench([6, 8], theta=0.5, order=4, leaf_capacity=32, repeats=1, seed=1)
    for i, row in enumerate(rows):
        direct, tree = durations[2 * i], durations[2 * i + 1]
        assert row["t_direct"] == min(direct) and row["t_treecode"] == min(tree)
        assert row["calls_direct"] == len(direct) and row["calls_treecode"] == len(tree)
        assert row["t_direct_median"] == float(np.median(direct))
        assert row["t_treecode_median"] == float(np.median(tree))
    assert rows[1]["ratio_treecode"] == rows[1]["t_treecode"] / rows[0]["t_treecode"]


# File times come from the kernel's coarse clock, which may trail time.time()
# by up to one timer tick.
FILE_CLOCK_LAG_S = 0.01


def test_cli_run_end_to_end(tmp_path):
    cfg_text = (
        "[simulation]\npreset = bkw2d\ncells_per_dim = 12\nt_end = 0.02\n"
        "snapshot_stride = 1000000\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    outdir = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(outdir)])
    assert code == 0
    assert (outdir / "diagnostics.csv").exists()
    assert (outdir / "manifest.json").exists()
    assert (outdir / "config.txt").exists()
    payload = json.loads((outdir / "manifest.json").read_text())
    # the manifest records when the run started, before its first snapshot
    assert payload["started_unix"] + payload["wall_seconds"] <= time.time()
    first_snapshot = os.stat(outdir / "particles_000000.csv").st_mtime
    assert payload["started_unix"] <= first_snapshot + FILE_CLOCK_LAG_S
    for rel in payload["outputs"]:
        assert os.path.exists(rel)
    # config echo reproduces the run configuration
    echoed = parse_config((outdir / "config.txt").read_text())
    assert echoed.cells_per_dim == 12


def test_cli_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[simulation]\npreset = nope\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_cli_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    assert "12/12 checks passed" in capsys.readouterr().out


def test_package_imports_without_scipy():
    # cli imports every module of the package; SciPy is a test dependency only
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import landau_particles.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
