"""Command-line entry points: run, convergence, treecode-bench, validate."""

import argparse
import math
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .config import emit_config, load_config, preset, PRESETS
from .diagnostics import (
    blob_on_grid,
    dissipation,
    dissipation_from_velocities,
    error_norms,
    fit_convergence_order,
    moments,
)
from .exact import bkw_eval, bkw_params
from .kernels import (
    CollisionKernelSpec,
    Mollifier,
    kernel_matrix,
    mollifier_eval,
    mollifier_grad,
)
from .output import RunManifest, write_csv, write_diagnostics, write_snapshot
from .particles import ParticleEnsemble, QuadratureGrid, init_from_density, score_field, velocity_field_direct
from .simulate import run
from .treecode import (
    TreecodeParams,
    component_pairs,
    multi_indices,
    taylor_coeffs_A,
    taylor_coeffs_gaussian,
    treecode_velocity_field,
)


def _progress_printer(stride):
    def progress(step, n_steps, rec):
        if step % max(stride, 1) == 0 or step == n_steps:
            print(
                f"  step {step:6d}/{n_steps}  t={rec.time:8.3f}  "
                f"mass={rec.mass:.6f}  energy={rec.energy:.6f}  "
                f"entropy={rec.entropy:+.6f}  escaped={rec.escaped_count}",
                flush=True,
            )

    return progress


def cmd_run(args):
    cfg = load_config(args.config)
    if args.engine:
        cfg = replace(cfg, engine=args.engine)
    if args.deterministic:
        cfg = replace(cfg, deterministic=True)
    cfg.validate()
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    outputs = []

    grid = cfg.grid()
    mol = cfg.mollifier()

    def on_snapshot(step, t, ens):
        outputs.extend(write_snapshot(ens, grid, mol, t, outdir, tag=f"{step:06d}"))

    print(f"running {args.config} with engine={cfg.engine} "
          f"(n={cfg.cells_per_dim}, d={cfg.dim}, dt={cfg.dt}, t=[{cfg.t_start}, {cfg.t_end}])")
    started = time.time()
    t0 = time.perf_counter()
    result = run(cfg, on_snapshot=on_snapshot, progress=_progress_printer(cfg.snapshot_stride))
    wall = time.perf_counter() - t0

    diag_path = os.path.join(outdir, "diagnostics.csv")
    write_diagnostics(result.records, diag_path)
    outputs.append(diag_path)
    cfg_path = os.path.join(outdir, "config.txt")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(emit_config(cfg))
    outputs.append(cfg_path)
    manifest = RunManifest(
        config_text=emit_config(cfg), version=__version__, wall_seconds=wall,
        started_unix=started, outputs=outputs,
    )
    manifest_path = os.path.join(outdir, "manifest.json")
    manifest.write(manifest_path)
    first, last = result.records[0], result.records[-1]
    print(f"finished in {wall:.1f}s; {len(result.records)} records -> {diag_path}")
    print(f"  mass drift      {abs(last.mass - first.mass):.3e}")
    print(f"  momentum drift  {np.max(np.abs(last.momentum - first.momentum)):.3e}")
    print(f"  energy drift    {abs(last.energy - first.energy):.3e}")
    print(f"  entropy change  {last.entropy - first.entropy:+.6f}")
    return 0


def convergence_study(preset_name, n_list, engine=None, error_hook=None, progress=False):
    """Blob-solution errors at t_end across resolutions, with fitted slopes.

    Presets with a closed-form solution are compared against it on each run's
    own grid; other presets use the finest run as reference, with every blob
    reconstructed on the common coarsest grid. Returns (rows, slopes): one row
    of relative L1/L2/Linf errors per resolution (but the reference), and the
    least-squares log-log slope per norm. A slope needs three rows, so a
    closed-form preset needs three distinct resolutions and any other preset
    four; ValueError says so before any run.
    """
    base = preset(preset_name)
    need = 3 if base.initial_condition == "bkw" else 4
    if error_hook is None and len(set(n_list)) < need:
        raise ValueError(f"preset {preset_name} needs at least {need} distinct resolutions "
                         f"for a convergence slope, got {sorted(set(n_list))}")
    if engine:
        base = replace(base, engine=engine)
    rows = []
    if error_hook is not None:
        for n in n_list:
            h = 2.0 * base.half_width / n
            err = error_hook(n)
            rows.append({"n": n, "h": h, "rel_l1": err, "rel_l2": err, "rel_linf": err})
    elif base.initial_condition == "bkw":
        params = bkw_params(base.dim, prefactor=base.prefactor,
                            integration_const=base.bkw_integration_const)
        for n in n_list:
            cfg = replace(base, cells_per_dim=n).validate()
            result = run(cfg, progress=_progress_printer(100) if progress else None)
            grid, mol = result.grid, result.mollifier
            blob = blob_on_grid(result.ensemble, grid, mol)
            exact = bkw_eval(params, cfg.t_end, grid.centers)
            errs = error_norms(blob, exact, grid)
            rows.append({
                "n": n, "h": grid.spacing,
                "rel_l1": errs.rel_l1, "rel_l2": errs.rel_l2, "rel_linf": errs.rel_linf,
            })
    else:
        n_sorted = sorted(n_list)
        coarse_grid = replace(base, cells_per_dim=n_sorted[0]).validate().grid()
        results = {}
        for n in n_list:
            cfg = replace(base, cells_per_dim=n).validate()
            results[n] = run(cfg, progress=_progress_printer(100) if progress else None)
        finest = n_sorted[-1]
        ref = blob_on_grid(results[finest].ensemble, coarse_grid, results[finest].mollifier)
        for n in n_sorted[:-1]:
            blob = blob_on_grid(results[n].ensemble, coarse_grid, results[n].mollifier)
            errs = error_norms(blob, ref, coarse_grid)
            rows.append({
                "n": n, "h": 2.0 * base.half_width / n,
                "rel_l1": errs.rel_l1, "rel_l2": errs.rel_l2, "rel_linf": errs.rel_linf,
            })
    slopes = {}
    if len(rows) >= 3:
        hs = [r["h"] for r in rows]
        for norm in ("rel_l1", "rel_l2", "rel_linf"):
            slopes[norm] = fit_convergence_order(hs, [r[norm] for r in rows])
    return rows, slopes


def _row_columns(rows, names):
    """One column per name over the row dicts, nan where a row lacks it."""
    return [np.array([r.get(name, math.nan) for r in rows]) for name in names]


def cmd_convergence(args):
    n_list = [int(tok) for tok in args.n.split(",")]
    rows, slopes = convergence_study(args.preset, n_list, engine=args.engine, progress=True)
    header = f"{'n':>6} {'h':>10} {'rel_L1':>12} {'rel_L2':>12} {'rel_Linf':>12}"
    print(header)
    for r in rows:
        print(f"{r['n']:>6} {r['h']:>10.5f} {r['rel_l1']:>12.5e} "
              f"{r['rel_l2']:>12.5e} {r['rel_linf']:>12.5e}")
    for norm, slope in slopes.items():
        print(f"slope {norm}: {slope:+.3f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"convergence_{args.preset}.csv")
        write_csv(path, "n,h,rel_l1,rel_l2,rel_linf", _row_columns(
            rows, ("n", "h", "rel_l1", "rel_l2", "rel_linf")))
        with open(path, "a", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"# slope {norm} = {slope!r}\n" for norm, slope in slopes.items())
        print(f"wrote {path}")
    return 0


def bench_instance(n_side, seed):
    """Synthetic random 3D ensemble with scores, N = n_side^3 sources in [-1,1]^3."""
    rng = np.random.default_rng(seed)
    n = n_side**3
    v = rng.uniform(-1.0, 1.0, size=(n, 3))
    w = rng.uniform(0.2, 1.0, size=n) / n
    f = rng.normal(size=(n, 3))
    return ParticleEnsemble(v, w), f


# Minimum span of calls behind each treecode_bench timing (see _call_times).
MIN_TIMING_S = 2.0


def treecode_bench(n_list, theta, order, leaf_capacity, repeats=2, seed=0):
    """Time the 3D Coulomb velocity field per engine on synthetic instances.

    This is the engine-differing cost of one collision step (the pairwise
    kernel summation); each timing is the minimum over at least `repeats`
    calls and at least MIN_TIMING_S seconds of calls, with all engines and
    sizes taking turns (see _call_times). Each row also gives the number of
    calls behind each timing and their median, since a short call is timed
    more often than a long one and its minimum is the more favourable.
    Returns one row per resolution with times, the per-target sums' relative
    L2 deviation, and consecutive-size ratios of the minimum times.
    """
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1.0 / (4.0 * np.pi), dim=3)
    params = TreecodeParams(theta=theta, order=order, leaf_capacity=leaf_capacity)
    instances = [bench_instance(n_side, seed) for n_side in n_list]
    calls = []
    for ens, f in instances:
        calls.append((velocity_field_direct, (ens, f, spec)))
        calls.append((treecode_velocity_field, (ens, f, spec, params)))
    timings = _call_times(calls, repeats)
    rows = []
    for i, (n_side, (ens, _)) in enumerate(zip(n_list, instances)):
        (times_direct, u_direct), (times_tree, u_tree) = timings[2 * i : 2 * i + 2]
        rel = float(np.linalg.norm(u_tree - u_direct) / np.linalg.norm(u_direct))
        rows.append({
            "n_side": n_side, "n_particles": ens.size,
            "t_direct": min(times_direct), "t_treecode": min(times_tree), "rel_l2": rel,
            "calls_direct": len(times_direct), "calls_treecode": len(times_tree),
            "t_direct_median": statistics.median(times_direct),
            "t_treecode_median": statistics.median(times_tree),
        })
    for prev, cur in zip(rows, rows[1:]):
        cur["ratio_direct"] = cur["t_direct"] / prev["t_direct"]
        cur["ratio_treecode"] = cur["t_treecode"] / prev["t_treecode"]
    return rows


def _call_times(calls, repeats):
    """(wall time of every call, last result) of each fn(*args) in calls.

    Calls each fn at least `repeats` times and until MIN_TIMING_S seconds of
    its calls have been spent; evaluations that take MIN_TIMING_S / repeats or
    longer are timed exactly `repeats` times. On a shared host the load
    changes within seconds, so one size's calls timed in a block can all fall
    in a slow stretch while the next size's block falls in a fast one. The
    calls therefore take turns, one evaluation each per round, so every
    timing samples the same stretches; a call that has met both conditions
    sits out the later rounds.
    """
    count = len(calls)
    times = [[] for _ in range(count)]
    out = [None] * count
    while True:
        pending = [
            i for i in range(count)
            if len(times[i]) < repeats or sum(times[i]) < MIN_TIMING_S
        ]
        if not pending:
            return list(zip(times, out))
        for i in pending:
            fn, args = calls[i]
            t0 = time.perf_counter()
            out[i] = fn(*args)
            times[i].append(time.perf_counter() - t0)


def cmd_treecode_bench(args):
    n_list = [int(tok) for tok in args.n_list.split(",")]
    rows = treecode_bench(
        n_list, theta=args.theta, order=args.order,
        leaf_capacity=args.leaf_capacity, repeats=args.repeats, seed=args.seed,
    )
    print(f"{'N':>8} {'direct[s]':>10} {'treecode[s]':>12} {'relL2':>10} "
          f"{'r_direct':>9} {'r_tree':>7} {'med_direct[s]':>14} {'med_tree[s]':>12} "
          f"{'calls':>9}")
    for r in rows:
        rd = f"{r.get('ratio_direct', float('nan')):9.2f}"
        rt = f"{r.get('ratio_treecode', float('nan')):7.2f}"
        calls = f"{r['calls_direct']}/{r['calls_treecode']}"
        print(f"{r['n_particles']:>8} {r['t_direct']:>10.3f} {r['t_treecode']:>12.3f} "
              f"{r['rel_l2']:>10.2e} {rd} {rt} {r['t_direct_median']:>14.3f} "
              f"{r['t_treecode_median']:>12.3f} {calls:>9}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "treecode_bench.csv")
        names = ("n_particles", "t_direct", "t_treecode", "rel_l2", "ratio_direct",
                 "ratio_treecode", "calls_direct", "calls_treecode", "t_direct_median",
                 "t_treecode_median")
        write_csv(path, ",".join(names), _row_columns(rows, names))
        print(f"wrote {path}")
    return 0


def _validation_checks():
    rng = np.random.default_rng(20240901)
    checks = []

    def add(name, passed, detail=""):
        checks.append((name, bool(passed), detail))

    # kernel algebra
    ok = True
    for dim, gamma in [(2, 0.0), (3, -3.0)]:
        spec = CollisionKernelSpec(gamma=gamma, prefactor=0.3, dim=dim)
        for _ in range(20):
            z = rng.normal(size=dim)
            k = kernel_matrix(z, spec)
            x = rng.normal(size=dim)
            ok &= np.allclose(k, k.T)
            ok &= np.linalg.norm(k @ z) <= 1e-12 * max(np.linalg.norm(k), 1e-30)
            ok &= x @ k @ x >= -1e-13 * max(np.linalg.norm(k), 1e-30)
    add("collision matrix symmetric, PSD, null space", ok)

    mol = Mollifier(eps=0.27, dim=2)
    grid = QuadratureGrid(dim=2, half_width=8 * np.sqrt(0.27), cells_per_dim=200)
    mass = float(np.sum(mollifier_eval(grid.centers, mol))) * grid.cell_volume
    add("mollifier unit mass", abs(mass - 1.0) < 1e-8, f"mass={mass:.2e}")

    ok = True
    step = 1e-6
    for _ in range(10):
        z = rng.normal(size=2) * 0.7
        g = mollifier_grad(z, mol)
        for s in range(2):
            zp, zm = z.copy(), z.copy()
            zp[s] += step
            zm[s] -= step
            fd = (mollifier_eval(zp, mol) - mollifier_eval(zm, mol)) / (2 * step)
            ok &= abs(g[s] - fd) <= 1e-6 * max(abs(fd), 1e-10)
    add("mollifier gradient matches finite differences", ok)

    # conservation identities of the velocity field
    ok = True
    detail = []
    for dim, gamma in [(2, 0.0), (2, -3.0), (3, -3.0)]:
        spec = CollisionKernelSpec(gamma=gamma, prefactor=1 / 16, dim=dim)
        ens = ParticleEnsemble(
            rng.normal(size=(120, dim)), rng.uniform(0.2, 1.0, size=120) / 120
        )
        f = rng.normal(size=(120, dim))
        u = velocity_field_direct(ens, f, spec)
        scale = float(np.sum(ens.weights * np.linalg.norm(u, axis=1))) + 1e-300
        mom = np.max(np.abs(ens.weights @ u)) / scale
        enr = abs(np.sum(ens.weights * np.einsum("id,id->i", ens.velocities, u)))
        enr /= scale * max(1.0, np.max(np.abs(ens.velocities)))
        detail.append(f"γ={gamma} d={dim}: mom={mom:.1e} energy={enr:.1e}")
        ok &= mom < 1e-12 and enr < 1e-11
    add("velocity field conserves momentum and energy rates", ok, "; ".join(detail))

    ens = ParticleEnsemble(rng.normal(size=(40, 3)), rng.uniform(0.2, 1.0, size=40) / 40)
    f = rng.normal(size=(40, 3))
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=3)
    d_pair = dissipation(ens, f, spec)
    d_id = dissipation_from_velocities(ens, f, velocity_field_direct(ens, f, spec))
    add(
        "dissipation nonnegative and equals -sum w F.U",
        d_pair >= -1e-12 * abs(d_pair) and abs(d_pair - d_id) <= 1e-10 * abs(d_pair),
        f"D={d_pair:.3e}",
    )

    # expansion remainder scaling of the Taylor recurrences
    x = np.array([0.2, -0.3, 0.5])
    yc = np.array([1.8, 1.1, -1.2])
    mol3 = Mollifier(eps=0.4, dim=3)
    delta = np.array([0.09, -0.06, 0.11])
    idx6 = multi_indices(6, 3)
    mono = np.array([delta[0] ** k[0] * delta[1] ** k[1] * delta[2] ** k[2] for k in idx6])
    exactv = float(mollifier_eval(x - (yc + delta), mol3))
    coeff = taylor_coeffs_gaussian(x, yc, mol3, 6)
    r2 = abs(sum(coeff[i] * mono[i] for i, k in enumerate(idx6) if sum(k) <= 2) - exactv)
    r6 = abs(float(coeff @ mono) - exactv)
    add("Gaussian expansion remainder shrinks with order",
        r6 < 1e-3 * r2, f"p2={r2:.2e} p6={r6:.2e}")

    speck = CollisionKernelSpec(gamma=-3.0, prefactor=1 / 16, dim=3)
    coeffs = taylor_coeffs_A(x, yc, speck, 6)
    z = x - (yc + delta)
    rr = float(z @ z)
    ok = True
    detail = []
    for c, (r, s) in enumerate(component_pairs(3)):
        exact_c = 1 / 16 * rr ** (-1.5) * ((rr - z[r] * z[r]) if r == s else -(z[r] * z[s]))
        r2v = abs(sum(coeffs[c, i] * mono[i] for i, k in enumerate(idx6) if sum(k) <= 2) - exact_c)
        r6v = abs(float(coeffs[c] @ mono) - exact_c)
        ok &= r6v < 1e-2 * max(r2v, 1e-14)
        detail.append(f"A{r+1}{s+1}: {r2v:.1e}->{r6v:.1e}")
    add("collision-matrix expansion remainder shrinks with order", ok, "; ".join(detail))

    params0 = TreecodeParams(theta=0.0, order=4, leaf_capacity=32)
    u_direct = velocity_field_direct(ens, f, spec)
    u_tree0 = treecode_velocity_field(ens, f, spec, params0)
    add("treecode with theta=0 is bit-identical to direct",
        np.array_equal(u_direct, u_tree0))

    ens2 = ParticleEnsemble(
        rng.uniform(-1, 1, size=(2000, 3)), rng.uniform(0.2, 1.0, size=2000) / 2000
    )
    f2 = rng.normal(size=(2000, 3))
    u_d = velocity_field_direct(ens2, f2, spec)
    u_t = treecode_velocity_field(ens2, f2, spec, TreecodeParams(0.5, 6, 64))
    rel = np.linalg.norm(u_t - u_d) / np.linalg.norm(u_d)
    add("treecode velocities track direct sums", rel < 1e-3, f"relL2={rel:.2e}")

    # short simulation: exact invariants and entropy decay
    cfg = replace(preset("bkw2d"), cells_per_dim=24, t_end=0.3, snapshot_stride=10**9)
    result = run(cfg)
    first, last = result.records[0], result.records[-1]
    mom_scale = max(np.sqrt(first.energy * first.mass), 1e-300)
    ok = (
        abs(last.mass - first.mass) <= 1e-11 * first.mass
        and np.max(np.abs(last.momentum - first.momentum)) <= 1e-11 * mom_scale
    )
    add("short run conserves mass and momentum", ok)
    ents = [r.entropy for r in result.records]
    incs = [b - a for a, b in zip(ents, ents[1:])]
    tol = 1e-4 * result.grid.spacing**2
    add("short run entropy non-increasing", max(incs) <= tol,
        f"max increment {max(incs):.2e} tol {tol:.2e}")
    add("short run dissipation nonnegative",
        min(r.dissipation for r in result.records) >= -1e-12)
    return checks


def cmd_validate(args):
    checks = _validation_checks()
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        failed += not passed
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="landau-particles",
        description="Deterministic particle solver for the homogeneous Landau equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--engine", choices=["direct", "treecode"], default=None)
    p_run.add_argument("--deterministic", action="store_true")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="resolution refinement study")
    p_conv.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_conv.add_argument("--n", required=True, help="comma-separated cells_per_dim list")
    p_conv.add_argument("--engine", choices=["direct", "treecode"], default=None)
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(func=cmd_convergence)

    p_bench = sub.add_parser("treecode-bench", help="accuracy/timing vs direct sums")
    p_bench.add_argument("--n-list", default="10,13,16",
                         help="comma-separated sources-per-dimension list (N = n^3)")
    p_bench.add_argument("--theta", type=float, default=0.5)
    p_bench.add_argument("--order", type=int, default=6)
    p_bench.add_argument("--leaf-capacity", type=int, default=64)
    p_bench.add_argument("--repeats", type=int, default=2,
                         help="minimum timed calls per engine and size")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_treecode_bench)

    p_val = sub.add_parser("validate", help="run the built-in invariant suite")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
