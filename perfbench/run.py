"""Benchmark of the particle Landau solver: one workload, one seed, one run.

    python3 perfbench/run.py --workload bkw2d --seed 1 --seconds 20 --trace 0

Each round does what `landau-particles run` does, through the same public
calls: config.parse_config on the workload's config text, simulate.run with
output.write_snapshot at the snapshot stride, then output.write_diagnostics.
Rounds repeat until --seconds have passed; every round is the same
simulation. The final round's outputs are then checked against the
references in oracles.py. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count time steps. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced rounds (at least
three) and reports the per-layer metrics, per traced round, and writes the
spans to perfbench/out/.
"""

import os
import sys
import time

T0 = time.perf_counter()


def _process_age():
    """Seconds since this process started (10 ms resolution), 0 if unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 10.0 else 0.0


AGE_AT_T0 = _process_age()

# One BLAS thread, set before numpy is first imported: steady timings on a
# small shared machine, and the plain single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Core particles for the score check: weight at least this share of the largest.
CORE_WEIGHT = 1e-3
SCORE_SAMPLES = 32
# Targets of the pairwise check: every particle, or a seeded sample above this.
PAIR_TARGETS = 3000
# Relative L2 distance of the engine from the explicit pairwise sum.
DIRECT_TOL = 1e-10
TREECODE_TOL = 1e-3
# Relative L2 distance of the bkw2d blob from closed-form BKW at t_end.
BKW_BOUND = 2e-2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import landau_particles
    from landau_particles import config, output, simulate, treecode  # noqa: F401

    if Path(landau_particles.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"landau_particles was not found under {src}")
    return landau_particles


@contextmanager
def stamped_init(simulate, stamps):
    """Record when simulate.run's initial ensemble exists."""
    inner = simulate.init_from_density

    def init_from_density(*args, **kwargs):
        ens = inner(*args, **kwargs)
        stamps.append(time.perf_counter())
        return ens

    simulate.init_from_density = init_from_density
    try:
        yield
    finally:
        simulate.init_from_density = inner


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.init_done = []
        self.steps = []
        self.end = None
        self.result = None
        self.error = None

    @property
    def run_s(self):
        return self.end - self.init_done[0]


def run_round(pkg, text, outdir, tracer):
    """One `landau-particles run`, traced when a tracer is given."""
    config, output, simulate = pkg.config, pkg.output, pkg.simulate
    rnd = Round(traced=tracer is not None)

    def progress(step, n_steps, rec):
        rnd.steps.append(time.perf_counter())

    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span("round"))
        stack.enter_context(stamped_init(simulate, rnd.init_done))
        cfg = config.parse_config(text)
        grid, mol = cfg.grid(), cfg.mollifier()

        def on_snapshot(step, t, ens):
            output.write_snapshot(ens, grid, mol, t, outdir, tag=f"{step:06d}")

        try:
            rnd.result = simulate.run(cfg, on_snapshot=on_snapshot, progress=progress)
            output.write_diagnostics(rnd.result.records, os.path.join(outdir, "diagnostics.csv"))
        except Exception as exc:  # a failed step is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            rnd.error = exc
        rnd.end = time.perf_counter()
    return cfg, rnd


def verify(pkg, wl, cfg, result, outdir, seed):
    """Check the final round's outputs; returns (failures, report lines)."""
    fails, notes = [], []
    ens, grid, mol = result.ensemble, result.grid, result.mollifier
    v, w = ens.velocities, ens.weights
    n_steps = cfg.n_steps

    diag = oracles.read_diagnostics_csv(os.path.join(outdir, "diagnostics.csv"))
    for col, attr in (("mass", "mass"), ("energy", "energy"), ("entropy", "entropy"),
                      ("dissipation", "dissipation"), ("escaped", "escaped_count")):
        if not np.array_equal(diag[col], [getattr(r, attr) for r in result.records]):
            fails.append(f"diagnostics.csv column {col} differs from the run's records")
    _, table = oracles.read_table_csv(os.path.join(outdir, f"particles_{n_steps:06d}.csv"))
    if not (np.array_equal(table[:, 0], w) and np.array_equal(table[:, 1:], v)):
        fails.append("final particle snapshot differs from the final ensemble")

    fails += oracles.check_conservation(diag, w, v)
    fails += oracles.check_entropy(diag, cfg.dt, grid.spacing, wl.decrement_tol)
    d_s = -np.diff(diag["entropy"])
    notes.append(
        "entropy decrement vs dt*D: worst rel. mismatch "
        f"{np.max(np.abs(d_s - cfg.dt * diag['dissipation'][:-1]) / (cfg.dt * diag['dissipation'][:-1])):.3e}"
    )

    centers, h = oracles.cell_centers(cfg.dim, cfg.half_width, cfg.cells_per_dim)
    naive_blob = oracles.gaussian_sum(v, w, mol.eps, centers)
    log_g = oracles.log_gaussian_sum(v, w, mol.eps, centers, naive_blob)
    rng = np.random.default_rng(seed)
    scores = pkg.particles.score_field(ens, grid, mol, v)
    core = np.flatnonzero(w >= CORE_WEIGHT * w.max())
    pick = rng.choice(core, size=min(SCORE_SAMPLES, core.size), replace=False)
    naive_f = oracles.quadrature_score(centers, log_g, h, mol.eps, v[pick])
    fails += oracles.check_score(scores[pick], naive_f)
    notes.append(f"score vs quadrature sum: rel. L2 {oracles.rel_l2(scores[pick], naive_f):.3e}")

    spec = cfg.kernel_spec()
    engine_u = pkg.simulate.make_engine(cfg)(ens, scores, spec)
    targets = np.arange(ens.size)
    if ens.size > PAIR_TARGETS:
        targets = np.sort(rng.choice(ens.size, size=PAIR_TARGETS, replace=False))
    naive_u = oracles.pairwise_velocity_field(v, w, scores, spec.gamma, spec.prefactor, targets)
    tol = DIRECT_TOL if cfg.engine == "direct" else TREECODE_TOL
    fails += oracles.check_pairwise(engine_u[targets], naive_u, tol)
    notes.append(
        f"{cfg.engine} engine vs pairwise sum over {targets.size} targets: "
        f"rel. L2 {oracles.rel_l2(engine_u[targets], naive_u):.3e}"
    )

    if wl.exact:
        _, blob = oracles.read_table_csv(os.path.join(outdir, f"blob_{n_steps:06d}.csv"))
        fails += oracles.check_blob(blob[:, -1], naive_blob)
        exact = oracles.bkw_density(cfg.dim, cfg.prefactor, wl.params["bkw_integration_const"],
                                    cfg.t_end, centers)
        fails += oracles.check_exact(naive_blob, exact, BKW_BOUND)
        notes.append(f"blob vs closed-form BKW at t_end: rel. L2 {oracles.rel_l2(naive_blob, exact):.3e}")
    if wl.escapes_allowed:
        notes.append(
            f"escaped particles (reported, not asserted): {int(diag['escaped'][-1])} of {ens.size} "
            f"at t_end, first at step {int(np.argmax(diag['escaped'] > 0))}"
        )
    else:
        fails += oracles.check_no_escape(diag, v, cfg.half_width)
    return fails, notes


def end_to_end(rounds, setup_s):
    ok = [r for r in rounds if r.error is None and not r.traced]
    intervals = [b - a for r in ok for a, b in zip(r.steps, r.steps[1:])]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in ok),
        "step_p50_s": statistics.median(intervals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds, tracer):
    traced = [r for r in rounds if r.traced and r.error is None]
    # round 0 is the cold one: caches and first-touch memory
    untraced = [r for r in rounds[1:] if not r.traced and r.error is None]
    n = len(traced)
    own = spans.self_time_by_name(tracer.spans)
    values = {}
    for mod, fn, _, _ in spans.LAYERS:
        name = f"{mod}.{fn}"
        values[f"{name}.self_s"] = own.get(name, 0.0) / n
        values[f"{name}.calls"] = sum(1 for s in tracer.spans if s[0] == name) / n
    for key, total in tracer.counters.items():
        values[key] = total / n
    pairs = values["particles.velocity_field_direct.pairs"]
    busy = values["particles.velocity_field_direct.self_s"]
    values["particles.velocity_field_direct.pair_rate"] = pairs / busy if busy > 0 else 0.0
    values["trace.overhead_s"] = (
        statistics.median(r.run_s for r in traced) - statistics.median(r.run_s for r in untraced)
    )
    return values


def main(argv=None):
    args = parse_args(argv)
    try:
        pkg = import_package()
        spec_path = ROOT / "BENCHMARK.json"
        with open(spec_path, encoding="utf-8") as fh:
            bench = json.load(fh)
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    outdir = OUT_DIR / wl.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    tracer = spans.Tracer(pkg) if args.trace else None

    rounds, digests = [], set()
    loop_start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        cfg, rnd = run_round(pkg, wl.config_text, str(outdir), tracer if traced else None)
        rounds.append(rnd)
        if rnd.error is None:
            with open(outdir / "diagnostics.csv", "rb") as fh:
                digests.add(hashlib.sha256(fh.read()).hexdigest())
        done = time.perf_counter() - loop_start >= args.seconds
        if done and (args.trace == 0 or len(rounds) >= 3):
            break
    setup_s = AGE_AT_T0 + (rounds[0].init_done[0] - T0) if rounds[0].init_done else None

    attempted = failed = 0
    for rnd in rounds:
        if rnd.error is None:
            attempted += cfg.n_steps
        else:
            attempted += max(1, len(rnd.steps))
            failed += 1
    good = [r for r in rounds if r.error is None]
    correct = bool(good)
    metrics = {}
    if good:
        values = per_layer(rounds, tracer) if args.trace else end_to_end(rounds, setup_s)
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
        fails, notes = verify(pkg, wl, cfg, good[-1].result, str(outdir), args.seed)
        if len(digests) != 1:
            fails.append("rounds of the same config wrote different diagnostics.csv files")
        notes.append("round run_s: " + " ".join(f"{r.run_s:.3f}" for r in good))
        for line in notes:
            print(f"{wl.name}: {line}")
        for line in fails:
            print(f"{wl.name}: CHECK FAILED: {line}", file=sys.stderr)
        correct = not fails
    if tracer is not None:
        with open(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "spans": tracer.spans}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
