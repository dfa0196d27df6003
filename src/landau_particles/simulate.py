"""Forward-Euler time stepping, domain monitoring, and the run driver.

One step advances every particle by dt times its collision velocity evaluated
on the frozen current state: v_i <- v_i + dt * U_i. The scheme conserves mass
and momentum exactly (the velocity field sums to zero in the weighted sense)
and energy up to O(dt). The quadrature grid never moves; escape from the
domain is reported, never corrected, since reflecting particles would destroy
momentum and energy conservation.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    DiagnosticsRecord,
    discrete_entropy,
    dissipation_from_velocities,
    moments,
    relative_entropy,
)
from .exact import bimaxwellian_init, bkw_eval, bkw_params, maxwellian, rosenbluth_init
from .kernels import CollisionKernelSpec, Mollifier
from .particles import (
    QuadratureGrid,
    grid_fields,
    init_from_density,
    min_pair_distance,
    velocity_field_direct,
)
from .treecode import TreecodeParams, treecode_velocity_field

INITIAL_CONDITIONS = ("bkw", "maxwellian", "bimaxwellian", "rosenbluth")
ENGINES = ("direct", "treecode")


class BlowUpError(RuntimeError):
    """A particle velocity became non-finite during time stepping."""

    def __init__(self, step, particle):
        super().__init__(
            f"non-finite particle velocity at step {step} (particle {particle}); "
            "the time step is likely too large for this configuration"
        )
        self.step = step
        self.particle = particle


@dataclass
class SimulationConfig:
    """Full description of one run; every field round-trips through the config file."""

    dim: int
    half_width: float
    cells_per_dim: int
    dt: float
    t_start: float
    t_end: float
    gamma: float
    prefactor: float
    initial_condition: str
    eps_coeff: float = 0.64
    eps_power: float = 1.98
    engine: str = "direct"
    theta: float = 0.5
    order: int = 6
    leaf_capacity: int = 64
    snapshot_stride: int = 50
    deterministic: bool = True
    relative_entropy_reference: str = "standard"
    bkw_integration_const: float = None
    rosenbluth_sigma: float = 0.3
    rosenbluth_sharpness: float = 10.0

    def validate(self):
        """Self, or ValueError; each component the run builds checks itself here."""
        self.grid()
        if self.cells_per_dim < 2:
            raise ValueError("cells_per_dim must be >= 2")
        for name in ("dt", "t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        if not (self.eps_coeff > 0 and self.eps_power > 0):
            raise ValueError("mollifier rule coefficients must be positive")
        self.mollifier()
        self.kernel_spec()
        if self.initial_condition not in INITIAL_CONDITIONS:
            raise ValueError(
                f"unknown initial_condition {self.initial_condition!r}; "
                f"expected one of {INITIAL_CONDITIONS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.engine == "treecode":
            if not (0.0 < self.theta < 1.0):
                raise ValueError("theta must lie in (0, 1) for the treecode engine")
            self.treecode_params()
        if self.initial_condition == "bimaxwellian" and self.dim != 2:
            raise ValueError("the bimaxwellian initial condition is two-dimensional")
        if self.initial_condition == "rosenbluth":
            if self.dim != 3:
                raise ValueError("the rosenbluth initial condition is three-dimensional")
            for name in ("rosenbluth_sigma", "rosenbluth_sharpness"):
                value = getattr(self, name)
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(f"{name} must be positive and finite")
        if self.initial_condition == "bkw":
            # bkw_eval checks that K(t_start) lies in [d/(d+2), 1]
            initial_density(self)(np.zeros(self.dim))
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be >= 0 (0 writes only the final step)")
        if self.relative_entropy_reference not in ("standard", "moments"):
            raise ValueError("relative_entropy_reference must be standard or moments")
        return self

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.cells_per_dim

    @property
    def mollifier_eps(self):
        """Regularization width from the mesh rule eps = c * h^q."""
        return self.eps_coeff * self.spacing**self.eps_power

    @property
    def n_steps(self):
        span = self.t_end - self.t_start
        steps = int(round(span / self.dt))
        if abs(steps * self.dt - span) > 1e-9 * max(1.0, abs(span)):
            steps = int(math.ceil(span / self.dt - 1e-12))
        return max(steps, 0)

    def grid(self):
        return QuadratureGrid(
            dim=self.dim, half_width=self.half_width, cells_per_dim=self.cells_per_dim
        )

    def mollifier(self):
        return Mollifier(eps=self.mollifier_eps, dim=self.dim)

    def kernel_spec(self):
        return CollisionKernelSpec(gamma=self.gamma, prefactor=self.prefactor, dim=self.dim)

    def treecode_params(self):
        return TreecodeParams(
            theta=self.theta, order=self.order, leaf_capacity=self.leaf_capacity
        )


def initial_density(cfg):
    """The density the run projects onto the grid at t_start."""
    if cfg.initial_condition == "bkw":
        params = bkw_params(
            cfg.dim,
            prefactor=cfg.prefactor,
            integration_const=cfg.bkw_integration_const,
        )
        return lambda pts: bkw_eval(params, cfg.t_start, pts)
    if cfg.initial_condition == "maxwellian":
        return maxwellian
    if cfg.initial_condition == "bimaxwellian":
        return bimaxwellian_init
    if cfg.initial_condition == "rosenbluth":
        return lambda pts: rosenbluth_init(
            pts, sigma=cfg.rosenbluth_sigma, sharpness=cfg.rosenbluth_sharpness
        )
    raise ValueError(f"unknown initial_condition {cfg.initial_condition!r}")


def make_engine(cfg):
    """Velocity-field evaluator selected by the config."""
    if cfg.engine == "direct":
        return velocity_field_direct
    params = cfg.treecode_params()
    return lambda ens, scores, spec: treecode_velocity_field(ens, scores, spec, params)


@dataclass
class SimulationState:
    time: float
    step: int
    ensemble: object


@dataclass(frozen=True)
class DomainReport:
    escaped_count: int
    max_overshoot: float


def check_domain(ens, half_width):
    """Count particles outside [-L, L]^d and their worst overshoot; never mutates."""
    over = np.max(np.abs(ens.velocities), axis=1) - half_width
    outside = over > 0
    count = int(np.sum(outside))
    worst = float(np.max(over[outside])) if count else 0.0
    return DomainReport(escaped_count=count, max_overshoot=worst)


def _advance(state, velocities, dt, t_next):
    v_new = state.ensemble.velocities + dt * velocities
    finite = np.isfinite(v_new).all(axis=1)
    if not finite.all():
        raise BlowUpError(step=state.step + 1, particle=int(np.argmin(finite)))
    return SimulationState(
        time=t_next, step=state.step + 1, ensemble=state.ensemble.with_velocities(v_new)
    )


def euler_step(state, cfg):
    """One forward-Euler step; weights unchanged, new state returned."""
    _, scores = grid_fields(state.ensemble, cfg.grid(), cfg.mollifier())
    velocities = make_engine(cfg)(state.ensemble, scores, cfg.kernel_spec())
    return _advance(state, velocities, cfg.dt, cfg.t_start + (state.step + 1) * cfg.dt)


@dataclass
class RunResult:
    config: SimulationConfig
    records: list
    ensemble: object
    grid: object
    mollifier: object


def _mapped_empty(shape):
    """A float array of shape in an anonymous memory mapping of its own.

    The mapping is returned to the system when the array is freed. A buffer of
    several MB taken from the C heap instead raises glibc's mmap threshold
    once freed, and later runs then take it from the heap, where the small
    allocations a caller keeps between runs can split the gap it leaves: the
    heap grew by ~5 MB at a run that differed from one process to the next.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(8 * count, 1))
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


def run(cfg, on_snapshot=None, progress=None):
    """Initialize, march to t_end, and collect one DiagnosticsRecord per step.

    Records cover steps 0..n_steps inclusive (the step-0 record describes the
    initial state; t_end = t_start yields exactly that record). on_snapshot,
    when given, is called as on_snapshot(step, time, ensemble) at the final
    step and, for snapshot_stride > 0, at every step that is a multiple of it
    (step 0 included). Reductions run in fixed index order, so reruns of one
    config are bit-identical. Every step's grid_fields writes the particles'
    axis factors into one (d, N, n) buffer that run maps after initialization
    (see _mapped_empty). The entropies and on_snapshot get the step's ensemble
    object, so a density they ask for (the entropies' pair,
    output.write_snapshot's blob) is the pair grid_fields built for it in that
    step, recalled and not summed again; other grid sums called from
    on_snapshot build their own factors per block of rows.
    """
    cfg.validate()
    grid = cfg.grid()
    mol = cfg.mollifier()
    spec = cfg.kernel_spec()
    engine = make_engine(cfg)
    ens = init_from_density(initial_density(cfg), grid)
    factors = _mapped_empty((grid.dim, ens.size, grid.cells_per_dim))
    state = SimulationState(time=cfg.t_start, step=0, ensemble=ens)
    n_steps = cfg.n_steps
    records = []
    for k in range(n_steps + 1):
        ens = state.ensemble
        _, scores = grid_fields(ens, grid, mol, out=factors)
        velocities = engine(ens, scores, spec)
        mass, momentum, energy = moments(ens)
        rec = DiagnosticsRecord(
            step=k,
            time=state.time,
            mass=mass,
            momentum=momentum,
            energy=energy,
            entropy=discrete_entropy(ens, grid, mol),
            relative_entropy=relative_entropy(
                ens, grid, mol, reference=cfg.relative_entropy_reference
            ),
            dissipation=dissipation_from_velocities(ens, scores, velocities),
            min_pair_distance=min_pair_distance(ens) if ens.size > 1 else math.inf,
            escaped_count=check_domain(ens, cfg.half_width).escaped_count,
        )
        records.append(rec)
        if on_snapshot is not None and (
            k == n_steps or (cfg.snapshot_stride > 0 and k % cfg.snapshot_stride == 0)
        ):
            on_snapshot(k, state.time, ens)
        if progress is not None:
            progress(k, n_steps, rec)
        if k < n_steps:
            state = _advance(
                state, velocities, cfg.dt, cfg.t_start + (k + 1) * cfg.dt
            )
    return RunResult(config=cfg, records=records, ensemble=state.ensemble, grid=grid, mollifier=mol)
