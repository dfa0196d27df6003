"""Reference computations and output checks, written from the definitions.

Nothing here calls the package: the closed-form BKW density, the blob as a
direct Gaussian sum and its log (log-sum-exp where the sum underflows), the
score by the plain midpoint quadrature sum over every cell, and the velocity
field by the pairwise sum over every source with A(v_i - v_j) written out.
Every check returns a list of failure messages; an empty list means it
passed.
"""

import csv
import math

import numpy as np

# A(z) is the zero matrix for |z| at or below this (the package's convention).
Z_FLOOR = 1e-12


# -- reference computations ------------------------------------------------

def bkw_density(dim, prefactor, integration_const, t, pts):
    """BKW solution f(t, v) for Maxwell molecules."""
    k = 1.0 - integration_const * math.exp(-2.0 * prefactor * (dim - 1) * t)
    p = ((dim + 2.0) * k - dim) / (2.0 * k)
    q = (1.0 - k) / (2.0 * k * k)
    r2 = np.sum(pts * pts, axis=1)
    return (2.0 * math.pi * k) ** (-0.5 * dim) * np.exp(-r2 / (2.0 * k)) * (p + q * r2)


def _sq_dist(a, b):
    """|a_i - b_j|^2 for every pair, accumulated one axis at a time."""
    out = (a[:, None, 0] - b[None, :, 0]) ** 2
    for s in range(1, a.shape[1]):
        out += (a[:, None, s] - b[None, :, s]) ** 2
    return out


def gaussian_sum(v, w, eps, pts, block=256):
    """Blob sum_k w_k psi_eps(p - v_k) at each point, summed directly."""
    dim = v.shape[1]
    norm = (2.0 * math.pi * eps) ** (-0.5 * dim)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), block):
        out[lo : lo + block] = np.exp(-_sq_dist(pts[lo : lo + block], v) / (2.0 * eps)) @ w
    return norm * out


def log_gaussian_sum(v, w, eps, pts, direct, tiny=1e-300):
    """log of the blob: of the direct sum, or by log-sum-exp over every
    particle where the direct sum underflows."""
    out = np.log(np.maximum(direct, tiny))
    low = np.flatnonzero(direct <= tiny)
    if low.size:
        dim = v.shape[1]
        expo = np.log(w)[None, :] - _sq_dist(pts[low], v) / (2.0 * eps)
        top = expo.max(axis=1)
        out[low] = (top + np.log(np.exp(expo - top[:, None]).sum(axis=1))
                    - 0.5 * dim * math.log(2.0 * math.pi * eps))
    return out


def cell_centers(dim, half_width, cells_per_dim):
    h = 2.0 * half_width / cells_per_dim
    axis = -half_width + (np.arange(cells_per_dim) + 0.5) * h
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1), h


def quadrature_score(centers, log_g, h, eps, targets):
    """F(x) = sum_l h^d grad psi_eps(x - c_l) log g(c_l), one target at a time."""
    dim = centers.shape[1]
    norm = (2.0 * math.pi * eps) ** (-0.5 * dim)
    out = np.empty((len(targets), dim))
    for i, x in enumerate(targets):
        z = x - centers
        psi = norm * np.exp(-np.sum(z * z, axis=1) / (2.0 * eps))
        out[i] = h**dim * ((-z / eps) * (psi * log_g)[:, None]).sum(axis=0)
    return out


def pairwise_velocity_field(v, w, f, gamma, prefactor, targets, block=128):
    """U_i = -sum_j w_j A(v_i - v_j)(F_i - F_j) for i in targets, over every j,
    with A(z) dF = B |z|^gamma (|z|^2 dF - (z . dF) z)."""
    dim = v.shape[1]
    out = np.empty((len(targets), dim))
    for lo in range(0, len(targets), block):
        i = targets[lo : lo + block]
        z = v[i, None, :] - v[None, :, :]
        df = f[i, None, :] - f[None, :, :]
        r2 = _sq_dist(v[i], v)
        near = r2 <= Z_FLOOR * Z_FLOOR
        scale = prefactor * np.where(near, 1.0, r2) ** (0.5 * gamma)
        scale[near] = 0.0
        scale *= w[None, :]
        z_df = np.sum(z * df, axis=-1)
        out[lo : lo + block] = -(
            np.sum((scale * r2)[..., None] * df, axis=1)
            - np.sum((scale * z_df)[..., None] * z, axis=1)
        )
    return out


def rel_l2(value, reference):
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


# -- reading the program's output files ------------------------------------

def read_diagnostics_csv(path):
    """Columns of diagnostics.csv by header name, as float arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def read_table_csv(path):
    """A snapshot CSV as (header, float array of shape (rows, cols))."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


# -- checks ------------------------------------------------------------------

def check_conservation(diag, weights, velocities):
    """Mass unchanged on every row and equal to sum w; momentum drift at rounding."""
    fails = []
    mass = diag["mass"]
    if not np.all(mass == mass[0]):
        fails.append(f"mass changes over the run: spread {np.ptp(mass):.3e}")
    total = math.fsum(weights)
    if abs(mass[0] - total) > 1e-13 * total:
        fails.append(f"diagnostics mass {mass[0]!r} != sum of particle weights {total!r}")
    mom = np.stack([diag[k] for k in sorted(diag) if k.startswith("mom_")], axis=1)
    # momentum of the final particles, summed here, must match the last row
    final_mom = weights @ velocities
    scale = math.sqrt(total * float(diag["energy"][0]))
    drift = float(np.max(np.abs(mom - mom[0])))
    if drift > 1e-12 * scale:
        fails.append(f"momentum drift {drift:.3e} exceeds 1e-12 * sqrt(M E) = {1e-12 * scale:.3e}")
    if float(np.max(np.abs(final_mom - mom[-1]))) > 1e-12 * scale:
        fails.append("final particle momentum disagrees with the last diagnostics row")
    return fails


def check_entropy(diag, dt, h, decrement_tol):
    """Entropy increase <= 1e-4 h^2 per step, D >= 0, S_k - S_k+1 ~ dt D_k."""
    fails = []
    s, d = diag["entropy"], diag["dissipation"]
    inc = np.diff(s)
    if inc.size and inc.max() > 1e-4 * h * h:
        fails.append(f"entropy rises by {inc.max():.3e} in one step (> 1e-4 h^2)")
    if d.min() < 0.0:
        fails.append(f"negative dissipation {d.min():.3e}")
    predicted = dt * d[:-1]
    mismatch = np.abs(-inc - predicted) / predicted
    if mismatch.size and not mismatch.max() <= decrement_tol:
        fails.append(
            f"entropy decrement differs from dt*D by {mismatch.max():.3e} "
            f"(tolerance {decrement_tol:.1e})"
        )
    return fails


def check_pairwise(engine_u, naive_u, tol):
    err = rel_l2(engine_u, naive_u)
    if not err <= tol:
        return [f"velocity field is {err:.3e} rel. L2 from the pairwise sum (tolerance {tol:.1e})"]
    return []


def check_score(engine_f, naive_f, tol=1e-9):
    err = rel_l2(engine_f, naive_f)
    if not err <= tol:
        return [f"score is {err:.3e} rel. L2 from the quadrature sum (tolerance {tol:.1e})"]
    return []


def check_blob(blob_values, naive_blob, tol=1e-10):
    err = float(np.max(np.abs(blob_values - naive_blob)) / np.max(np.abs(naive_blob)))
    if not err <= tol:
        return [f"snapshot blob is {err:.3e} (max rel.) from the direct Gaussian sum"]
    return []


def check_exact(naive_blob, exact, bound):
    err = rel_l2(naive_blob, exact)
    if not err <= bound:
        return [f"blob is {err:.3e} rel. L2 from closed-form BKW (bound {bound:.1e})"]
    return []


def check_no_escape(diag, velocities, half_width):
    fails = []
    if np.any(diag["escaped"] != 0):
        fails.append(f"{int(diag['escaped'].max())} particles escape the domain")
    if float(np.max(np.abs(velocities))) > half_width:
        fails.append("a final particle lies outside the domain")
    return fails
