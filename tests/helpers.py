"""Shared independent oracles for the test suite.

Everything here is deliberately written from the mathematical definitions,
not by calling the library code it is used to check: midpoint quadrature on
fine tensor grids, high-order mixed finite differences with Richardson
extrapolation (in extended precision), and naive pairwise summations.
"""

import itertools
import math

import numpy as np


def midpoint_grid(half_width, n, dim):
    """Cell midpoints of [-L, L]^dim as (n^dim, dim) plus the cell volume."""
    h = 2.0 * half_width / n
    axis = -half_width + (np.arange(n) + 0.5) * h
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return pts, h**dim


def midpoint_quadrature(func, half_width, n, dim):
    """Midpoint-rule integral of func over [-L, L]^dim."""
    pts, vol = midpoint_grid(half_width, n, dim)
    return float(np.sum(func(pts)) * vol)


def central_stencil(m):
    """Offsets and coefficients of the symmetric difference for the m-th derivative.

    delta_h^m f(x) = sum_i (-1)^i C(m, i) f(x + (m/2 - i) h); offsets are
    half-integers for odd m. Error is O(h^2).
    """
    return [(m / 2.0 - i, (-1.0) ** i * math.comb(m, i)) for i in range(m + 1)]


def mixed_derivative(func, x0, orders, base_step, levels=4):
    """D^k func(x0) for the multi-index k=orders, via tensor-product central
    differences Richardson-extrapolated in the shared step (error O(h^{2*levels})).

    func must accept a 1-D numpy array (kept in long double by the caller's
    implementation) and return a scalar.
    """
    x0 = np.asarray(x0, dtype=np.longdouble)
    d = len(x0)
    total_order = int(sum(orders))
    stencils = [central_stencil(int(m)) for m in orders]

    def fd(h):
        acc = np.longdouble(0.0)
        for combo in itertools.product(*stencils):
            point = x0.copy()
            coeff = np.longdouble(1.0)
            for s in range(d):
                off, c = combo[s]
                point[s] = point[s] + np.longdouble(off) * h
                coeff *= np.longdouble(c)
            acc += coeff * func(point)
        return acc / h**total_order

    h = np.longdouble(base_step)
    table = [fd(h / (2**j)) for j in range(levels)]
    for lev in range(1, levels):
        fac = np.longdouble(4.0**lev)
        table = [
            (fac * table[j + 1] - table[j]) / (fac - 1.0)
            for j in range(len(table) - 1)
        ]
    return float(table[0])


def taylor_coefficient(func, x0, orders, base_step, levels=4):
    """(1/k!) D^k func(x0) with k! the product of component factorials."""
    fact = 1.0
    for m in orders:
        fact *= math.factorial(int(m))
    return mixed_derivative(func, x0, orders, base_step, levels) / fact


def gaussian_longdouble(eps, dim):
    """psi_eps as a long-double scalar function of the offset vector."""
    norm = (np.longdouble(2.0) * np.longdouble(np.pi) * np.longdouble(eps)) ** (
        -np.longdouble(dim) / 2.0
    )

    def f(z):
        z = np.asarray(z, dtype=np.longdouble)
        return norm * np.exp(-(z @ z) / (2.0 * np.longdouble(eps)))

    return f


def collision_entry_longdouble(gamma, prefactor, r, s):
    """A_rs(z) = B |z|^gamma (|z|^2 delta_rs - z_r z_s) in long double."""

    def f(z):
        z = np.asarray(z, dtype=np.longdouble)
        r2 = z @ z
        base = np.longdouble(prefactor) * r2 ** (np.longdouble(gamma) / 2.0)
        if r == s:
            return base * (r2 - z[r] * z[r])
        return -base * (z[r] * z[s])

    return f


def radial_taylor_coeffs_longdouble(u, beta, indices):
    """Taylor coefficients a^k of |u + delta|^beta in delta, in long double.

    indices lists the multi-indices k by nondecreasing |k|. Row by row, each
    a^k follows from the Leibniz-differentiated identity
    |u|^2 d_s f = beta u_s f (for any axis s with k_s >= 1):
      |u|^2 a^k + (2 - (2+beta)/k_s) u_s a^(k-e_s)
          + (1 - (2+beta)/k_s) a^(k-2e_s)
          + sum_(t != s) [2 u_t a^(k-e_t) + a^(k-2e_t)] = 0,
    with a^0 = |u|^beta. Returns a float array in the order of indices.
    """
    u = np.asarray(u, dtype=np.longdouble)
    beta = np.longdouble(beta)
    r2 = u @ u
    coeff = {}

    def at(k, t, amount):
        if k[t] < amount:
            return np.longdouble(0.0)
        return coeff[k[:t] + (k[t] - amount,) + k[t + 1 :]]

    for k in indices:
        if sum(k) == 0:
            coeff[k] = r2 ** (beta / 2)
            continue
        s = next(t for t in range(len(k)) if k[t] > 0)
        c1 = 2 - (2 + beta) / k[s]
        c2 = 1 - (2 + beta) / k[s]
        acc = c1 * u[s] * at(k, s, 1) + c2 * at(k, s, 2)
        for t in range(len(k)):
            if t != s:
                acc += 2 * u[t] * at(k, t, 1) + at(k, t, 2)
        coeff[k] = -acc / r2
    return np.array([float(coeff[k]) for k in indices])


def naive_velocity_field(v, w, f, gamma, prefactor, z_floor=1e-12):
    """Plain O(N^2) double loop for U_i = -sum_j w_j A(v_i-v_j)(F_i-F_j)."""
    n, d = v.shape
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            z = v[i] - v[j]
            r2 = float(z @ z)
            if r2 <= z_floor * z_floor:
                continue
            a = prefactor * r2 ** (gamma / 2.0) * (r2 * np.eye(d) - np.outer(z, z))
            out[i] -= w[j] * (a @ (f[i] - f[j]))
    return out


def naive_dissipation(v, w, f, gamma, prefactor, z_floor=1e-12):
    """Plain O(N^2) quadratic form 0.5 sum w_i w_j dF . A dF."""
    n, d = v.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            z = v[i] - v[j]
            r2 = float(z @ z)
            if r2 <= z_floor * z_floor:
                continue
            a = prefactor * r2 ** (gamma / 2.0) * (r2 * np.eye(d) - np.outer(z, z))
            df = f[i] - f[j]
            total += w[i] * w[j] * float(df @ a @ df)
    return 0.5 * total


def cancellation_ensemble(case, n, dim, tile, seed, z_floor=1e-12):
    """(v, w, f) on which a pair sum that expands |v_i - v_j|^2 or reassociates
    its differences loses digits.

    "drift": velocities N(0, I) shifted by 1e3 on every axis. "flat_scores":
    scores 3 + 1e-6 N(0, 1). "floor_pair": two pairs 0.9 z_floor apart, one
    near (5, ..., 5) in rows tile - 1 and tile, one near (5, ..., 5, -5) in
    the last two rows; there |v|^2 is 75 in 3D, so |v_i|^2 + |v_j|^2 -
    2 v_i . v_j carries an error of ~1e-14, far above z_floor^2.
    """
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n) / n
    f = rng.normal(size=(n, dim))
    if case == "drift":
        v += 1e3
    elif case == "flat_scores":
        f = 3.0 + 1e-6 * rng.normal(size=(n, dim))
    elif case == "floor_pair":
        centers = np.full((2, dim), 5.0)
        centers[1, -1] = -5.0
        for (i, j), center, axis in zip([(tile - 1, tile), (n - 2, n - 1)], centers, [0, 1]):
            v[i] = center
            v[j] = center
            v[j, axis] += 0.9 * z_floor
    else:
        raise ValueError(case)
    return v, w, f
