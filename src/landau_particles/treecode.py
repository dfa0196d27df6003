"""Hierarchical cluster summation for the pairwise kernel sums.

Sums U_i = sum_j q_j phi(x_i, y_j) are evaluated by particle-cluster
interactions: sources are organized in a 2^d-way spatial bisection tree; a
cluster c with center y_c (box midpoint) and radius r_c = max_j |y_c - y_j| is
admissible for target x when r_c / |x - y_c| <= theta (the multipole
acceptance criterion), in which case the kernel is replaced by its Taylor
expansion about y_c contracted with the cluster moments
m_c^k = sum_j q_j (y_j - y_c)^k up to total order p. Inadmissible leaves fall
back to direct summation, so the singular collision kernel is never expanded
at short range.

Taylor coefficients a^k = (1/k!) D_y^k phi are generated by recurrences:
  Gaussian   eps k_s a^k + u_s a^(k-e_s) + a^(k-2e_s) = 0
  |u|^beta   |u|^2 a^k + (2-(2+beta)/k_s) u_s a^(k-e_s)
                + (1-(2+beta)/k_s) a^(k-2e_s)
                + sum_(t != s) [2 u_t a^(k-e_t) + a^(k-2e_t)] = 0
with u = y_c - x, valid for any s with k_s >= 1, both derived by Leibniz
differentiation of |u|^2 d_s f = (radial exponent) u_s f. The Gaussian
recurrence runs per target. The |u|^beta recurrence is target-independent
after the substitution a^k = |u|^(beta-|k|) P_k(u/|u|), so its coefficients
are a constant matrix, cached per (gamma, p, d), times the per-target
monomials q^j of q = u/|u|^2, scaled by |u|^beta. One |u|^gamma
expansion serves every collision-matrix component: with
A_rr = B sum_(t != r) u_t^2 |u|^gamma and A_rs = -B u_r u_s |u|^gamma, the
quadratic prefactors act as shifts of the cluster moments. The kernel-matrix
provider forms the coefficients only inside its far-field sum over k of
a^k m^k; taylor_coeffs_A evaluates that sum at unit moments (m^k = e_k),
which returns the coefficients themselves.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Z_FLOOR, mollifier_eval
from .particles import velocity_field_direct

_MAX_DEPTH = 48


class NearFieldError(ValueError):
    """Raised when a singular-kernel expansion is requested at near-zero range."""


@dataclass(frozen=True)
class TreecodeParams:
    """MAC opening angle theta in [0, 1), expansion order p >= 0, leaf size.

    theta = 0 admits no cluster of positive radius, so the traversal sums
    every leaf directly.
    """

    theta: float = 0.5
    order: int = 6
    leaf_capacity: int = 64

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")


# ---------------------------------------------------------------------------
# multi-index bookkeeping

def multi_indices(order, dim):
    """All multi-indices with |k| <= order, by grade |k|, each grade in
    reverse lexicographic order."""
    return sorted(
        (k for k in itertools.product(range(order + 1), repeat=dim) if sum(k) <= order),
        key=lambda k: (sum(k), [-c for c in k]),
    )


@functools.cache
def _index_tables(order, dim):
    """Lookup tables for the recurrences and the moment shifts; cached per
    (order, dim).

    Returns (indices, pivot, im1, im2, ip1) where im1[i, s] / im2[i, s] are
    the positions of k - e_s / k - 2 e_s (-1 if out of range), and ip1[i, s]
    is the position of k + e_s, or P when |k| = order. ip1 has a pad row P
    that maps to P on every axis, so shifts by several e_s compose through it.
    """
    idx = multi_indices(order, dim)
    pos = {k: i for i, k in enumerate(idx)}
    p_count = len(idx)
    ip1 = np.full((p_count + 1, dim), p_count)
    for i, k in enumerate(idx):
        for s in range(dim):
            ip1[i, s] = pos.get(k[:s] + (k[s] + 1,) + k[s + 1 :], p_count)
    im1 = np.full((p_count, dim), -1)
    rows, axes = np.nonzero(ip1[:p_count] < p_count)
    im1[ip1[rows, axes], axes] = rows
    im2 = np.where(im1 >= 0, im1[im1, np.arange(dim)], -1)
    pivot = np.argmax(np.array(idx), axis=1)
    return idx, pivot, im1, im2, ip1


def _gaussian_coeff_table(u, mol, order):
    """Taylor coefficients of psi_eps(x - y) in y about y_c, u = y_c - x.

    u has shape (T, d); returns (P, T).
    """
    t_count, dim = u.shape
    eps = mol.eps
    idx, pivot, im1, im2, _ = _index_tables(order, dim)
    b = np.empty((len(idx), t_count))
    r2 = np.einsum("td,td->t", u, u)
    b[0] = mol.norm_const * np.exp(-r2 / (2.0 * eps))
    for i in range(1, len(idx)):
        s = pivot[i]
        ks = idx[i][s]
        val = u[:, s] * b[im1[i, s]]
        if im2[i, s] >= 0:
            val = val + b[im2[i, s]]
        b[i] = val / (-eps * ks)
    return b


@functools.cache
def _grade_tables(order, dim):
    """Per grade g = 1..order of multi_indices: (rows, parents, axis) slices.

    Within a grade, the k with k_0 = .. = k_(s-1) = 0 < k_s form one run of
    rows, and k -> k - e_s maps that run in order onto the last rows of grade
    g - 1. So x^k = x^(k - e_s) x_s is one product of a slice of the grade
    below with the row x_s, for each axis s.
    """
    tables = []
    for grade in range(1, order + 1):
        row = math.comb(grade - 1 + dim, dim)
        below_end = row
        for s in range(dim):
            count = math.comb(grade - 1 + dim - 1 - s, dim - 1 - s)
            tables.append((slice(row, row + count), slice(below_end - count, below_end), s))
            row += count
    return tuple(tables)


def _monomials(x, order, lead=1.0, out=None):
    """lead * x^k for every |k| <= order of points x of shape (d, T).

    Returns (P, T), rows in multi_indices order, written to out when given;
    lead (scalar or (T,)) is the row k = 0 and scales every row. Each run of
    _grade_tables is one vectorised product with the grade below.
    """
    dim, t_count = x.shape
    if out is None:
        out = np.empty((math.comb(order + dim, dim), t_count))
    out[0] = lead
    for rows, parents, axis in _grade_tables(order, dim):
        np.multiply(out[parents], x[axis], out=out[rows])
    return out


@functools.cache
def _radial_coeff_matrix(beta, order, dim):
    """Constant H with the Taylor coefficients a^k(u) of |w - x|^beta about y_c.

    With u = y_c - x, r = |u| and q = u / r^2,
        a^k(u) = r^beta sum_(|j| = |k|) H[k, j] q^j.
    Substituting a^k = r^(beta - |k|) P_k(u~), u~ = u / r, into the
    recurrence of the module docstring and writing each 1 = |u~|^2 makes it
    division-free, target-independent and homogeneous:
        P_k = -[c1 u~_s P_(k-e_s) + c2 |u~|^2 P_(k-2e_s)
                + sum_(t != s) (2 u~_t P_(k-e_t) + |u~|^2 P_(k-2e_t))],
    P_0 = 1, c1 = 2 - (2+beta)/k_s, c2 = 1 - (2+beta)/k_s. So P_k is a
    homogeneous polynomial of degree |k| with coefficients H[k], and
    r^(-|k|) P_k(u~) = P_k(q). Rows are accumulated in long double and
    returned read-only in float64, shape (P, P), nonzero only where |j| = |k|.
    """
    idx, pivot, im1, im2, ip1 = _index_tables(order, dim)
    p_count = len(idx)
    # up[t][i] / up2[t][i]: position of k_i + e_t / k_i + 2 e_t, or the pad
    # column p_count, which only ever receives zeros
    up = ip1[:p_count].T
    up2 = ip1[up, np.arange(dim)[:, None]]
    beta = np.longdouble(beta)
    coeff = np.zeros((p_count, p_count + 1), dtype=np.longdouble)
    coeff[0, 0] = 1.0
    for i in range(1, p_count):
        s = pivot[i]
        row = coeff[i]
        for t in range(dim):
            if idx[i][t] == 0:
                continue
            if t == s:
                c1 = 2.0 - (2.0 + beta) / idx[i][s]
                c2 = 1.0 - (2.0 + beta) / idx[i][s]
            else:
                c1, c2 = 2.0, 1.0
            row[up[t]] += c1 * coeff[im1[i, t], :p_count]
            if im2[i, t] >= 0:
                for t2 in range(dim):
                    row[up2[t2]] += c2 * coeff[im2[i, t], :p_count]
        row *= -1.0
    out = coeff[:, :p_count].astype(float)
    out.setflags(write=False)
    return out


@functools.cache
def _shifted_coeff_stack(beta, order, dim):
    """The rows of _radial_coeff_matrix moved by each shift, shape (n_sh, P, P).

    The shifts sigma are 0, then e_r for each axis r, then e_r + e_s for each
    (r, s) of component_pairs(dim). Slice n has row H[i] at the position of
    k_i + sigma_n (rows whose shifted index exceeds the order are dropped), so
    node_moments @ slice n equals m^(k + sigma_n) @ H. This turns
    sum_p a^(p - sigma) m^p into a plain contraction against the
    coefficients. Read-only.
    """
    coeff = _radial_coeff_matrix(beta, order, dim)
    ip1 = _index_tables(order, dim)[4]
    p_count = coeff.shape[0]
    shifts = [()] + [(r,) for r in range(dim)] + component_pairs(dim)
    # row p_count is a pad that takes the rows shifted past the order
    stack = np.zeros((len(shifts), p_count + 1, p_count))
    for n, axes in enumerate(shifts):
        dest = np.arange(p_count)
        for t in axes:
            dest = ip1[dest, t]
        stack[n, dest] = coeff
    out = stack[:, :p_count]
    out.setflags(write=False)
    return out


def component_pairs(dim):
    """Index pairs of the independent collision-matrix entries (diagonal first)."""
    return [(r, r) for r in range(dim)] + [
        (r, s) for r in range(dim) for s in range(r + 1, dim)
    ]


class GaussianProvider:
    """Channel phi(x, y) = psi_eps(x - y)."""

    def __init__(self, mol):
        self.mol = mol
        self.n_outputs = 1

    def far_contribution(self, targets, center, node_moments, order):
        u = center[None, :] - targets
        table = _gaussian_coeff_table(u, self.mol, order)
        return (node_moments @ table)[None, :, :]

    def direct_sum(self, targets, sources, charges):
        psi = mollifier_eval(targets[:, None, :] - sources[None, :, :], self.mol)
        return np.einsum("ts,cs->ct", psi, charges)[None, :, :]


class KernelMatrixProvider:
    """Channels: the independent components of A(x - y), diagonal entries first.

    far_contribution reuses scratch tables held by the provider, so one
    provider serves one traversal at a time.
    """

    def __init__(self, spec):
        self.spec = spec
        self.pairs = component_pairs(spec.dim)
        self.n_outputs = len(self.pairs)
        # far_contribution writes its (P, T) basis and its moment sums into
        # tables kept here, so a traversal allocates them only when T grows.
        # Fresh multi-MB tables per cluster came as fresh pages from the OS
        # whenever the allocator's state let it return them (13-15k minor
        # page faults per evaluation at N = 2608).
        self._scratch = {}

    def _table(self, name, rows, cols):
        """A (rows, cols) scratch table, reused by later far_contribution calls."""
        buf = self._scratch.get(name)
        if buf is None or buf.size < rows * cols:
            buf = self._scratch[name] = np.empty(rows * cols)
        return buf[: rows * cols].reshape(rows, cols)

    def far_contribution(self, targets, center, node_moments, order):
        """Moment-contracted expansion sums, shape (n_comp, C, F).

        One |u|^gamma expansion serves every component. With the shifted
        moment sums S_sigma = sum_k a^k m^(k + sigma) of that expansion,
            Q_rs = u_r u_s S_0 + u_s S_(e_r) + u_r S_(e_s) + S_(e_r + e_s)
        is the order-p truncation of the sum of (u + delta)_r (u + delta)_s
        |u + delta|^gamma, so A_rr = B sum_(t != r) Q_tt and A_rs = -B Q_rs.
        The S_sigma are products of the moments with the cached coefficient
        matrices of _shifted_coeff_stack and the per-target basis.
        """
        spec = self.spec
        dim = spec.dim
        # C order: targets.T is Fortran-ordered, and every row of u below
        # would otherwise be read with a stride of d
        ut = np.subtract(center[:, None], targets.T, order="C")
        r2 = np.einsum("dt,dt->t", ut, ut)
        if np.any(r2 <= Z_FLOOR * Z_FLOOR):
            raise NearFieldError(
                "collision-matrix expansion requested at near-zero range; "
                "near-field pairs must use direct summation"
            )
        n_ch = node_moments.shape[0]
        # a^k = r^gamma sum_j H[k, j] q^j, q = u / r^2; B r^gamma rides on q^0
        t_count = targets.shape[0]
        basis = _monomials(
            ut / r2, order, spec.prefactor * r2 ** (0.5 * spec.gamma),
            out=self._table("basis", math.comb(order + dim, dim), t_count),
        )
        weights = np.matmul(
            node_moments, _shifted_coeff_stack(spec.gamma, order, dim)
        ).reshape(-1, basis.shape[0])
        # S_sigma has no terms of grade above p - |sigma|, and the basis is
        # graded, so those terms are a dropped suffix
        rows = np.cumsum([0, 1, dim, self.n_outputs]) * n_ch  # |sigma| = 0, 1, 2
        n_cols = [math.comb(order - g + dim, dim) if g <= order else 0 for g in range(3)]
        sums = self._table("sums", rows[-1], t_count)
        for lo, hi, n_col in zip(rows, rows[1:], n_cols):
            np.matmul(weights[lo:hi, :n_col], basis[:n_col], out=sums[lo:hi])
        sums = sums.reshape(-1, n_ch, t_count)
        # v_r = u_r S_0 + S_(e_r), so Q_rs = u_s v_r + u_r S_(e_s) + S_(e_r + e_s)
        # and Q_rr = u_r (v_r + S_(e_r)) + S_(2 e_r)
        v = ut[:, None, :] * sums[0]
        v += sums[1 : 1 + dim]
        q = sums[1 + dim :]
        tmp = np.empty_like(sums[0])
        for c, (r, s) in enumerate(self.pairs):
            if r == s:
                np.add(v[r], sums[1 + r], out=tmp)
                tmp *= ut[r]
                q[c] += tmp
            else:
                q[c] += np.multiply(ut[s], v[r], out=tmp)
                q[c] += np.multiply(ut[r], sums[1 + s], out=tmp)
        out = np.empty_like(q)
        for r in range(dim):
            rest = [t for t in range(dim) if t != r]
            np.copyto(out[r], q[rest[0]])
            for t in rest[1:]:
                out[r] += q[t]
        np.negative(q[dim:], out=out[dim:])
        return out

    def direct_sum(self, targets, sources, charges):
        spec = self.spec
        diff = targets[:, None, :] - sources[None, :, :]
        r2 = np.einsum("tsd,tsd->ts", diff, diff)
        near = r2 <= Z_FLOOR * Z_FLOOR
        base = spec.prefactor * np.where(near, 1.0, r2) ** (0.5 * spec.gamma)
        base[near] = 0.0
        res = np.empty((self.n_outputs, charges.shape[0], targets.shape[0]))
        for c, (r, s) in enumerate(self.pairs):
            if r == s:
                comp = base * (r2 - diff[:, :, r] * diff[:, :, r])
            else:
                comp = -base * (diff[:, :, r] * diff[:, :, s])
            res[c] = np.einsum("ts,cs->ct", comp, charges)
        return res


def taylor_coeffs_gaussian(x, y_c, mol, order):
    """Taylor coefficients a^k of psi_eps(x - .) about y_c, shape (P,)."""
    u = np.asarray(y_c, dtype=float) - np.asarray(x, dtype=float)
    return _gaussian_coeff_table(u[None, :], mol, order)[:, 0]


def taylor_coeffs_gaussian_grad(x, y_c, mol, order):
    """Coefficients of each component of grad psi_eps(x - .), shape (d, P):
    (u_s a^k + a^(k - e_s)) / eps with u = y_c - x, where a^(k - e_s) = 0 for
    k_s = 0."""
    u = np.asarray(y_c, dtype=float) - np.asarray(x, dtype=float)
    a = taylor_coeffs_gaussian(x, y_c, mol, order)
    im1 = _index_tables(order, u.shape[0])[2]
    lower = np.where(im1 >= 0, a[im1], 0.0).T  # (d, P)
    return (u[:, None] * a + lower) / mol.eps


def taylor_coeffs_A(x, y_c, spec, order):
    """Coefficients of the independent components of A(x - .), shape (n_comp, P).

    Component order follows component_pairs(spec.dim). Raises NearFieldError
    when |x - y_c| <= Z_FLOOR.
    """
    x = np.asarray(x, dtype=float)
    p_count = len(_index_tables(order, x.shape[0])[0])
    far = KernelMatrixProvider(spec).far_contribution(
        x[None, :], np.asarray(y_c, dtype=float), np.eye(p_count), order
    )
    return far[:, :, 0]


# ---------------------------------------------------------------------------
# cluster tree

class ClusterNode:
    __slots__ = ("index", "center", "radius", "start", "end", "children")

    def __init__(self, index, center, radius, start, end, children):
        self.index = index
        self.center = center
        self.radius = radius
        self.start = start
        self.end = end
        self.children = children

    @property
    def is_leaf(self):
        return not self.children


class ClusterTree:
    """Spatial bisection tree over a fixed source set.

    Sources are stored in a permuted copy so every node owns a contiguous
    slice [start, end); `permutation` maps permuted positions back to the
    original source indices.
    """

    def __init__(self, sources, params):
        sources = np.ascontiguousarray(sources, dtype=float)
        if sources.ndim != 2 or sources.shape[0] < 1:
            raise ValueError("sources must be a nonempty (N, d) array")
        self.dim = sources.shape[1]
        perm = np.arange(sources.shape[0])
        self.nodes = []
        lo = sources.min(axis=0)
        hi = sources.max(axis=0)
        self.root = self._build(sources, perm, 0, sources.shape[0], lo, hi, 0, params)
        self.permutation = perm
        self.sources = sources[perm]

    def _build(self, sources, perm, start, end, lo, hi, depth, params):
        center = 0.5 * (lo + hi)
        pts = sources[perm[start:end]]
        radius = float(np.sqrt(np.max(np.sum((pts - center) ** 2, axis=1))))
        node = ClusterNode(len(self.nodes), center, radius, start, end, [])
        self.nodes.append(node)
        if end - start <= params.leaf_capacity or depth >= _MAX_DEPTH:
            return node
        octant = np.zeros(end - start, dtype=int)
        for s in range(self.dim):
            octant |= (pts[:, s] > center[s]).astype(int) << s
        order = np.argsort(octant, kind="stable")
        perm[start:end] = perm[start:end][order]
        counts = np.bincount(octant, minlength=2**self.dim)
        offsets = start + np.concatenate([[0], np.cumsum(counts)])
        for code in range(2**self.dim):
            if counts[code] == 0:
                continue
            clo = lo.copy()
            chi = hi.copy()
            for s in range(self.dim):
                if code >> s & 1:
                    clo[s] = center[s]
                else:
                    chi[s] = center[s]
            child = self._build(
                sources, perm, offsets[code], offsets[code + 1], clo, chi,
                depth + 1, params,
            )
            node.children.append(child)
        return node


def build_tree(sources, params):
    """Build the 2^d-way bisection tree over the source points."""
    return ClusterTree(sources, params)


class ClusterMoments:
    """Per-node, per-channel moment tensors m_c^k = sum_j q_j (y_j - y_c)^k."""

    def __init__(self, tree, charges, order):
        charges = np.atleast_2d(np.asarray(charges, dtype=float))
        if charges.shape[1] != tree.sources.shape[0]:
            raise ValueError("one charge per source required in every channel")
        self.order = order
        self.n_channels = charges.shape[0]
        charges_perm = charges[:, tree.permutation]
        self.charges_perm = charges_perm
        sources_t = tree.sources.T
        self.per_node = [None] * len(tree.nodes)
        for node in tree.nodes:
            offs = sources_t[:, node.start : node.end] - node.center[:, None]
            mono = _monomials(offs, order)
            self.per_node[node.index] = charges_perm[:, node.start : node.end] @ mono.T


def compute_moments(tree, charges, order):
    """Moments of every cluster for each charge channel, all |k| <= order."""
    return ClusterMoments(tree, charges, order)


def treecode_sum(tree, moments, provider, targets, params, reduce=None):
    """Per-target kernel sums, shape (n_outputs, n_channels, T).

    MAC-admissible particle-cluster interactions use the truncated Taylor
    expansion contracted with cluster moments; inadmissible leaves are summed
    directly. With reduce = (width, fn), the (n_outputs, n_channels, F) sums
    of each interaction with the targets tidx are mapped to fn(sums, tidx),
    shape (width, F), before they are accumulated, and the result has shape
    (width, T).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    t_count = targets.shape[0]
    if reduce is None:
        shape, contract = (provider.n_outputs, moments.n_channels), None
    else:
        width, contract = reduce
        shape = (width,)
    # target-major accumulator: each interaction gathers, adds to and stores
    # back whole contiguous rows. Row gathers use np.take, several times
    # faster than fancy indexing; the target subsets hold no repeats.
    acc = np.zeros((t_count, *shape))

    def add(sel, sums):
        if contract is not None:
            sums = contract(sums, sel)
        rows = np.take(acc, sel, axis=0)
        rows += np.moveaxis(sums, -1, 0)
        acc[sel] = rows

    stack = [(tree.root, np.arange(t_count))]
    while stack:
        node, tidx = stack.pop()
        x = np.take(targets, tidx, axis=0)
        diff = x - node.center
        dist = np.sqrt(np.einsum("td,td->t", diff, diff))
        far = (node.radius <= params.theta * dist) & (dist > Z_FLOOR)
        far_at = np.flatnonzero(far)
        if far_at.size:
            add(tidx[far_at], provider.far_contribution(
                np.take(x, far_at, axis=0), node.center,
                moments.per_node[node.index], params.order,
            ))
        if far_at.size < tidx.size:
            near_at = np.flatnonzero(~far)
            nidx = tidx[near_at]
            if node.is_leaf:
                add(nidx, provider.direct_sum(
                    np.take(x, near_at, axis=0),
                    tree.sources[node.start : node.end],
                    moments.charges_perm[:, node.start : node.end],
                ))
            else:
                for child in node.children:
                    stack.append((child, nidx))
    return np.moveaxis(acc, 0, -1)


def treecode_velocity_field(ens, scores, spec, params):
    """Treecode evaluation of U_i = -sum_j w_j A(v_i - v_j)[F_i - F_j].

    Charge channels are {w_j} and {w_j F_j,s}; the independent components of A
    share one tree and one traversal, and each interaction's sums are
    contracted with the targets' F_i before they are accumulated, so only the
    d components of U are gathered and scattered per target. theta = 0 (no
    expansion can be admitted) and gamma = 0 (the direct engine sums the
    polynomial kernel exactly in O(N) through global moments) route to the
    direct engine, giving bit-identical results.
    """
    if params.theta == 0.0 or spec.gamma == 0.0:
        return velocity_field_direct(ens, scores, spec)
    f = np.asarray(scores, dtype=float)
    dim = ens.dim
    if f.shape != (ens.size, dim):
        raise ValueError("scores must be evaluated at the particle locations")
    tree = build_tree(ens.velocities, params)
    charges = np.empty((dim + 1, ens.size))
    charges[0] = ens.weights
    charges[1:] = (ens.weights[:, None] * f).T
    moments = compute_moments(tree, charges, params.order)
    provider = KernelMatrixProvider(spec)
    comp = np.empty((dim, dim), dtype=int)
    for c, (r, s) in enumerate(component_pairs(dim)):
        comp[r, s] = comp[s, r] = c
    channel = 1 + np.arange(dim)
    f_rows = np.ascontiguousarray(f.T)

    def velocity_terms(sums, tidx):
        # U_r = sum_s (sum_j w_j A_rs F_j,s  minus  sum_j w_j A_rs F_i,s)
        terms = sums[comp, channel]
        terms -= sums[comp, 0] * np.take(f_rows, tidx, axis=1)
        return terms.sum(axis=1)

    velocity = treecode_sum(
        tree, moments, provider, ens.velocities, params, reduce=(dim, velocity_terms)
    )
    return velocity.T
