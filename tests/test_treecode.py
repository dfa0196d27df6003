"""Cluster tree, moments, Taylor coefficient recurrences, treecode sums."""

import itertools
import math

import numpy as np
import pytest

from landau_particles import CollisionKernelSpec, Mollifier, ParticleEnsemble
from landau_particles.particles import velocity_field_direct
from landau_particles.treecode import (
    _monomials,
    _radial_coeff_matrix,
    ClusterTree,
    NearFieldError,
    TreecodeParams,
    build_tree,
    component_pairs,
    compute_moments,
    GaussianProvider,
    KernelMatrixProvider,
    multi_indices,
    taylor_coeffs_A,
    taylor_coeffs_gaussian,
    taylor_coeffs_gaussian_grad,
    treecode_sum,
    treecode_velocity_field,
)

from helpers import (
    collision_entry_longdouble,
    gaussian_longdouble,
    radial_taylor_coeffs_longdouble,
    taylor_coefficient,
)


def test_multi_indices_counts_and_grading():
    for dim in (2, 3):
        for p in (0, 2, 5):
            idx = multi_indices(p, dim)
            assert len(idx) == math.comb(p + dim, dim)
            totals = [sum(k) for k in idx]
            assert totals == sorted(totals)
            assert len(set(idx)) == len(idx)


def test_build_tree_single_leaf():
    pts = np.random.default_rng(0).normal(size=(5, 3))
    tree = build_tree(pts, TreecodeParams(leaf_capacity=8))
    assert tree.root.is_leaf
    assert tree.root.end - tree.root.start == 5


def test_build_tree_cube_corners_octree():
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    tree = build_tree(corners, TreecodeParams(leaf_capacity=1))
    assert not tree.root.is_leaf
    assert len(tree.root.children) == 8
    assert all(ch.is_leaf and ch.end - ch.start == 1 for ch in tree.root.children)
    assert np.allclose(tree.root.center, 0.0)
    assert tree.root.radius == pytest.approx(np.sqrt(3.0), rel=1e-14)


def test_build_tree_partitions_every_source_once():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(1000, 3))
    tree = build_tree(pts, TreecodeParams(leaf_capacity=16))
    seen = np.zeros(1000, dtype=int)
    for node in tree.nodes:
        if node.is_leaf:
            seen[tree.permutation[node.start : node.end]] += 1
    assert np.all(seen == 1)
    # radii cover the actual sources
    for node in tree.nodes:
        pts_in = tree.sources[node.start : node.end]
        assert np.all(
            np.linalg.norm(pts_in - node.center, axis=1) <= node.radius + 1e-12
        )


def test_moments_order_zero_and_centered_source():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    q = rng.uniform(0.1, 1.0, size=(2, 40))
    tree = build_tree(pts, TreecodeParams(leaf_capacity=10))
    mom = compute_moments(tree, q, 0)
    for node in tree.nodes:
        orig = tree.permutation[node.start : node.end]
        assert np.allclose(mom.per_node[node.index][:, 0], q[:, orig].sum(axis=1), rtol=1e-13)
    # a single source exactly at the cluster center has no higher moments
    single = build_tree(np.zeros((1, 2)), TreecodeParams())
    m = compute_moments(single, np.ones((1, 1)), 4)
    vals = m.per_node[0][0]
    assert vals[0] == 1.0
    assert np.all(vals[1:] == 0.0)


def test_moments_match_brute_force():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(60, 3))
    q = rng.normal(size=(1, 60))
    tree = build_tree(pts, TreecodeParams(leaf_capacity=12))
    order = 3
    idx = multi_indices(order, 3)
    mom = compute_moments(tree, q, order)
    for node in tree.nodes:
        orig = tree.permutation[node.start : node.end]
        offs = pts[orig] - node.center
        for i, k in enumerate(idx):
            brute = float(
                np.sum(q[0, orig] * offs[:, 0] ** k[0] * offs[:, 1] ** k[1] * offs[:, 2] ** k[2])
            )
            scale = max(abs(brute), np.max(np.abs(mom.per_node[node.index])))
            assert abs(mom.per_node[node.index][0, i] - brute) <= 1e-13 * max(scale, 1e-30)


def test_moments_parent_equals_shifted_children():
    # m_parent^k = sum_children sum_{j<=k} C(k,j) (y_child - y_parent)^(k-j) m_child^j
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(80, 2))
    q = rng.uniform(0.5, 2.0, size=(1, 80))
    tree = build_tree(pts, TreecodeParams(leaf_capacity=20))
    order = 3
    idx = multi_indices(order, 2)
    pos = {k: i for i, k in enumerate(idx)}
    mom = compute_moments(tree, q, order)
    parent = tree.root
    if parent.is_leaf:
        pytest.skip("tree did not split")
    for i, k in enumerate(idx):
        total = 0.0
        for child in parent.children:
            shift = child.center - parent.center
            for j0 in range(k[0] + 1):
                for j1 in range(k[1] + 1):
                    comb = math.comb(k[0], j0) * math.comb(k[1], j1)
                    total += (
                        comb
                        * shift[0] ** (k[0] - j0)
                        * shift[1] ** (k[1] - j1)
                        * mom.per_node[child.index][0, pos[(j0, j1)]]
                    )
        assert total == pytest.approx(mom.per_node[parent.index][0, i], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [3, 2])
def test_gaussian_coeffs_low_orders_closed_form(dim):
    mol = Mollifier(eps=0.4, dim=dim)
    x = np.array([0.2, -0.5, 1.0])[:dim]
    yc = np.array([1.5, 0.3, -0.2])[:dim]
    coeffs = taylor_coeffs_gaussian(x, yc, mol, 1)
    assert coeffs.shape == (dim + 1,)
    z = x - yc
    psi = mol.norm_const * np.exp(-float(z @ z) / (2 * mol.eps))
    assert coeffs[0] == pytest.approx(psi, rel=1e-14)
    idx = multi_indices(1, dim)
    for s in range(dim):
        i = idx.index(tuple(int(t == s) for t in range(dim)))
        assert coeffs[i] == pytest.approx((x[s] - yc[s]) / mol.eps * psi, rel=1e-13)


def test_gaussian_coeffs_match_finite_differences():
    rng = np.random.default_rng(17)
    mol = Mollifier(eps=0.35, dim=3)
    idx = multi_indices(4, 3)
    for _ in range(10):
        x = rng.normal(size=3)
        yc = x + rng.normal(size=3) + np.sign(rng.normal(size=3)) * 1.2
        coeffs = taylor_coeffs_gaussian(x, yc, mol, 4)
        scale = np.max(np.abs(coeffs))
        f_ld = gaussian_longdouble(mol.eps, 3)
        for i, k in enumerate(idx):
            fd = taylor_coefficient(
                lambda w: f_ld(x - np.asarray(w, dtype=np.longdouble)),
                yc, k, base_step=0.05, levels=4,
            )
            assert abs(coeffs[i] - fd) <= max(1e-6 * abs(fd), 1e-9 * scale)


def test_gaussian_grad_coeffs_match_finite_differences():
    rng = np.random.default_rng(23)
    mol = Mollifier(eps=0.5, dim=3)
    idx = multi_indices(4, 3)
    x = rng.normal(size=3)
    yc = x + np.array([1.4, -1.1, 0.9])
    coeffs = taylor_coeffs_gaussian_grad(x, yc, mol, 4)
    scale = np.max(np.abs(coeffs))
    f_ld = gaussian_longdouble(mol.eps, 3)
    for s in range(3):
        def fgrad(w, s=s):
            w = np.asarray(w, dtype=np.longdouble)
            z = np.asarray(x, dtype=np.longdouble) - w
            return -(z[s] / np.longdouble(mol.eps)) * f_ld(z)

        for i, k in enumerate(idx):
            fd = taylor_coefficient(fgrad, yc, k, base_step=0.05, levels=4)
            assert abs(coeffs[s, i] - fd) <= max(1e-6 * abs(fd), 1e-9 * scale)


@pytest.mark.parametrize("dim", [3, 2])
def test_A_coeffs_order_zero_is_kernel_entry(dim):
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=dim)
    x = np.array([0.3, 0.1, -0.4])[:dim]
    yc = np.array([-1.2, 0.8, 0.5])[:dim]
    coeffs = taylor_coeffs_A(x, yc, spec, 0)
    assert coeffs.shape == (len(component_pairs(dim)), 1)
    z = x - yc
    r2 = float(z @ z)
    base = spec.prefactor * r2 ** (-1.5)
    for c, (r, s) in enumerate(component_pairs(dim)):
        expected = base * (r2 - z[r] * z[r]) if r == s else -base * z[r] * z[s]
        assert coeffs[c, 0] == pytest.approx(expected, rel=1e-13)


def test_A_coeffs_polynomial_termination_for_maxwell():
    spec = CollisionKernelSpec(gamma=0.0, prefactor=1 / 16, dim=3)
    x = np.array([0.1, -0.4, 0.7])
    yc = np.array([2.0, 1.0, -1.5])
    coeffs = taylor_coeffs_A(x, yc, spec, 5)
    idx = multi_indices(5, 3)
    hi = [i for i, k in enumerate(idx) if sum(k) >= 3]
    assert np.max(np.abs(coeffs[:, hi])) <= 1e-12 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("gamma", [0.0, -3.0])
def test_A_coeffs_match_finite_differences(gamma):
    rng = np.random.default_rng(31)
    spec = CollisionKernelSpec(gamma=gamma, prefactor=1 / 16, dim=3)
    idx = multi_indices(4, 3)
    for _ in range(5):
        x = rng.normal(size=3)
        yc = x + rng.normal(size=3) * 1.5 + np.sign(rng.normal(size=3)) * 1.5
        dist = np.linalg.norm(yc - x)
        coeffs = taylor_coeffs_A(x, yc, spec, 4)
        scale = np.max(np.abs(coeffs))
        for c, (r, s) in enumerate(component_pairs(3)):
            ent = collision_entry_longdouble(gamma, spec.prefactor, r, s)
            for i, k in enumerate(idx):
                fd = taylor_coefficient(
                    lambda w: ent(x - np.asarray(w, dtype=np.longdouble)),
                    yc, k, base_step=0.04 * dist, levels=4,
                )
                # absolute floor 1e-9*scale keeps identically-zero coefficients
                # (gamma=0, |k|>=3) from being compared against oracle noise
                assert abs(coeffs[c, i] - fd) <= max(1e-5 * abs(fd), 1e-9 * scale)


@pytest.mark.parametrize("gamma", [-3.0, -2.0, -1.0, 1.0])
@pytest.mark.parametrize("order", [0, 1, 4, 6, 10])
@pytest.mark.parametrize("dim", [3, 2])
def test_radial_coeff_matrix_matches_row_recurrence(dim, order, gamma):
    # a^k(u) = |u|^gamma sum_j H[k, j] q^j, q = u / |u|^2, against the per-target
    # row recurrence in long double; each a^k is compared in units of its
    # natural size |u|^(gamma - |k|), relative to the largest of one target
    rng = np.random.default_rng(41)
    idx = multi_indices(order, dim)
    grade = np.array([sum(k) for k in idx])
    coeff = _radial_coeff_matrix(gamma, order, dim)
    for radius in (0.3, 1.0, 2.7):
        for _ in range(4):
            u = rng.normal(size=dim)
            u *= radius / np.linalg.norm(u)
            r2 = u @ u
            basis = _monomials(u[:, None] / r2, order, r2 ** (0.5 * gamma))
            got = (coeff @ basis)[:, 0]
            ref = radial_taylor_coeffs_longdouble(u, gamma, idx)
            size = radius ** (grade - gamma)
            assert np.max(np.abs(got - ref) * size) <= 1e-13 * np.max(np.abs(ref) * size)


@pytest.mark.parametrize("order", [0, 1, 4, 7])
@pytest.mark.parametrize("dim", [3, 2])
def test_monomials_match_powers(dim, order):
    rng = np.random.default_rng(43)
    x = rng.uniform(-2.0, 2.0, size=(dim, 9))
    lead = rng.uniform(0.5, 2.0, size=9)
    got = _monomials(x, order, lead)
    ref = np.array([lead * np.prod(x ** np.array(k)[:, None], axis=0)
                    for k in multi_indices(order, dim)])
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


@pytest.mark.parametrize("dim", [3, 2])
def test_radial_coeff_matrix_constant_for_gamma_zero(dim):
    # |u|^0 = 1: every coefficient beyond the constant term vanishes exactly
    coeff = _radial_coeff_matrix(0.0, 6, dim)
    assert coeff[0, 0] == 1.0
    assert np.all(coeff[1:] == 0.0)


def test_A_coeffs_near_field_raises():
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1.0, dim=3)
    x = np.array([0.5, 0.5, 0.5])
    with pytest.raises(NearFieldError):
        taylor_coeffs_A(x, x + 1e-13, spec, 2)


def _random_instance(rng, n, dim):
    pts = rng.uniform(-1, 1, size=(n, dim))
    q = rng.uniform(0.1, 1.0, size=(1, n))
    return pts, q


def _naive_gaussian_sums(targets, pts, q, mol):
    from landau_particles.kernels import mollifier_eval

    return np.array(
        [[[float(np.sum(qc * mollifier_eval(t - pts, mol))) for t in targets] for qc in q]]
    )


def _naive_kernel_matrix_sums(targets, pts, q, spec):
    # sum_j q_j A_rs(x - y_j) from the definition, one pair at a time
    from landau_particles.kernels import kernel_matrix

    pairs = component_pairs(spec.dim)
    out = np.zeros((len(pairs), q.shape[0], len(targets)))
    for t, x in enumerate(targets):
        for j, y in enumerate(pts):
            a = kernel_matrix(x - y, spec)
            for c, (r, s) in enumerate(pairs):
                out[c, :, t] += q[:, j] * a[r, s]
    return out


@pytest.mark.parametrize(
    "kind, rtol",
    [
        pytest.param("gaussian", 1e-13, id="gaussian"),
        pytest.param("kernel_matrix", 1e-12, id="kernel_matrix"),
    ],
)
def test_treecode_sum_theta_zero_is_direct(kind, rtol):
    rng = np.random.default_rng(2)
    pts, q = _random_instance(rng, 300, 3)
    params = TreecodeParams(theta=0.0, order=4, leaf_capacity=16)
    tree = build_tree(pts, params)
    mom = compute_moments(tree, q, params.order)
    # the last target coincides with a source: that pair lies under Z_FLOOR
    targets = np.vstack([rng.uniform(-1, 1, size=(50, 3)), pts[7:8]])
    if kind == "gaussian":
        mol = Mollifier(eps=0.05, dim=3)
        provider = GaussianProvider(mol)
        direct = _naive_gaussian_sums(targets, pts, q, mol)
    else:
        spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=3)
        provider = KernelMatrixProvider(spec)
        direct = _naive_kernel_matrix_sums(targets, pts, q, spec)
    got = treecode_sum(tree, mom, provider, targets, params)
    assert got.shape == direct.shape
    assert np.all(np.isfinite(got))
    assert np.allclose(got, direct, rtol=rtol, atol=1e-300)


def test_kernel_far_contribution_reuses_scratch_without_aliasing():
    # one provider serves far sums of growing and shrinking target sets; each
    # result equals a fresh provider's and survives the provider's later calls
    rng = np.random.default_rng(8)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=3)
    center = np.zeros(3)
    moments = rng.standard_normal((4, math.comb(6 + 3, 3)))
    targets = rng.uniform(2.0, 3.0, size=(60, 3))
    provider = KernelMatrixProvider(spec)
    kept = []
    for count in (20, 60, 5, 60, 33):
        got = provider.far_contribution(targets[:count], center, moments, 6)
        fresh = KernelMatrixProvider(spec).far_contribution(targets[:count], center, moments, 6)
        assert np.array_equal(got, fresh)
        kept.append((got, got.copy()))
    assert all(np.array_equal(a, b) for a, b in kept)


def test_treecode_sum_monopole_far_cluster():
    # zeroth-order expansion of one far cluster is phi(x, y_c) * sum(q)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(20, 3)) * 0.05
    q = rng.uniform(0.5, 1.0, size=(1, 20))
    mol = Mollifier(eps=0.3, dim=3)
    params = TreecodeParams(theta=0.9, order=0, leaf_capacity=32)
    tree = build_tree(pts, params)
    mom = compute_moments(tree, q, 0)
    target = np.array([[5.0, 0.0, 0.0]])
    got = treecode_sum(tree, mom, GaussianProvider(mol), target, params)[0, 0, 0]
    from landau_particles.kernels import mollifier_eval

    expected = float(np.sum(q)) * float(mollifier_eval(target[0] - tree.root.center, mol))
    assert got == pytest.approx(expected, rel=1e-14)


def test_treecode_sum_accuracy_monotone_in_order():
    rng = np.random.default_rng(77)
    pts, q = _random_instance(rng, 2000, 3)
    mol = Mollifier(eps=0.1, dim=3)
    targets = pts[:200]
    from landau_particles.kernels import mollifier_eval

    direct = np.array(
        [float(np.sum(q[0] * mollifier_eval(t - pts, mol))) for t in targets]
    )
    errs = []
    for order in (0, 2, 4, 6):
        params = TreecodeParams(theta=0.5, order=order, leaf_capacity=32)
        tree = build_tree(pts, params)
        mom = compute_moments(tree, q, order)
        got = treecode_sum(tree, mom, GaussianProvider(mol), targets, params)[0, 0]
        errs.append(float(np.max(np.abs(got - direct) / np.abs(direct))))
    assert errs[0] >= errs[1] >= errs[2] >= errs[3]
    # frozen from the calibration run on this instance (1.0e-1 / 7.6e-3 /
    # 1.9e-3 / 7.2e-4); guards against accuracy regressions
    assert errs[3] < 1.5e-3


def test_treecode_sum_translation_invariance():
    rng = np.random.default_rng(13)
    pts, q = _random_instance(rng, 500, 3)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1.0, dim=3)
    params = TreecodeParams(theta=0.5, order=4, leaf_capacity=16)
    targets = rng.uniform(-1, 1, size=(40, 3)) * 2.0
    shift = np.array([3.7, -1.9, 0.6])

    def run(points, tgts):
        tree = build_tree(points, params)
        mom = compute_moments(tree, q, params.order)
        return treecode_sum(tree, mom, KernelMatrixProvider(spec), tgts, params)

    base = run(pts, targets)
    moved = run(pts + shift, targets + shift)
    assert np.max(np.abs(base - moved)) <= 1e-10 * max(1.0, np.max(np.abs(base)))


def test_treecode_sum_reduce_contracts_every_interaction():
    # a per-target linear map applied to each interaction's sums, then summed,
    # equals the map applied to the unreduced per-target sums
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(700, 3))
    q = rng.normal(size=(4, 700))
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=3)
    params = TreecodeParams(theta=0.5, order=4, leaf_capacity=16)
    tree = build_tree(pts, params)
    mom = compute_moments(tree, q, params.order)
    targets = np.vstack([rng.uniform(-1.5, 1.5, size=(200, 3)), pts[:5]])
    mix = rng.normal(size=(len(targets), 2, 6, 4))

    def contract(sums, tidx):
        return np.einsum("tmcq,cqt->mt", mix[tidx], sums)

    full = treecode_sum(tree, mom, KernelMatrixProvider(spec), targets, params)
    reduced = treecode_sum(
        tree, mom, KernelMatrixProvider(spec), targets, params, reduce=(2, contract)
    )
    assert reduced.shape == (2, len(targets))
    expected = contract(full, np.arange(len(targets)))
    assert np.allclose(reduced, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


def _random_ensemble_with_scores(rng, n, dim):
    v = rng.uniform(-1, 1, size=(n, dim))
    w = rng.uniform(0.2, 1.0, size=n) / n
    f = rng.normal(size=(n, dim))
    return ParticleEnsemble(v, w), f


def test_treecode_velocity_theta_zero_bit_identical():
    rng = np.random.default_rng(4)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=3)
    ens, f = _random_ensemble_with_scores(rng, 500, 3)
    params = TreecodeParams(theta=0.0, order=6, leaf_capacity=32)
    direct = velocity_field_direct(ens, f, spec)
    tc = treecode_velocity_field(ens, f, spec, params)
    assert np.array_equal(direct, tc)


@pytest.mark.parametrize("gamma", [0.0, -3.0])
def test_treecode_velocity_matches_direct(gamma):
    rng = np.random.default_rng(19)
    spec = CollisionKernelSpec(gamma=gamma, prefactor=1 / 16, dim=3)
    ens, f = _random_ensemble_with_scores(rng, 3000, 3)
    params = TreecodeParams(theta=0.5, order=6, leaf_capacity=48)
    direct = velocity_field_direct(ens, f, spec)
    tc = treecode_velocity_field(ens, f, spec, params)
    rel_l2 = np.linalg.norm(tc - direct) / np.linalg.norm(direct)
    assert rel_l2 < 1e-3
    if gamma == 0.0:
        # polynomial kernel: routed to the direct engine's exact moment path
        assert np.array_equal(tc, direct)


@pytest.mark.parametrize("gamma", [-2.0, -1.0, 1.0])
@pytest.mark.parametrize("dim, n", [(3, 3000), (2, 1500)])
def test_treecode_velocity_matches_direct_other_gammas(dim, n, gamma):
    rng = np.random.default_rng(29)
    spec = CollisionKernelSpec(gamma=gamma, prefactor=1 / 16, dim=dim)
    ens, f = _random_ensemble_with_scores(rng, n, dim)
    params = TreecodeParams(theta=0.5, order=6, leaf_capacity=48)
    direct = velocity_field_direct(ens, f, spec)
    tc = treecode_velocity_field(ens, f, spec, params)
    assert np.linalg.norm(tc - direct) / np.linalg.norm(direct) < 1e-3
    assert np.array_equal(treecode_velocity_field(ens, f, spec, params), tc)


def test_treecode_velocity_momentum_bound():
    rng = np.random.default_rng(6)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / (4 * np.pi), dim=3)
    ens, f = _random_ensemble_with_scores(rng, 2000, 3)
    scale = None
    for theta, bound in [(0.0, 1e-12), (0.5, 1e-3)]:
        params = TreecodeParams(theta=theta, order=6, leaf_capacity=32)
        u = treecode_velocity_field(ens, f, spec, params)
        if scale is None:
            scale = float(np.sum(ens.weights * np.linalg.norm(u, axis=1)))
        drift = np.linalg.norm(ens.weights @ u)
        assert drift <= bound * scale


def test_treecode_velocity_2d_smoke():
    rng = np.random.default_rng(15)
    spec = CollisionKernelSpec(gamma=-3.0, prefactor=1 / 16, dim=2)
    ens, f = _random_ensemble_with_scores(rng, 1500, 2)
    params = TreecodeParams(theta=0.5, order=6, leaf_capacity=32)
    direct = velocity_field_direct(ens, f, spec)
    tc = treecode_velocity_field(ens, f, spec, params)
    assert np.linalg.norm(tc - direct) / np.linalg.norm(direct) < 1e-3
