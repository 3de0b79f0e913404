"""P1 assembly routines, quadrature and linear solvers."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homsim import fem, macro
from homsim.mesh import Mesh, build_macro_mesh

from conftest import isotropic_elasticity


@pytest.fixture(scope="module")
def unit_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


@pytest.fixture(scope="module")
def macro_space(macro_mesh):
    return fem.FemSpace(macro_mesh)


def test_reference_stiffness_matrix(unit_triangle):
    # the stiffness kernel takes the integral of the coefficient 1 over each element
    A = fem.assemble_grad_grad(fem.FemSpace(unit_triangle), unit_triangle.areas).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(A, expected)


def test_mass_matrix_sums_to_area(macro_space):
    M = fem.assemble_mass(macro_space, np.ones(macro_space.wq.shape))
    assert M.sum() == pytest.approx(1.0, abs=1e-12)


def test_source_vector_sums_to_integral(macro_space):
    b = fem.assemble_source(macro_space, np.ones(macro_space.wq.shape))
    assert b.sum() == pytest.approx(1.0, abs=1e-12)


def test_element_gradient_exact_for_linear(macro_mesh):
    nodal = 3.0 * macro_mesh.nodes[:, 0] - 2.0 * macro_mesh.nodes[:, 1]
    g = fem.element_gradient(macro_mesh, nodal)
    assert np.allclose(g[:, 0], 3.0, atol=1e-12)
    assert np.allclose(g[:, 1], -2.0, atol=1e-12)


def test_quadrature_exactness(macro_mesh):
    # the edge-midpoint rule integrates quadratics over the unit square exactly
    xq, wq, _ = fem.quad_points(macro_mesh)
    assert np.sum(wq * xq[..., 0] ** 2) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert np.sum(wq * xq[..., 0] * xq[..., 1]) == pytest.approx(1.0 / 4.0, abs=1e-12)


def _poisson_error(n):
    """Dirichlet Poisson problem with u = sin(pi x) sin(pi y)."""
    mesh = build_macro_mesh(1.0 / n)
    x, y = mesh.nodes.T
    exact = np.sin(np.pi * x) * np.sin(np.pi * y)
    space = fem.FemSpace(mesh)
    xq = space.xq
    f = 2 * np.pi**2 * np.sin(np.pi * xq[..., 0]) * np.sin(np.pi * xq[..., 1])
    A = fem.assemble_grad_grad(space, mesh.areas)
    b = fem.assemble_source(space, f)
    bn = mesh.boundary_nodes
    A, b = fem.apply_dirichlet(A, b, bn, np.zeros(len(bn)))
    u = fem.solve_spd(A, b)
    M = fem.assemble_mass(space, np.ones(space.wq.shape))
    e = u - exact
    return float(np.sqrt(e @ (M @ e))), mesh.h


def test_poisson_second_order_convergence():
    e1, h1 = _poisson_error(8)
    e2, h2 = _poisson_error(16)
    rate = np.log(e1 / e2) / np.log(h1 / h2)
    assert 1.7 < rate < 2.3


def test_elasticity_matrix_spd(macro_mesh, macro_space):
    d = np.eye(2)
    c = (np.einsum("ij,kl->ijkl", d, d)
         + np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    K = fem.assemble_elasticity(macro_space, macro_mesh.areas[:, None, None, None, None] * c).tocsr()
    assert abs(K - K.T).max() < 1e-12
    # positive semi-definite with rigid modes; pin the boundary for PD
    bn = macro_mesh.boundary_nodes
    bd = np.concatenate([2 * bn, 2 * bn + 1])
    b = np.zeros(K.shape[0])
    K2, _ = fem.apply_dirichlet(K, b, bd, np.zeros(len(bd)))
    lam = spla.eigsh(K2, k=1, which="SA", return_eigenvectors=False)
    assert lam[0] > 0


def test_elasticity_energy_of_linear_displacement(macro_mesh, macro_space):
    """U = (x1, 0) gives strain e11=1 and energy = c_1111 * |domain| / 2 pattern."""
    d = np.eye(2)
    lame, mu = 2.0, 1.5
    c = (lame * np.einsum("ij,kl->ijkl", d, d)
         + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)))
    K = fem.assemble_elasticity(macro_space, macro_mesh.areas[:, None, None, None, None] * c)
    U = np.zeros((macro_mesh.num_nodes, 2))
    U[:, 0] = macro_mesh.nodes[:, 0]
    u = U.ravel()
    energy = u @ (K @ u)
    assert energy == pytest.approx(lame + 2 * mu, rel=1e-12)


def test_tensor_flux_consistent_with_divergence(macro_mesh, macro_space):
    """For constant G, int G_ij dv_i/dx_j equals the boundary contraction."""
    G = np.zeros((macro_mesh.num_triangles, 3, 2, 2))
    G[..., 0, 0] = 1.0
    b = fem.assemble_tensor_flux(macro_space, G)
    U = np.zeros((macro_mesh.num_nodes, 2))
    U[:, 0] = macro_mesh.nodes[:, 0]  # v = (x1, 0): dv1/dx1 = 1
    assert U.ravel() @ b == pytest.approx(1.0, rel=1e-12)


def _scatter_matrix(elem, dofs):
    """Reference assembly of (nt, n, n) element blocks over (nt, n) dofs: SciPy's COO -> CSR."""
    rows = np.broadcast_to(dofs[:, :, None], elem.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], elem.shape).ravel()
    n = dofs.max() + 1
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _scatter_vector(elem, dofs):
    out = np.zeros(dofs.max() + 1)
    np.add.at(out, dofs.ravel(), elem.ravel())
    return out


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_quadrature_varying_elasticity_matches_direct_contraction(macro_mesh, macro_space):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(macro_space.wq.shape + (2, 2, 2, 2))
    g = macro_mesh.grads
    ke = np.einsum("tq,tqijkl,tal,tbj->tbiak", macro_space.wq, c, g, g)
    ref = _scatter_matrix(ke.reshape(-1, 6, 6), fem.vector_dofs(macro_mesh.triangles)).toarray()
    # the kernel contracts the element integral of c
    K = fem.assemble_elasticity(macro_space, np.einsum("tq,tq...->t...", macro_space.wq, c)).toarray()
    assert _rel(K, ref) <= 1e-13


def test_quadrature_varying_tensor_flux_matches_direct_contraction(macro_mesh, macro_space):
    rng = np.random.default_rng(4)
    G = rng.standard_normal(macro_space.wq.shape + (2, 2))
    elem = np.einsum("tq,tqij,taj->tai", macro_space.wq, G, macro_mesh.grads)
    ref = _scatter_vector(elem, fem.vector_dofs(macro_mesh.triangles))
    assert _rel(fem.assemble_tensor_flux(macro_space, G), ref) <= 1e-13


def test_quadrature_varying_conductivity_matches_direct_contraction(macro_mesh, macro_space):
    rng = np.random.default_rng(5)
    k = rng.standard_normal(macro_space.wq.shape + (2, 2))
    g = macro_mesh.grads
    kg = np.einsum("tq,tqij,tbj->tbi", macro_space.wq, k, g)
    ref = _scatter_matrix(np.einsum("tai,tbi->tab", g, kg), macro_mesh.triangles).toarray()
    kbar = np.einsum("tq,tq...->t...", macro_space.wq, k)  # the element integral of k
    assert _rel(fem.assemble_grad_grad(macro_space, kbar).toarray(), ref) <= 1e-13


def test_element_constant_elasticity_keeps_its_rounding(pattern_meshes):
    """The cell-stage elasticity is bit for bit the one-step contraction over a broadcast view."""
    rng = np.random.default_rng(6)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        c = rng.standard_normal((mesh.num_triangles, 2, 2, 2, 2))
        cq = np.broadcast_to(c[:, None], space.wq.shape + (2, 2, 2, 2))
        g = mesh.grads
        ke = np.einsum("tq,tqijkl,tal,tbj->tbiak", space.wq, cq, g, g)
        ref = _scatter_matrix(ke.reshape(-1, 6, 6), fem.vector_dofs(mesh.triangles))
        _assert_same_csr(fem.assemble_cell_elasticity(space, c), ref)


def test_cell_stage_kernels_keep_their_rounding(pattern_meshes):
    """The cell-stage stiffness and loads are bit for bit their one-step contractions.

    These fix the rounding of the coefficients.csv noise columns: each
    reference is the expression the cell stage computed, on the same
    broadcast view of the element values over the quadrature points.
    """
    rng = np.random.default_rng(7)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        nt, wq, g = mesh.num_triangles, space.wq, mesh.grads
        k, v, G = rng.standard_normal(nt), rng.standard_normal((nt, 2)), rng.standard_normal((nt, 2, 2))
        kg = np.einsum("tq,tbi->tbi", wq * np.broadcast_to(k[:, None], wq.shape), g)
        ref = _scatter_matrix(np.einsum("tai,tbi->tab", g, kg), mesh.triangles)
        _assert_same_csr(fem.assemble_cell_grad_grad(space, k), ref)
        elem = np.einsum("tq,tqi,tai->ta", wq, np.broadcast_to(v[:, None], wq.shape + (2,)), g)
        ref = _scatter_vector(elem, mesh.triangles)
        assert fem.assemble_flux(space, v).tobytes() == ref.tobytes()
        elem = np.einsum("tq,tqij,taj->tai", wq, np.broadcast_to(G[:, None], wq.shape + (2, 2)), g)
        ref = _scatter_vector(elem, fem.vector_dofs(mesh.triangles))
        assert fem.assemble_cell_tensor_flux(space, G).tobytes() == ref.tobytes()


def test_element_gradient_keeps_its_rounding_and_layout(pattern_meshes):
    """element_gradient is bit for bit the vertex contraction, in its memory layout.

    The einsums that read the cell correctors' gradients sum in an order set
    by their operands' strides, so the layout is part of the result.
    """
    rng = np.random.default_rng(8)
    for mesh in pattern_meshes:
        for lead in ((), (2,), (2, 2, 2)):
            nodal = rng.standard_normal(lead + (mesh.num_nodes,))
            ref = np.einsum("...ta,tai->...ti", nodal[..., mesh.triangles], mesh.grads)
            got = fem.element_gradient(mesh, nodal)
            assert got.shape == ref.shape and got.strides == ref.strides
            assert got.tobytes() == ref.tobytes()


def _assert_close(A, ref):
    """Equal within 1e-14 of the reference's largest entry."""
    scale = abs(ref).max()
    assert abs(A - ref).max() <= 1e-14 * scale


def _quadrature_elasticity(space, c):
    """The quadrature-tensor elasticity kernel: c (nt, nq, 2, 2, 2, 2) contracted per point."""
    g = space.mesh.grads
    ke = np.einsum("tq,tqijkl,tal,tbj->tbiak", space.wq, c, g, g)
    return _scatter_matrix(ke.reshape(-1, 6, 6), fem.vector_dofs(space.mesh.triangles))


def test_element_integral_stiffness_matches_the_quadrature_tensor_kernel(pattern_meshes):
    rng = np.random.default_rng(31)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        g, wq = mesh.grads, space.wq
        # a scalar coefficient at the quadrature points, as the DNS provider gives it
        s = 10.0 ** rng.uniform(-2, 2, wq.shape)
        kg = np.einsum("tq,tqij,tbj->tbi", wq, s[..., None, None] * np.eye(2), g)
        ref = _scatter_matrix(np.einsum("tai,tbi->tab", g, kg), mesh.triangles)
        _assert_close(fem.assemble_grad_grad(space, np.einsum("tq,tq->t", wq, s)), ref)
        # a P1 tensor field, as the table provider gives it
        nodal = rng.standard_normal((2, 2, mesh.num_nodes))
        kq = np.moveaxis(space.at_quadrature(nodal), (-2, -1), (0, 1))
        kg = np.einsum("tq,tqij,tbj->tbi", wq, kq, g)
        ref = _scatter_matrix(np.einsum("tai,tbi->tab", g, kg), mesh.triangles)
        kbar = space.element_integrals(nodal)
        _assert_close(fem.assemble_grad_grad(space, kbar), ref)


def test_mass_matches_the_quadrature_kernel(pattern_meshes):
    rng = np.random.default_rng(32)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        c = 10.0 ** rng.uniform(-2, 2, space.wq.shape)
        elem = np.einsum("tq,qa,qb->tab", space.wq * c, space.phi, space.phi)
        _assert_close(fem.assemble_mass(space, c), _scatter_matrix(elem, mesh.triangles))


def test_element_integral_elasticity_matches_the_quadrature_tensor_kernel(pattern_meshes):
    rng = np.random.default_rng(33)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        wq = space.wq
        # isotropic: Lame parameters at the quadrature points, as the DNS provider has them
        lame, mu = 10.0 ** rng.uniform(5, 6, (2,) + wq.shape)
        ref = _quadrature_elasticity(space, isotropic_elasticity(lame, mu))
        pair = (np.einsum("tq,tq->t", wq, lame), np.einsum("tq,tq->t", wq, mu))
        _assert_close(fem.assemble_elasticity(space, pair), ref)
        # anisotropic P1 field, as the table provider gives it
        nodal = rng.standard_normal((2, 2, 2, 2, mesh.num_nodes))
        cq = np.moveaxis(space.at_quadrature(nodal), (-2, -1), (0, 1))
        cbar = space.element_integrals(nodal)
        _assert_close(fem.assemble_elasticity(space, cbar), _quadrature_elasticity(space, cq))


def test_isotropic_tensor_flux_matches_the_tensor_density(pattern_meshes):
    rng = np.random.default_rng(34)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        s = rng.standard_normal(space.wq.shape)
        ref = fem.assemble_tensor_flux(space, s[..., None, None] * np.eye(2))
        got = fem.assemble_tensor_flux(space, s)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_element_integrals_of_a_p1_field(pattern_meshes):
    rng = np.random.default_rng(35)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        nodal = rng.standard_normal((3, mesh.num_nodes))
        ref = np.einsum("tq,...tq->t...", space.wq, space.at_quadrature(nodal))
        got = space.element_integrals(nodal)
        assert got.shape == (mesh.num_triangles, 3)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _assert_canonical(A):
    """A is CSR with int32 indices, and SciPy itself finds its arrays canonical."""
    assert A.format == "csr" and A.indices.dtype == A.indptr.dtype == np.int32
    assert sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape).has_canonical_format


def _assert_same_csr(A, ref):
    """The same canonical CSR arrays, data compared bit for bit."""
    _assert_canonical(A)
    assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
    assert A.data.dtype == ref.data.dtype and A.data.tobytes() == ref.data.tobytes()


@pytest.fixture(scope="module")
def pattern_meshes(macro_mesh, disk_cell_mesh, stripe_cell_mesh):
    from homsim.dns import build_tiled_mesh
    from homsim.mesh import PhaseGeometry, build_unit_cell_mesh

    none = build_unit_cell_mesh(PhaseGeometry("none"), 0.15)
    return [macro_mesh, disk_cell_mesh, stripe_cell_mesh, none,
            build_tiled_mesh(disk_cell_mesh, 1.0 / 3.0)]


def test_pattern_assembly_is_bit_for_bit_scipys_coo_path(pattern_meshes):
    """Scatter by the fixed plan gives exactly SciPy's COO -> CSR sum, both operator kinds.

    The plan takes the blocks element-last, (k, k, nt); SciPy's path takes
    the same blocks element-first.
    """
    rng = np.random.default_rng(21)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        for pattern, dofs in ((space.scalar_pattern, mesh.triangles),
                              (space.vector_pattern, fem.vector_dofs(mesh.triangles))):
            shape = (dofs.shape[1],) * 2 + (len(dofs),)
            elem = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4, 4, shape)
            _assert_same_csr(pattern.assemble(elem), _scatter_matrix(np.moveaxis(elem, -1, 0), dofs))


def test_kernels_return_canonical_csr_on_the_shared_pattern(macro_mesh, macro_space):
    rng = np.random.default_rng(22)
    nt = macro_mesh.num_triangles
    scalar = [fem.assemble_grad_grad(macro_space, rng.random((nt, 2, 2))),
              fem.assemble_grad_grad(macro_space, rng.random(nt)),
              fem.assemble_cell_grad_grad(macro_space, rng.random(nt)),
              fem.assemble_mass(macro_space, rng.random(macro_space.wq.shape))]
    vector = [fem.assemble_elasticity(macro_space, rng.random((nt, 2, 2, 2, 2))),
              fem.assemble_elasticity(macro_space, tuple(rng.random((2, nt)))),
              fem.assemble_cell_elasticity(macro_space, rng.random((nt, 2, 2, 2, 2)))]
    for mats, pattern in ((scalar, macro_space.scalar_pattern), (vector, macro_space.vector_pattern)):
        for A in mats:
            _assert_canonical(A)
            assert np.shares_memory(A.indices, pattern.indices)
            assert np.shares_memory(A.indptr, pattern.indptr)
    # the shared pattern cannot be restructured in place
    with pytest.raises(ValueError):
        scalar[0].indices[0] = 1


def test_vector_mass_slots_add_the_interleaved_mass(macro_space):
    rng = np.random.default_rng(23)
    M = fem.assemble_mass(macro_space, rng.random(macro_space.wq.shape))
    K = fem.assemble_elasticity(macro_space, rng.random((macro_space.mesh.num_triangles, 2, 2, 2, 2)))
    ref = sp.kron(M, sp.eye(2), format="csr") + K
    K.data[macro_space.vector_mass_slots] += M.data[:, None]
    _assert_same_csr(K, ref)


def _dirichlet_reference(A, b, dofs, values):
    """Symmetric elimination by sparse products: D A D + I - D, D the kept dofs."""
    n = A.shape[0]
    x = np.zeros(n)
    x[dofs] = values
    b = b - A @ x
    keep = np.ones(n)
    keep[dofs] = 0.0
    D = sp.diags(keep)
    A = (D @ A @ D + sp.diags(1.0 - keep)).tocsr()
    b[dofs] = values
    return A, b


def test_apply_dirichlet_is_bit_for_bit_the_product_form(macro_mesh, macro_space, disk_cell_mesh):
    from homsim.mesh import periodic_pairs

    rng = np.random.default_rng(24)
    cases = []
    # cell operators with zero boundary values
    cell = fem.FemSpace(disk_cell_mesh)
    bn = disk_cell_mesh.boundary_nodes
    K = fem.assemble_cell_grad_grad(cell, rng.random(disk_cell_mesh.num_triangles))
    C = fem.assemble_cell_elasticity(cell, rng.random((disk_cell_mesh.num_triangles, 2, 2, 2, 2)))
    cases += [(K, bn, 0.0), (C, np.concatenate([2 * bn, 2 * bn + 1]), 0.0)]
    # anchored periodic operators R^T K R
    ma, sl = periodic_pairs(disk_cell_mesh)
    for op in (K, C):
        pm = fem.PeriodicMap(disk_cell_mesh, ma, sl, op)
        cases.append(((pm.R.T @ op @ pm.R).tocsr(), pm.anchors, 0.0))
    # macro operators with nonzero boundary values
    bn = macro_mesh.boundary_nodes
    nt = macro_mesh.num_triangles
    A = fem.assemble_grad_grad(macro_space, rng.random((nt, 2, 2)))
    V = fem.assemble_elasticity(macro_space, rng.random((nt, 2, 2, 2, 2)))
    cases += [(A, bn, rng.standard_normal(len(bn))),
              (V, np.concatenate([2 * bn, 2 * bn + 1]), rng.standard_normal(2 * len(bn)))]
    # a matrix that stores exact zeros, of both signs
    Z = A.copy()
    Z.data[::5] = 0.0
    Z.data[1::7] = -0.0
    cases.append((Z, bn, rng.standard_normal(len(bn))))
    for A, dofs, values in cases:
        b = rng.standard_normal(A.shape[0])
        got, got_b = fem.apply_dirichlet(A, b, dofs, values)
        ref, ref_b = _dirichlet_reference(A, b, dofs, values)
        _assert_same_csr(got, ref)
        assert got_b.tobytes() == ref_b.tobytes()
    # the unit diagonal goes where A stores its diagonal: none stored, no elimination
    hollow = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        fem.apply_dirichlet(hollow, np.ones(2), [0], 0.0)


def test_apply_dirichlet_preserves_solution(macro_mesh, macro_space):
    A = fem.assemble_grad_grad(macro_space, macro_mesh.areas)
    bn = macro_mesh.boundary_nodes
    g = macro_mesh.nodes[:, 0] + 2.0  # harmonic, linear
    b = np.zeros(macro_mesh.num_nodes)
    A2, b2 = fem.apply_dirichlet(A, b, bn, g[bn])
    u = fem.solve_spd(A2, b2)
    assert np.allclose(u, g, atol=1e-9)


def test_spd_solver_matches_direct(macro_mesh, macro_space):
    A = fem.assemble_grad_grad(macro_space, macro_mesh.areas)
    M = fem.assemble_mass(macro_space, np.ones(macro_space.wq.shape))
    A = (A + M).tocsr()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(macro_mesh.num_nodes)
    x1 = fem.solve_spd(A, b)
    x2 = fem.SpdSolver(A).solve(b)
    assert np.allclose(x1, x2, atol=1e-8 * np.abs(x2).max())


def _cg_system(macro_mesh, macro_space, k, rng):
    """A Dirichlet-reduced SPD system with conductivity k and a random right-hand side."""
    A = (fem.assemble_grad_grad(macro_space, k * macro_mesh.areas)
         + fem.assemble_mass(macro_space, np.full(macro_space.wq.shape, 50.0))).tocsr()
    return fem.apply_dirichlet(A, rng.standard_normal(A.shape[0]), macro_mesh.boundary_nodes, 0.0)


def test_spd_solver_reuses_its_lu_on_a_nearby_matrix(macro_mesh, macro_space):
    """CG preconditioned by one LU solves a nearby matrix and gives up on a far one."""
    rng = np.random.default_rng(3)

    def reduced_system(k):  # k: one conductivity, or one per element
        return _cg_system(macro_mesh, macro_space, k, rng)

    nt = macro_mesh.num_triangles
    solver = fem.SpdSolver(reduced_system(1.0)[0])
    near, b = reduced_system(1.0 + 0.01 * rng.random(nt))
    x, iterations = solver.solve_near(near, b, macro.REUSE_MAX_ITER, None)
    assert x is not None and 0 < iterations <= macro.REUSE_MAX_ITER
    assert np.linalg.norm(near @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert solver.residual <= 1e-10
    assert np.allclose(x, fem.SpdSolver(near).solve(b), rtol=0.0, atol=1e-9 * np.abs(x).max())
    far, b = reduced_system(10.0 ** rng.uniform(-2.0, 2.0, nt))
    x, iterations = solver.solve_near(far, b, macro.REUSE_MAX_ITER, None)
    assert x is None and iterations == macro.REUSE_MAX_ITER
    assert solver.residual > 1e-10


def _scipy_cg(A, b, precondition, max_iter, x0=None):
    """(x, iterations, info) of scipy's cg, as solve_spd and solve_near called it."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    op = spla.LinearOperator(A.shape, matvec=A.__matmul__, dtype=float)
    M = spla.LinearOperator(A.shape, matvec=precondition, dtype=float)
    x, info = spla.cg(op, b, x0=x0, rtol=fem.CG_RTOL, atol=0.0, maxiter=max_iter, M=M,
                      callback=count)
    return x, iterations, info


def test_pcg_is_scipys_cg_bit_for_bit(macro_mesh, macro_space):
    """Same x, same iteration count: Jacobi and LU preconditioners, from zero and from x0."""
    rng = np.random.default_rng(41)
    nt = macro_mesh.num_triangles
    A, b = _cg_system(macro_mesh, macro_space, 1.0 + 0.01 * rng.random(nt), rng)
    dinv = 1.0 / A.diagonal()
    lu = fem.SpdSolver(_cg_system(macro_mesh, macro_space, 1.0, rng)[0])._lu
    x_near = fem.SpdSolver(A).solve(b) * (1.0 + 1e-3 * rng.standard_normal(len(b)))
    for precondition, max_iter in ((lambda r: dinv * r, fem.CG_MAX_ITER), (lu.solve, 50)):
        for x0 in (None, np.zeros_like(b), x_near):
            x, iterations = fem.pcg(A, b, precondition, max_iter, x0)
            ref, ref_iterations, info = _scipy_cg(A, b, precondition, max_iter, x0)
            assert info == 0 and 0 < iterations == ref_iterations < max_iter
            assert x.tobytes() == ref.tobytes()
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    # the start is not modified, and a start near x takes fewer iterations
    start = x_near.copy()
    _, warm = fem.pcg(A, b, lu.solve, 50, start)
    assert np.array_equal(start, x_near) and warm < fem.pcg(A, b, lu.solve, 50)[1]


def test_pcg_reports_non_convergence_at_max_iter(macro_mesh, macro_space):
    rng = np.random.default_rng(42)
    A, b = _cg_system(macro_mesh, macro_space, 10.0 ** rng.uniform(-2.0, 2.0, macro_mesh.num_triangles), rng)
    dinv = 1.0 / A.diagonal()
    x, iterations = fem.pcg(A, b, lambda r: dinv * r, 5)
    ref, ref_iterations, info = _scipy_cg(A, b, lambda r: dinv * r, 5)
    assert iterations == ref_iterations == info == 5
    assert x.tobytes() == ref.tobytes()
    assert np.linalg.norm(A @ x - b) > 1e-10 * np.linalg.norm(b)


def test_dirichlet_plan_equals_apply_dirichlet(pattern_meshes):
    """The planned gather gives apply_dirichlet's b, and its matrix once the exact zeros
    apply_dirichlet drops are dropped, on the scalar and the vector pattern."""
    rng = np.random.default_rng(43)
    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        nt, bn = mesh.num_triangles, mesh.boundary_nodes
        cases = [(space.scalar_pattern, fem.assemble_grad_grad(space, rng.random((nt, 2, 2))), bn),
                 (space.vector_pattern, fem.assemble_elasticity(space, rng.random((nt, 2, 2, 2, 2))),
                  np.concatenate([2 * bn, 2 * bn + 1]))]
        for pattern, A, dofs in cases:
            A.data[::5] = 0.0  # exact zeros of both signs
            A.data[1::7] = -0.0
            plan = fem.DirichletPlan(pattern, dofs)
            b, values = rng.standard_normal(A.shape[0]), rng.standard_normal(len(dofs))
            got, got_b = plan.apply(A, b, values)
            ref, ref_b = fem.apply_dirichlet(A, b, dofs, values)
            assert got_b.tobytes() == ref_b.tobytes()
            _assert_canonical(got)
            assert np.shares_memory(got.indices, plan.indices)
            assert got.nnz > ref.nnz
            got = got.copy()
            got.eliminate_zeros()
            _assert_same_csr(got, ref)


def test_periodic_map_constant_nullspace(disk_cell_mesh):
    from homsim.mesh import periodic_pairs

    space = fem.FemSpace(disk_cell_mesh)
    A = fem.assemble_grad_grad(space, disk_cell_mesh.areas).tocsr()
    masters, slaves = periodic_pairs(disk_cell_mesh)
    pm = fem.PeriodicMap(disk_cell_mesh, masters, slaves, A)
    b = np.zeros(disk_cell_mesh.num_nodes)
    x = pm.solve(b)
    assert np.allclose(x, 0.0, atol=1e-10)
    # periodic solution of -div grad u = sin(2 pi x): values match across the cell
    f = np.sin(2 * np.pi * space.xq[..., 0])
    u = pm.solve(fem.assemble_source(space, f))
    um = u[masters] if len(masters) else u
    assert np.allclose(u[slaves], um, atol=1e-10)


def test_load_vectors_equal_the_add_at_scatter(pattern_meshes):
    """Each load kernel sums exactly as an np.add.at scatter of its element entries."""
    rng = np.random.default_rng(11)

    def add_at(n, idx, elem):
        out = np.zeros(n)
        np.add.at(out, idx, elem.ravel())
        return out

    for mesh in pattern_meshes:
        space = fem.FemSpace(mesh)
        wq, phi, g = space.wq, space.phi, mesh.grads
        nt = mesh.num_triangles
        f = rng.standard_normal(wq.shape)
        F = rng.standard_normal(wq.shape + (2,))
        T = rng.standard_normal(wq.shape + (2, 2))
        s = rng.standard_normal(wq.shape)
        v, G = rng.standard_normal((nt, 2)), rng.standard_normal((nt, 2, 2))
        scalar = mesh.triangles.ravel()
        vector = fem.vector_dofs(mesh.triangles).ravel()
        nn = mesh.num_nodes
        cases = [
            (fem.assemble_source(space, f),
             add_at(nn, scalar, np.einsum("tq,qa->ta", wq * f, phi))),
            (fem.assemble_vector_source(space, F),
             add_at(2 * nn, vector, np.einsum("tq,tqi,qa->tai", wq, F, phi))),
            (fem.assemble_tensor_flux(space, T),
             add_at(2 * nn, vector, np.einsum("tij,taj->tai",
                                              np.einsum("tq,tqij->tij", wq, T), g))),
            (fem.assemble_tensor_flux(space, s),
             add_at(2 * nn, vector, np.einsum("t,tai->tai", np.einsum("tq,tq->t", wq, s), g))),
            (fem.assemble_flux(space, v),
             add_at(nn, scalar, np.einsum("tq,tqi,tai->ta", wq,
                                          np.broadcast_to(v[:, None], wq.shape + (2,)), g))),
            (fem.assemble_cell_tensor_flux(space, G),
             add_at(2 * nn, vector, np.einsum("tq,tqij,taj->tai", wq,
                                              np.broadcast_to(G[:, None], wq.shape + (2, 2)), g))),
        ]
        for got, ref in cases:
            assert np.array_equal(got, ref)


def test_element_constant_load_operators_match_the_kernels(macro_mesh, macro_space):
    """source_load and flux_load applied to element-constant data give the load
    vector of each kernel, componentwise for the vector forms, one column per datum.
    The quadrature-point kernels get each datum repeated over the points."""
    rng = np.random.default_rng(12)
    nn, nt = macro_mesh.num_nodes, macro_mesh.num_triangles
    S, G = rng.standard_normal((3, nt)), rng.standard_normal((3, nt, 2))
    f, T = rng.standard_normal((3, nt, 2)), rng.standard_normal((3, nt, 2, 2))
    def per_point(kernel):
        return lambda space, d: kernel(space, np.broadcast_to(d[:, None], space.wq.shape + d.shape[1:]))

    cases = [(macro_space.source_load @ S.T, per_point(fem.assemble_source), S),
             (macro_space.flux_load @ G.reshape(3, -1).T, fem.assemble_flux, G)]
    vector = np.empty((nn, 2, 2, 3))
    for i in range(2):
        vector[:, i, 0] = macro_space.source_load @ f[:, :, i].T
        vector[:, i, 1] = macro_space.flux_load @ T[:, :, i].reshape(3, -1).T
    cases += [(vector[:, :, 0].reshape(2 * nn, 3), per_point(fem.assemble_vector_source), f),
              (vector[:, :, 1].reshape(2 * nn, 3), fem.assemble_cell_tensor_flux, T)]
    for block, kernel, data in cases:
        for j in range(3):
            ref = kernel(macro_space, data[j])
            assert np.abs(block[:, j] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_spd_solver_solves_a_block_and_zero_columns_give_zeros(macro_mesh, macro_space):
    A = (fem.assemble_grad_grad(macro_space, macro_mesh.areas)
         + fem.assemble_mass(macro_space, np.ones(macro_space.wq.shape))).tocsr()
    rng = np.random.default_rng(4)
    B = rng.standard_normal((macro_mesh.num_nodes, 4))
    B[:, 1] = 0.0
    solver = fem.SpdSolver(A)
    X = solver.solve(B)
    assert X.shape == B.shape and np.all(X[:, 1] == 0.0)
    worst = 0.0
    for j in (0, 2, 3):
        x = fem.SpdSolver(A).solve(B[:, j])
        assert np.abs(X[:, j] - x).max() <= 1e-12 * np.abs(x).max()
        worst = max(worst, np.linalg.norm(A @ X[:, j] - B[:, j]) / np.linalg.norm(B[:, j]))
    assert solver.residual == pytest.approx(worst, rel=1e-6) and worst <= 1e-10
    assert np.all(solver.solve(np.zeros((macro_mesh.num_nodes, 2))) == 0.0)
    assert solver.residual == 0.0


def test_spd_solver_never_returns_an_unpivoted_wrong_answer():
    """Symmetric mode takes the diagonal as pivot; on an indefinite matrix it must fail loudly.

    Here the zero leading diagonal makes SuperLU take the tiny (1, 1) entry
    as a pivot, and the factor loses every digit; the residual check raises.
    """
    A = sp.csc_matrix(np.array([[0.0, 1.0, 1.0], [1.0, 1e-20, 0.0], [1.0, 0.0, 1.0]]))
    with pytest.raises((fem.SolverError, RuntimeError)):
        fem.SpdSolver(A).solve(np.ones(3))
    # and on random indefinite matrices with a zero leading diagonal: either
    # a loud failure or an x that meets the residual contract
    rng = np.random.default_rng(7)
    for _ in range(20):
        B = sp.random(8, 8, density=0.3, random_state=rng).toarray()
        B = B + B.T + np.diag(rng.choice([-1e-14, 1.0, -1.0], 8))
        B[0, 0] = 0.0
        b = rng.standard_normal(8)
        try:
            x = fem.SpdSolver(sp.csc_matrix(B)).solve(b)
        except RuntimeError:
            continue
        assert np.linalg.norm(B @ x - b) <= 1e-10 * np.linalg.norm(b)
