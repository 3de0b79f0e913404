"""P1 assembly routines, quadrature and linear solvers."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homsim import fem
from homsim.mesh import Mesh, build_macro_mesh


@pytest.fixture(scope="module")
def unit_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


@pytest.fixture(scope="module")
def macro_space(macro_mesh):
    return fem.FemSpace(macro_mesh)


def test_reference_stiffness_matrix(unit_triangle):
    A = fem.assemble_grad_grad(fem.FemSpace(unit_triangle), 1.0).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(A, expected)


def test_mass_matrix_sums_to_area(macro_space):
    M = fem.assemble_mass(macro_space, 1.0)
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
    # order-2 rule integrates x^2 over the unit square exactly
    xq, wq, _ = fem.quad_points(macro_mesh, order=2)
    val = np.sum(wq * xq[..., 0] ** 2)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
    xq4, wq4, _ = fem.quad_points(macro_mesh, order=4)
    val4 = np.sum(wq4 * xq4[..., 0] ** 4)
    assert val4 == pytest.approx(1.0 / 5.0, abs=1e-12)


def _poisson_error(n):
    """Dirichlet Poisson problem with u = sin(pi x) sin(pi y)."""
    mesh = build_macro_mesh(1.0 / n)
    x, y = mesh.nodes.T
    exact = np.sin(np.pi * x) * np.sin(np.pi * y)
    space = fem.FemSpace(mesh)
    xq = space.xq
    f = 2 * np.pi**2 * np.sin(np.pi * xq[..., 0]) * np.sin(np.pi * xq[..., 1])
    A = fem.assemble_grad_grad(space, 1.0)
    b = fem.assemble_source(space, f)
    bn = mesh.boundary_nodes
    A, b = fem.apply_dirichlet(A, b, bn, np.zeros(len(bn)))
    u = fem.solve_spd(A, b)
    M = fem.assemble_mass(space, 1.0)
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
    K = fem.assemble_elasticity(macro_space, c).tocsr()
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
    K = fem.assemble_elasticity(macro_space, c)
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
    """Reference assembly of (nt, n, n) element blocks over (nt, n) dofs."""
    rows = np.broadcast_to(dofs[:, :, None], elem.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], elem.shape).ravel()
    n = dofs.max() + 1
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n, n)).tocsr().toarray()


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
    ref = _scatter_matrix(ke.reshape(-1, 6, 6), fem.vector_dofs(macro_mesh.triangles))
    K = fem.assemble_elasticity(macro_space, c).toarray()
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
    ref = _scatter_matrix(np.einsum("tai,tbi->tab", g, kg), macro_mesh.triangles)
    assert _rel(fem.assemble_grad_grad(macro_space, k).toarray(), ref) <= 1e-13


def test_element_constant_elasticity_keeps_its_rounding(disk_cell_mesh):
    """The cell operators' element-constant path is bit-for-bit the one-step contraction."""
    space = fem.FemSpace(disk_cell_mesh)
    rng = np.random.default_rng(6)
    c = rng.standard_normal((disk_cell_mesh.num_triangles, 2, 2, 2, 2))
    cq = np.broadcast_to(c[:, None], space.wq.shape + (2, 2, 2, 2))
    g = disk_cell_mesh.grads
    ke = np.einsum("tq,tqijkl,tal,tbj->tbiak", space.wq, cq, g, g)
    ref = _scatter_matrix(ke.reshape(-1, 6, 6), fem.vector_dofs(disk_cell_mesh.triangles))
    assert np.array_equal(fem.assemble_elasticity(space, c).toarray(), ref)


def test_apply_dirichlet_preserves_solution(macro_mesh, macro_space):
    A = fem.assemble_grad_grad(macro_space, 1.0)
    bn = macro_mesh.boundary_nodes
    g = macro_mesh.nodes[:, 0] + 2.0  # harmonic, linear
    b = np.zeros(macro_mesh.num_nodes)
    A2, b2 = fem.apply_dirichlet(A, b, bn, g[bn])
    u = fem.solve_spd(A2, b2)
    assert np.allclose(u, g, atol=1e-9)


def test_spd_solver_matches_direct(macro_mesh, macro_space):
    A = fem.assemble_grad_grad(macro_space, 1.0)
    M = fem.assemble_mass(macro_space, 1.0)
    A = (A + M).tocsr()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(macro_mesh.num_nodes)
    x1 = fem.solve_spd(A, b)
    x2 = fem.SpdSolver(A).solve(b)
    assert np.allclose(x1, x2, atol=1e-8 * np.abs(x2).max())


def test_periodic_map_constant_nullspace(disk_cell_mesh):
    from homsim.mesh import periodic_pairs

    space = fem.FemSpace(disk_cell_mesh)
    A = fem.assemble_grad_grad(space, 1.0).tocsr()
    masters, slaves = periodic_pairs(disk_cell_mesh)
    pm = fem.PeriodicMap(disk_cell_mesh, masters, slaves)
    b = np.zeros(disk_cell_mesh.num_nodes)
    x = pm.solve(A, b)
    assert np.allclose(x, 0.0, atol=1e-10)
    # periodic solution of -div grad u = sin(2 pi x): values match across the cell
    f = np.sin(2 * np.pi * space.xq[..., 0])
    u = pm.solve(A, fem.assemble_source(space, f))
    um = u[masters] if len(masters) else u
    assert np.allclose(u[slaves], um, atol=1e-10)
