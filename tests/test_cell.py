"""Cell (corrector) problems: degeneracy, symmetry and bookkeeping."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homsim import cell, fem, homog
from homsim.mesh import PhaseGeometry, build_unit_cell_mesh, periodic_pairs


def _h1(mesh, nodal):
    g = fem.element_gradient(mesh, nodal)
    quad = np.sum(np.asarray(nodal)[..., mesh.triangles].mean(-1) ** 2 * mesh.areas)
    return float(np.sqrt(quad + np.sum(g**2 * mesh.areas[:, None])))


def test_first_order_shapes(small_table, disk_cell_mesh):
    nn = disk_cell_mesh.num_nodes
    f = small_table.first[0]
    assert f.M.shape == (2, nn)
    assert f.H.shape == (2, nn)
    assert f.N.shape == (2, 2, 2, nn)
    assert f.P.shape == (2, nn)


def test_second_order_families_complete(small_table):
    fields = small_table.second[0].fields
    assert set(fields) == set(cell.SECOND_ORDER_FAMILIES)


def test_degenerate_first_order_vanishes(uniform_table, disk_cell_mesh):
    f = uniform_table.first[0]
    for name in ("M", "H", "N", "P"):
        assert _h1(disk_cell_mesh, getattr(f, name)) < 1e-10


def test_degenerate_second_order_vanishes(uniform_table, disk_cell_mesh):
    s = uniform_table.second[0]
    for name, arr in s.fields.items():
        assert _h1(disk_cell_mesh, arr) < 1e-10, name


def test_correctors_vanish_on_dirichlet_boundary(small_table, disk_cell_mesh):
    bn = disk_cell_mesh.boundary_nodes
    f = small_table.first[0]
    assert np.abs(f.M[:, bn]).max() < 1e-14
    assert np.abs(f.N[..., bn]).max() < 1e-14
    for arr in small_table.second[0].fields.values():
        assert np.abs(arr[..., bn]).max() < 1e-14


def test_stripe_corrector_invariant_along_stripe(example_law):
    """On a laminate, the y1-direction corrector cannot depend on y2."""
    mesh = build_unit_cell_mesh(PhaseGeometry("stripe", band=(0.25, 0.75)), 0.15)
    ops = cell.CellOperators(fem.FemSpace(mesh), example_law, 300.0, bc="periodic")
    first = cell.solve_first_order(ops)
    g = fem.element_gradient(mesh, first.M[0])
    assert np.abs(g[:, 1]).max() < 1e-10 * max(1.0, np.abs(g).max())


def test_solve_counter_ticks(disk_cell_mesh, example_law):
    before = cell.SOLVES.count
    cell.solve_first_order(cell.CellOperators(fem.FemSpace(disk_cell_mesh), example_law, 300.0))
    assert cell.SOLVES.count > before


def test_dT_of_first_order_centered(disk_cell_mesh, example_law):
    temps = [280.0, 340.0, 400.0]
    space = fem.FemSpace(disk_cell_mesh)
    entries = [cell.solve_first_order(cell.CellOperators(space, example_law, T)) for T in temps]
    d = cell.dT_of_first_order(entries, 340.0)
    expect = (entries[2].M - entries[0].M) / 120.0
    assert np.allclose(d.M, expect, atol=1e-14)


def test_mean_value_zero_with_periodic_bc(disk_cell_mesh, example_law):
    ops = cell.CellOperators(fem.FemSpace(disk_cell_mesh), example_law, 300.0, bc="periodic")
    first = cell.solve_first_order(ops)
    # the anchored periodic solve pins the origin corner
    origin = int(np.argmin(np.sum(disk_cell_mesh.nodes**2, axis=1)))
    assert abs(first.M[0, origin]) < 1e-12


def test_invalid_bc_rejected(disk_cell_mesh, example_law):
    with pytest.raises((cell.CellError, KeyError, ValueError)):
        cell.CellOperators(fem.FemSpace(disk_cell_mesh), example_law, 300.0, bc="robin")


def _per_solve_reference(pm, K, b):
    """Reference periodic solve that builds everything for one right-hand side:
    R^T K R, anchored by apply_dirichlet, then Jacobi-CG with scipy given the
    matrices themselves."""
    Ar = (pm.R.T @ K @ pm.R).tocsr()
    Ar, br = fem.apply_dirichlet(Ar, pm.R.T @ b, pm.anchors, 0.0)
    xr, info = spla.cg(Ar, br, rtol=1e-12, atol=0.0, maxiter=20000,
                       M=sp.diags(1.0 / Ar.diagonal()))
    assert info == 0
    return pm.R @ xr


def test_periodic_solve_constrained_once_matches_per_solve_path(disk_cell_mesh, example_law):
    mesh = disk_cell_mesh
    space = fem.FemSpace(mesh)
    masters, slaves = periodic_pairs(mesh)
    k_e = cell.phase_scalar(mesh, example_law, "k", 300.0)
    c_e = cell.phase_elasticity(mesh, example_law, 300.0)
    rng = np.random.default_rng(5)
    G = np.zeros((mesh.num_triangles, 2))
    G[:, 0] = -k_e
    scalar = (fem.assemble_grad_grad(space, k_e),
              [fem.assemble_flux(space, G), rng.standard_normal(mesh.num_nodes)])
    vector = (fem.assemble_elasticity(space, c_e),
              [fem.assemble_tensor_flux(space, -c_e[..., 0, 1]),
               rng.standard_normal(2 * mesh.num_nodes)])
    for K, rhs in (scalar, vector):
        pm = fem.PeriodicMap(mesh, masters, slaves, K)
        for b in rhs:
            assert np.array_equal(pm.solve(b), _per_solve_reference(pm, K, b))


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_build_table_assembles_each_operator_once_per_temperature(
        monkeypatch, disk_cell_mesh, example_law, bc):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("assemble_grad_grad", "assemble_elasticity"):
        monkeypatch.setattr(fem, name, counted(name, getattr(fem, name)))
    built = []

    class Counted(cell.CellOperators):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.T0)

    monkeypatch.setattr(cell, "CellOperators", Counted)
    table = homog.build_table(disk_cell_mesh, example_law, 280.0, 400.0, 3,
                              Ttilde=300.0, bc=bc)
    assert built == [float(T) for T in table.temps]
    # heat and electric conduction, then elasticity, at each temperature
    assert calls.count("assemble_grad_grad") == 2 * 3
    assert calls.count("assemble_elasticity") == 3
    assert len(table.second) == 3


def test_build_table_keeps_at_most_two_operator_sets(monkeypatch, disk_cell_mesh, example_law):
    made, alive = [], []

    class Tracked(cell.CellOperators):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))

    monkeypatch.setattr(cell, "CellOperators", Tracked)
    homog.build_table(disk_cell_mesh, example_law, 280.0, 400.0, 4, Ttilde=300.0,
                      bc="periodic")
    assert len(made) == 4 and max(alive) == 2
    gc.collect()
    assert all(ref() is None for ref in made)
