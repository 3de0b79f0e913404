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


def _periodic_second_order_inputs(mesh, law):
    """CellOperators at 300 K and the arguments solve_second_order takes there."""
    space = fem.FemSpace(mesh)
    temps = [300.0, 320.0]
    ops = [cell.CellOperators(space, law, T, bc="periodic") for T in temps]
    first = [cell.solve_first_order(o) for o in ops]
    coeffs = [homog.compute_coefficients(mesh, law, T, f) for T, f in zip(temps, first)]
    table = homog.TemperatureTable(temps=np.array(temps), first=first, second=[],
                                   coeffs=coeffs, Ttilde=300.0, bc="periodic")
    return ops[0], (first[0], coeffs[0], 300.0), {
        "first_dT": cell.dT_of_first_order(first, 300.0), "homog_dT": table.coeff_dT(0)}


def test_factored_second_order_matches_jacobi_cg(monkeypatch, disk_cell_mesh, example_law):
    ops, args, kwargs = _periodic_second_order_inputs(disk_cell_mesh, example_law)
    columns, residuals = [], []
    lu_solve = fem.SpdSolver.solve

    def recorded(self, b):
        x = lu_solve(self, b)
        columns.append(b.shape[1])
        residuals.append(self.residual)
        return x

    monkeypatch.setattr(fem.SpdSolver, "solve", recorded)
    factored = cell.solve_second_order(ops, *args, **kwargs)
    assert sum(columns) == 65 and max(residuals) <= 1e-10
    # the same right-hand sides through the Jacobi-CG path, column by column
    monkeypatch.setattr(ops, "solve", lambda which, B: np.column_stack(
        [ops._maps[which].solve(b) for b in B.T]))
    cg = cell.solve_second_order(ops, *args, **kwargs)
    assert sum(columns) == 65
    for name in cell.SECOND_ORDER_FAMILIES:
        a, b = factored[name], cg[name]
        assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max(), name


def _per_column_family(ops, which, S=None, G=None):
    """cell._solve_family one right-hand side at a time: each load assembled
    by the fem kernels and solved by its own ops.solve."""
    vector = which == "c"
    source = fem.assemble_vector_source if vector else fem.assemble_source
    flux = fem.assemble_tensor_flux if vector else fem.assemble_flux
    fam = S.shape[:S.ndim - 1 - vector] if S is not None else G.shape[:G.ndim - 2 - vector]
    nn = ops.mesh.num_nodes
    out = []
    for idx in np.ndindex(*fam):
        b = np.zeros((1 + vector) * nn)
        if S is not None:
            b -= source(ops.space, S[idx])
        if G is not None:
            b += flux(ops.space, G[idx])
        x = ops.solve(which, b)
        out.append(x.reshape(nn, 2).T if vector else x)
    return np.reshape(out, fam + out[0].shape)


def _second_order_at(mesh, law, temps, i, bc):
    """solve_second_order at temps[i] with centred differences, as build_table runs it."""
    space = fem.FemSpace(mesh)
    ops = [cell.CellOperators(space, law, T, bc) for T in temps]
    first = [cell.solve_first_order(o) for o in ops]
    coeffs = [homog.compute_coefficients(mesh, law, T, f) for T, f in zip(temps, first)]
    table = homog.TemperatureTable(temps=np.array(temps), first=first, second=[],
                                   coeffs=coeffs, Ttilde=300.0, bc=bc)
    return lambda: cell.solve_second_order(
        ops[i], first[i], coeffs[i], 300.0,
        first_dT=cell.dT_of_first_order(first, temps[i]), homog_dT=table.coeff_dT(i))


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
@pytest.mark.parametrize("i", [0, 1])
def test_batched_second_order_matches_per_column_reference(
        monkeypatch, disk_cell_mesh, example_law, bc, i):
    solve = _second_order_at(disk_cell_mesh, example_law, [280.0, 340.0, 400.0], i, bc)
    worst = []
    lu_solve = fem.SpdSolver.solve

    def checked(self, b):
        x = lu_solve(self, b)
        bn = np.linalg.norm(b, axis=0)
        live = bn > 0.0
        worst.append(np.max(np.linalg.norm(self.A @ x - b, axis=0)[live] / bn[live]))
        return x

    monkeypatch.setattr(fem.SpdSolver, "solve", checked)
    batched = solve()
    assert len(worst) == 16 and max(worst) <= 1e-10  # every column of every block
    monkeypatch.setattr(cell, "_solve_family", _per_column_family)
    reference = solve()
    assert len(worst) == 16 + 65
    for name in cell.SECOND_ORDER_FAMILIES:
        a, b = batched[name], reference[name]
        assert a.shape == b.shape and a.flags.c_contiguous, name
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_second_order_solves_one_block_per_family(monkeypatch, disk_cell_mesh, example_law, bc):
    calls = {"lu": 0, "second": 0}
    lu_solve = fem.SpdSolver.solve
    second_order = cell.solve_second_order

    def counted_lu(self, b):
        calls["lu"] += 1
        return lu_solve(self, b)

    def counted_second(*args, **kwargs):
        before = calls["lu"]
        out = second_order(*args, **kwargs)
        calls["second"] += calls["lu"] - before
        return out

    monkeypatch.setattr(fem.SpdSolver, "solve", counted_lu)
    monkeypatch.setattr(cell, "solve_second_order", counted_second)
    before = cell.SOLVES.count
    homog.build_table(disk_cell_mesh, example_law, 280.0, 400.0, 3, Ttilde=300.0, bc=bc)
    assert calls["second"] <= 16 * 3
    assert cell.SOLVES.count - before == 74 * 3


def test_periodic_first_order_stays_on_jacobi_cg(disk_cell_mesh, example_law):
    mesh = disk_cell_mesh
    nn, nt = mesh.num_nodes, mesh.num_triangles
    space = fem.FemSpace(mesh)
    ops = cell.CellOperators(space, example_law, 300.0, bc="periodic")
    first = cell.solve_first_order(ops)
    assert "_solvers" not in vars(ops)  # the first order factors nothing
    masters, slaves = periodic_pairs(mesh)
    for coef, field in ((ops.k_e, first.M), (ops.lam_e, first.H)):
        pm = fem.PeriodicMap(mesh, masters, slaves, fem.assemble_grad_grad(space, coef))
        for a in range(2):
            G = np.zeros((nt, 2))
            G[:, a] = -coef
            assert np.array_equal(field[a], pm.solve(fem.assemble_flux(space, G)))
    pm = fem.PeriodicMap(mesh, masters, slaves, fem.assemble_elasticity(space, ops.c_e))
    for m in range(2):
        for sup in range(2):
            x = pm.solve(fem.assemble_tensor_flux(space, -ops.c_e[:, :, :, m, sup]))
            assert np.array_equal(first.N[m, sup], x.reshape(nn, 2).T)
    beta_e = cell.phase_scalar(mesh, example_law, "beta", 300.0)
    x = pm.solve(fem.assemble_tensor_flux(space, beta_e[:, None, None] * np.eye(2)))
    assert np.array_equal(first.P, x.reshape(nn, 2).T)


def test_periodic_table_factors_each_operator_once(monkeypatch, disk_cell_mesh, example_law):
    calls = {"splu": 0, "solve_spd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fem.spla, "splu", counted("splu", fem.spla.splu))
    monkeypatch.setattr(fem, "solve_spd", counted("solve_spd", fem.solve_spd))
    before = cell.SOLVES.count
    homog.build_table(disk_cell_mesh, example_law, 280.0, 400.0, 3, Ttilde=300.0,
                      bc="periodic")
    # per temperature: one LU per operator, Jacobi-CG for the 9 first-order
    # correctors only, and 9 + 65 cell solves in all
    assert calls == {"splu": 3 * 3, "solve_spd": 9 * 3}
    assert cell.SOLVES.count - before == 74 * 3
