"""Cell (corrector) problems: degeneracy, symmetry and bookkeeping."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homsim import cell, fem, homog
from homsim.materials import MaterialError, MaterialLaw, elasticity_tensor
from homsim.mesh import INCLUSION, MATRIX, PhaseGeometry, build_unit_cell_mesh, periodic_pairs

from conftest import EXAMPLE_LAWS, count_patterns


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
    cell.solve_first_order(
        cell.CellOperators(fem.FemSpace(disk_cell_mesh), example_law, 300.0, "dirichlet"))
    assert cell.SOLVES.count > before


def test_dT_of_first_order_centered(disk_cell_mesh, example_law):
    temps = [280.0, 340.0, 400.0]
    space = fem.FemSpace(disk_cell_mesh)
    entries = [cell.solve_first_order(cell.CellOperators(space, example_law, T, "dirichlet"))
               for T in temps]
    d = cell.dT_of_first_order(entries, 340.0)
    expect = (entries[2].M - entries[0].M) / 120.0
    assert np.allclose(d.M, expect, atol=1e-14)


@pytest.mark.parametrize("i, lo, hi", [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 3)])
def test_centred_slope_is_centred_inside_and_one_sided_at_the_ends(small_table, i, lo, hi):
    """One rule for corrector sets and coefficient blocks: the difference of
    the neighbours of node i, one-sided at the two ends of the table."""
    rng = np.random.default_rng(i)
    temps = np.array([280.0, 320.0, 360.0, 400.0])
    nn = small_table.first[0].M.shape[-1]
    first = [cell.FirstOrderCellSet(T0=T, M=rng.standard_normal((2, nn)),
                                    H=rng.standard_normal((2, nn)),
                                    N=rng.standard_normal((2, 2, 2, nn)),
                                    P=rng.standard_normal((2, nn))) for T in temps]
    blocks = [homog.HomogenizedCoefficients(
        T0=T, **{n: rng.standard_normal(np.shape(getattr(small_table.coeffs[0], n)))
                 for n in homog.COEFF_NAMES}) for T in temps]
    dT = temps[hi] - temps[lo]
    for entries, names in ((first, ("M", "H", "N", "P")), (blocks, homog.COEFF_NAMES)):
        got = cell.centred_slope(entries, temps, i, names)
        assert sorted(got) == sorted(names)
        for n in names:
            expect = (getattr(entries[hi], n) - getattr(entries[lo], n)) / dT
            assert np.asarray(got[n]).tobytes() == np.asarray(expect).tobytes(), n
    d = cell.dT_of_first_order(first, temps[i])
    assert d.T0 == temps[i] and d.N.tobytes() == ((first[hi].N - first[lo].N) / dT).tobytes()
    table = homog.TemperatureTable(temps=temps, first=first, second=[], coeffs=blocks,
                                   Ttilde=300.0, bc="dirichlet")
    c = table.coeff_dT(i)
    assert c.T0 == temps[i]
    assert c.c_hat.tobytes() == ((blocks[hi].c_hat - blocks[lo].c_hat) / dT).tobytes()


# The per-phase evaluation of the cell coefficients that CellOperators
# replaced, kept as the reference of the bit guard below: phase_scalar and
# phase_elasticity verbatim, on the MaterialLaw.eval and .elasticity of that
# time (_law_eval, _law_elasticity), which also gave T-derivatives.
def _law_eval(law, phase, quantity, T, order: int = 0):
    a, b = law.coeffs[phase][quantity]
    T = np.asarray(T, dtype=float)
    if order == 0:
        return a + b * T
    if order == 1:
        return np.broadcast_to(np.float64(b), T.shape).copy() if T.ndim else float(b)
    raise ValueError(order)


def _law_elasticity(law, phase, T, order: int = 0):
    E = _law_eval(law, phase, "E", T, order)
    nu = _law_eval(law, phase, "nu", T, 0)
    return elasticity_tensor(E, nu, law.plane, _validate=(order == 0))


def phase_scalar(mesh, law, quantity, T0, order: int = 0):
    """Per-element scalar coefficient (nt,) from the element phase tags."""
    out = np.empty(mesh.num_triangles)
    for ph in law.phases:
        out[mesh.phase_tag == ph] = float(_law_eval(law, ph, quantity, T0, order))
    return out


def phase_elasticity(mesh, law, T0, order: int = 0):
    """Per-element elasticity tensor (nt, 2, 2, 2, 2)."""
    out = np.empty((mesh.num_triangles, 2, 2, 2, 2))
    for ph in law.phases:
        out[mesh.phase_tag == ph] = _law_elasticity(law, ph, T0, order)
    return out


@pytest.mark.parametrize("geometry", ["disk", "stripe"])
def test_cell_coefficients_are_bit_for_bit_the_per_phase_loop(
        disk_cell_mesh, stripe_cell_mesh, example_law, geometry):
    mesh = disk_cell_mesh if geometry == "disk" else stripe_cell_mesh
    assert set(np.unique(mesh.phase_tag).tolist()) == {MATRIX, INCLUSION}
    space = fem.FemSpace(mesh)
    for T0 in np.linspace(250.0, 900.0, 7):
        ops = cell.CellOperators(space, example_law, T0, "dirichlet")
        for attr, q in (("k_e", "k"), ("lam_e", "lam"), ("beta_e", "beta"),
                        ("rho_e", "rho"), ("cap_e", "c")):
            assert getattr(ops, attr).tobytes() == phase_scalar(
                mesh, example_law, q, T0).tobytes(), (T0, attr)
        for q in ("k", "lam", "beta", "rho", "c"):
            assert ops.slope(q).tobytes() == phase_scalar(
                mesh, example_law, q, T0, 1).tobytes(), (T0, q)
        assert ops.c_e.tobytes() == phase_elasticity(mesh, example_law, T0).tobytes()
        assert ops.elasticity_slope().tobytes() == phase_elasticity(
            mesh, example_law, T0, 1).tobytes()


@pytest.fixture(scope="module")
def cell_meshes(disk_cell_mesh, stripe_cell_mesh):
    return [disk_cell_mesh, stripe_cell_mesh,
            build_unit_cell_mesh(PhaseGeometry("none"), 0.15),
            build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25), 0.08)]


@pytest.mark.parametrize("name, spec, data, lead", [
    ("_c_gN", "tiakl,mbktl->abmti", "gradients", (2, 2, 2)),
    ("_c_gN_ij", "tijkl,mbktl->bmtij", "gradients", (2, 2, 2)),
    ("_c_N", "tijka,mbkt->abmtij", "means", (2, 2, 2)),
    ("_c_gP", "tiakl,ktl->ati", "gradients", (2,)),
    ("_c_gP_ij", "tijkl,ktl->tij", "gradients", (2,)),
    ("_c_P", "tijka,kt->atij", "means", (2,)),
])
def test_elastic_contractions_keep_the_einsum_rounding(cell_meshes, name, spec, data, lead):
    """Each second-order contraction is bit for bit the einsum it replaced.

    The operands are laid out as the cell stage passes them: c contiguous,
    the element gradients and means of P1 fields as FirstOrderCellSet
    returns them.
    """
    rng = np.random.default_rng(9)
    for mesh in cell_meshes:
        c = rng.standard_normal((mesh.num_triangles, 2, 2, 2, 2))
        f = rng.standard_normal(lead + (mesh.num_nodes,))
        x = (fem.element_gradient(mesh, f) if data == "gradients"
             else f[..., mesh.triangles].mean(axis=-1))
        ref = np.einsum(spec, c, x)
        got = getattr(cell, name)(c, x)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_a_mesh_phase_without_a_law_is_refused(disk_cell_mesh):
    law = MaterialLaw(coeffs={MATRIX: EXAMPLE_LAWS[MATRIX]})
    with pytest.raises(MaterialError, match=rf"\[{INCLUSION}\] have no material law"):
        cell.CellOperators(fem.FemSpace(disk_cell_mesh), law, 300.0, "dirichlet")


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
    ops = cell.CellOperators(space, example_law, 300.0, "dirichlet")
    k_e, c_e = ops.k_e, ops.c_e
    rng = np.random.default_rng(5)
    G = np.zeros((mesh.num_triangles, 2))
    G[:, 0] = -k_e
    scalar = (fem.assemble_cell_grad_grad(space, k_e),
              [fem.assemble_flux(space, G), rng.standard_normal(mesh.num_nodes)])
    vector = (fem.assemble_cell_elasticity(space, c_e),
              [fem.assemble_cell_tensor_flux(space, -c_e[..., 0, 1]),
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

    for name in ("assemble_cell_grad_grad", "assemble_cell_elasticity"):
        monkeypatch.setattr(fem, name, counted(name, getattr(fem, name)))
    built = []

    class Counted(cell.CellOperators):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.T0)

    monkeypatch.setattr(cell, "CellOperators", Counted)
    patterns = count_patterns(monkeypatch)
    table = homog.build_table(disk_cell_mesh, example_law, 280.0, 400.0, 3,
                              Ttilde=300.0, bc=bc)
    assert built == [float(T) for T in table.temps]
    # heat and electric conduction, then elasticity, at each temperature
    assert calls.count("assemble_cell_grad_grad") == 2 * 3
    assert calls.count("assemble_cell_elasticity") == 3
    # on one CSR pattern per operator kind for all temperatures
    assert sorted(patterns) == [3, 6]
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
    coeffs = [homog.compute_coefficients(o, f) for o, f in zip(ops, first)]
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
    by the fem kernels and solved by its own ops.solve.  The source kernels
    take values at the quadrature points: each element's value repeated."""
    vector = which == "c"
    source_at_points = fem.assemble_vector_source if vector else fem.assemble_source
    flux = fem.assemble_cell_tensor_flux if vector else fem.assemble_flux

    def source(space, s):
        return source_at_points(space, np.broadcast_to(s[:, None], space.wq.shape + s.shape[1:]))

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
    coeffs = [homog.compute_coefficients(o, f) for o, f in zip(ops, first)]
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
        pm = fem.PeriodicMap(mesh, masters, slaves, fem.assemble_cell_grad_grad(space, coef))
        for a in range(2):
            G = np.zeros((nt, 2))
            G[:, a] = -coef
            assert np.array_equal(field[a], pm.solve(fem.assemble_flux(space, G)))
    pm = fem.PeriodicMap(mesh, masters, slaves, fem.assemble_cell_elasticity(space, ops.c_e))
    for m in range(2):
        for sup in range(2):
            x = pm.solve(fem.assemble_cell_tensor_flux(space, -ops.c_e[:, :, :, m, sup]))
            assert np.array_equal(first.N[m, sup], x.reshape(nn, 2).T)
    x = pm.solve(fem.assemble_cell_tensor_flux(space, ops.beta_e[:, None, None] * np.eye(2)))
    assert np.array_equal(first.P, x.reshape(nn, 2).T)


def test_periodic_table_factors_each_operator_once(monkeypatch, disk_cell_mesh, example_law):
    calls = {"splu": 0, "solve_spd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    monkeypatch.setattr(fem, "solve_spd", counted("solve_spd", fem.solve_spd))
    before = cell.SOLVES.count
    homog.build_table(disk_cell_mesh, example_law, 280.0, 400.0, 3, Ttilde=300.0,
                      bc="periodic")
    # per temperature: one LU per operator, Jacobi-CG for the 9 first-order
    # correctors only, and 9 + 65 cell solves in all
    assert calls == {"splu": 3 * 3, "solve_spd": 9 * 3}
    assert cell.SOLVES.count - before == 74 * 3


def test_dirichlet_cells_keep_the_default_ordering(monkeypatch, disk_cell_mesh, example_law):
    """The Dirichlet first order is the one SciPy's default LU gives, bit for bit."""
    space = fem.FemSpace(disk_cell_mesh)
    first = cell.solve_first_order(cell.CellOperators(space, example_law, 300.0, "dirichlet"))
    splu = spla.splu
    # no ordering or pivoting option reaches SuperLU here
    monkeypatch.setattr(spla, "splu", lambda A: splu(A))
    ref = cell.solve_first_order(cell.CellOperators(space, example_law, 300.0, "dirichlet"))
    for name in ("M", "H", "N", "P"):
        assert np.array_equal(getattr(first, name), getattr(ref, name))


def test_periodic_cells_factor_in_symmetric_mode(monkeypatch, disk_cell_mesh, example_law):
    seen = []
    splu = spla.splu

    def recorded(A, **kwargs):
        seen.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    space = fem.FemSpace(disk_cell_mesh)
    ops = cell.CellOperators(space, example_law, 300.0, bc="periodic")
    nn = disk_cell_mesh.num_nodes
    for which, ndof in (("k", nn), ("lam", nn), ("c", 2 * nn)):
        ops.solve(which, np.ones(ndof))
    assert len(seen) == 3
    assert all(kw == {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                      "options": {"SymmetricMode": True}} for kw in seen)
