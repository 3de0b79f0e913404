"""Fine-mesh reference solver: tiling and coefficient equivalence."""

import dataclasses

import numpy as np
import pytest

from homsim import dns, fem, macro
from homsim.mesh import INCLUSION, MeshError

from conftest import constant_problem_data, isotropic_elasticity


def test_tiled_mesh_geometry(disk_cell_mesh):
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.25)
    assert fine.areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert fine.num_triangles == 16 * disk_cell_mesh.num_triangles
    assert dns.tiles(0.25) == 4  # the count `homsim errors` checks the DNS mesh against
    # seam nodes merged: strictly fewer than 16 * nn
    assert fine.num_nodes < 16 * disk_cell_mesh.num_nodes


def test_tiled_mesh_preserves_phase_fraction(disk_cell_mesh):
    cell_frac = disk_cell_mesh.areas[disk_cell_mesh.phase_tag == INCLUSION].sum()
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.25)
    fine_frac = fine.areas[fine.phase_tag == INCLUSION].sum()
    assert fine_frac == pytest.approx(cell_frac, rel=1e-12)


def test_non_reciprocal_epsilon_rejected(disk_cell_mesh):
    with pytest.raises(MeshError):
        dns.build_tiled_mesh(disk_cell_mesh, 0.3)
    for eps in (0.3, 5e-324):  # 1/5e-324 overflows
        with pytest.raises(MeshError, match="reciprocal integer"):
            dns.tiles(eps)


def test_oscillatory_provider_phase_values(disk_cell_mesh, example_law):
    space = fem.FemSpace(disk_cell_mesh)
    provider = dns.OscillatoryProvider(space, example_law)
    co = provider(np.full(disk_cell_mesh.num_nodes, 300.0), macro.THERMAL + ("rho", "beta"))
    mat = disk_cell_mesh.phase_tag == 0
    area = disk_cell_mesh.areas

    def phase_values(q):
        return np.where(mat, example_law.eval(0, q, 300.0), example_law.eval(1, q, 300.0))

    # k and lam: element integrals; lam_star, beta, rho and S: quadrature values
    for name in ("k", "lam"):
        assert co[name].shape == (disk_cell_mesh.num_triangles,)
        assert np.allclose(co[name], phase_values(name) * area, rtol=1e-12), name
    for name, q in (("lam_star", "lam"), ("beta", "beta"), ("rho", "rho")):
        assert co[name].shape == space.wq.shape
        assert np.allclose(co[name], phase_values(q)[:, None], rtol=1e-12), name
    assert np.allclose(co["S"], co["rho"] * np.where(mat, 562.5, 750.0)[:, None],
                       rtol=1e-12)


@pytest.mark.parametrize("plane", ["strain", "stress"])
def test_provider_elasticity_matches_law(disk_cell_mesh, example_law, plane):
    """The Lame integrals (lame, mu) give the law's c_ijkl integrated over each element."""
    law = dataclasses.replace(example_law, plane=plane)
    space = fem.FemSpace(disk_cell_mesh)
    provider = dns.OscillatoryProvider(space, law)
    T = 300.0 + 200.0 * disk_cell_mesh.nodes[:, 0]
    c = isotropic_elasticity(*provider(T, ("c",))["c"])
    T_qp = space.at_quadrature(T)
    for ph in (0, 1):
        sel = disk_cell_mesh.phase_tag == ph
        c_law = law.elasticity(ph, T_qp[sel])  # (n, nq, 2, 2, 2, 2)
        exact = np.einsum("tq,tqijkl->tijkl", space.wq[sel], c_law)
        assert np.allclose(c[sel], exact, rtol=1e-12, atol=1e-12 * np.abs(exact).max())


def test_oscillatory_provider_rejects_bad_moduli(disk_cell_mesh, example_law):
    from homsim.materials import MaterialError

    coeffs = {ph: dict(example_law.coeffs[ph]) for ph in example_law.phases}
    coeffs[1]["nu"] = (0.5, 0.0)
    law = dataclasses.replace(example_law, coeffs=coeffs)
    provider = dns.OscillatoryProvider(fem.FemSpace(disk_cell_mesh), law)
    with pytest.raises(MaterialError):
        provider(np.full(disk_cell_mesh.num_nodes, 300.0), ("c",))


def test_table_provider_integrates_the_stiffness_fields(disk_cell_mesh, small_table):
    """k, lam and c come integrated over each element, the rest at the quadrature points."""
    space = fem.FemSpace(disk_cell_mesh)
    provider = macro.TableProvider(space, small_table)
    T = np.linspace(290.0, 390.0, disk_cell_mesh.num_nodes)
    co = provider(T, macro.THERMAL + macro.MECHANICAL)
    for name, key in provider.NAMES.items():
        nodal = small_table.coeff_fields(T, [key])[key]
        at_qp = np.moveaxis(space.at_quadrature(nodal), (-2, -1), (0, 1))
        if name in macro.INTEGRATED:
            ref = np.einsum("tq,tq...->t...", space.wq, at_qp)
            assert co[name].shape == ref.shape, name
            assert np.abs(co[name] - ref).max() <= 1e-14 * np.abs(ref).max(), name
        else:
            assert np.array_equal(co[name], at_qp), name


@pytest.mark.parametrize("kind", ["table", "oscillatory"])
@pytest.mark.parametrize("fields", [macro.THERMAL, macro.MECHANICAL, ("lam_star",),
                                    ("c", "lam_star", "S")])
def test_provider_builds_exactly_the_fields_asked_for(disk_cell_mesh, example_law,
                                                      small_table, kind, fields):
    space = fem.FemSpace(disk_cell_mesh)
    if kind == "table":
        provider = macro.TableProvider(space, small_table)
    else:
        provider = dns.OscillatoryProvider(space, example_law)
    T = np.linspace(290.0, 390.0, disk_cell_mesh.num_nodes)
    every = provider(T, macro.THERMAL + macro.MECHANICAL)
    co = provider(T, fields)
    assert set(co) == set(fields)
    for name in fields:
        assert np.array_equal(co[name], every[name]), name


class _TensorForms:
    """The oscillatory provider's fields in the tensor forms of the contract."""

    def __init__(self, inner):
        self.inner = inner

    def nodal_beta_star(self, T_nodal):
        return self.inner.nodal_beta_star(T_nodal)

    def __call__(self, T_nodal, fields):
        co = self.inner(T_nodal, fields)
        for name in ("k", "lam", "lam_star", "beta"):
            if name in co:
                co[name] = co[name][..., None, None] * np.eye(2)
        if "c" in co:
            co["c"] = isotropic_elasticity(*co["c"])
        return co


def test_scalar_and_tensor_forms_step_alike(disk_cell_mesh, example_law):
    """The stepper's scalar paths (stiffness, Lame elasticity, Joule source, thermal
    stress) give the trajectory of the same fields passed as tensors."""
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.5)
    space = fem.FemSpace(fine)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=2000.0, f_U=500.0)
    grid = macro.TimeGrid(dt=1e-3, n_steps=3)
    provider = dns.OscillatoryProvider(space, example_law)
    a = macro.Stepper(space, provider, data, grid, snapshot_stride=3).run().snapshots[-1]
    b = macro.Stepper(space, _TensorForms(provider), data, grid,
                      snapshot_stride=3).run().snapshots[-1]
    for x, y in ((a.T - 300.0, b.T - 300.0), (a.Phi, b.Phi), (a.U, b.U)):
        assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()


def test_degenerate_dns_matches_table_driven_solve(disk_cell_mesh, uniform_law,
                                                   uniform_table):
    """Single-phase: effective coefficients equal phase coefficients, so the
    table-driven and oscillatory-coefficient runs coincide on the same mesh."""
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.5)
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    grid = macro.TimeGrid(dt=1e-3, n_steps=5)
    ref = dns.run_dns(fine, uniform_law, data, grid, snapshot_stride=5)
    space = fem.FemSpace(fine)
    hom = macro.Stepper(space, macro.TableProvider(space, uniform_table), data,
                        grid, snapshot_stride=5).run()
    a, b = ref.snapshots[-1], hom.snapshots[-1]
    assert np.abs(a.T - b.T).max() < 1e-8 * max(1.0, np.abs(b.T).max())
    assert np.abs(a.Phi - b.Phi).max() < 1e-8 * max(1e-12, np.abs(b.Phi).max())
    assert np.abs(a.U - b.U).max() < 1e-8 * max(1e-12, np.abs(b.U).max())
