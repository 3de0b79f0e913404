"""Fine-mesh reference solver: tiling and coefficient equivalence."""

import dataclasses

import numpy as np
import pytest

from homsim import dns, fem, macro
from homsim.mesh import INCLUSION, MeshError

from conftest import constant_problem_data


def test_tiled_mesh_geometry(disk_cell_mesh):
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.25)
    assert fine.areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert fine.num_triangles == 16 * disk_cell_mesh.num_triangles
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


def test_oscillatory_provider_phase_values(disk_cell_mesh, example_law):
    provider = dns.OscillatoryProvider(fem.FemSpace(disk_cell_mesh), example_law)
    co = provider(np.full(disk_cell_mesh.num_nodes, 300.0))
    k_mat = example_law.eval(0, "k", 300.0)
    k_inc = example_law.eval(1, "k", 300.0)
    kq = co["k"][:, :, 0, 0]
    mat = disk_cell_mesh.phase_tag == 0
    assert np.allclose(kq[mat], k_mat, rtol=1e-12)
    assert np.allclose(kq[~mat], k_inc, rtol=1e-12)
    assert np.allclose(co["S"], co["rho"] * np.where(mat, 562.5, 750.0)[:, None],
                       rtol=1e-12)


@pytest.mark.parametrize("plane", ["strain", "stress"])
def test_provider_elasticity_matches_law(disk_cell_mesh, example_law, plane):
    law = dataclasses.replace(example_law, plane=plane)
    provider = dns.OscillatoryProvider(fem.FemSpace(disk_cell_mesh), law)
    co = provider(np.full(disk_cell_mesh.num_nodes, 333.0))
    for ph in (0, 1):
        sel = disk_cell_mesh.phase_tag == ph
        c_exact = law.elasticity(ph, 333.0)
        assert np.allclose(co["c"][sel], c_exact, rtol=1e-12)


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
