"""Multi-scale reconstruction: sampling, order consistency, degeneracy."""

import numpy as np
import pytest
import scipy.sparse as sp

from homsim import dns, fem, homog, macro, reconstruct
from homsim.mesh import build_macro_mesh

from conftest import constant_problem_data


@pytest.fixture(scope="module")
def driven_run(macro_mesh, small_table):
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    grid = macro.TimeGrid(dt=1e-3, n_steps=10)
    space = fem.FemSpace(macro_mesh)
    stepper = macro.Stepper(space, macro.TableProvider(space, small_table),
                            data, grid, snapshot_stride=10)
    return stepper.run()


def test_cell_sampler_weights_partition_unity(disk_cell_mesh, small_table):
    """Each row of the sampling operator: 6 non-negative weights summing to 1."""
    pts = np.random.default_rng(0).random((50, 2))
    cs = reconstruct.CellSampler(disk_cell_mesh, small_table.temps, pts, 0.25)
    op, slots = cs.operator(np.linspace(250.0, 420.0, 50))
    assert slots == slice(0, len(small_table.temps))
    assert op.shape == (50, len(small_table.temps) * disk_cell_mesh.num_nodes)
    assert np.all(np.diff(op.indptr) == 6) and op.data.min() >= -1e-12
    assert np.allclose(op.sum(axis=1), 1.0, atol=1e-12)


def test_cell_sampler_exact_at_slot_temperature(disk_cell_mesh, small_table):
    """Sampling a linear-in-y nodal function at a slot temperature is exact."""
    rng = np.random.default_rng(1)
    pts = rng.random((100, 2)) * 0.25  # all inside the first cell for eps=1/4
    cs = reconstruct.CellSampler(disk_cell_mesh, small_table.temps, pts, 0.25)
    lin = [2.0 * disk_cell_mesh.nodes[:, 0] + 3.0 * disk_cell_mesh.nodes[:, 1] + i
           for i in range(len(small_table.temps))]
    T0 = np.full(100, float(small_table.temps[1]))
    op, slots = cs.operator(T0)
    vals = cs.sample(op, lin[slots])
    y = pts / 0.25
    assert np.allclose(vals, 2.0 * y[:, 0] + 3.0 * y[:, 1] + 1.0, atol=1e-10)


def test_cell_sampler_linear_between_slots(disk_cell_mesh, small_table):
    pts = np.random.default_rng(2).random((20, 2)) * 0.25
    cs = reconstruct.CellSampler(disk_cell_mesh, small_table.temps, pts, 0.25)
    const = [np.full(disk_cell_mesh.num_nodes, float(i)) for i in range(3)]
    Ta, Tb = small_table.temps[0], small_table.temps[1]
    op, slots = cs.operator(np.full(20, 0.25 * Ta + 0.75 * Tb))
    vals = cs.sample(op, const[slots])
    assert np.allclose(vals, 0.75, atol=1e-12)


def _full_grid_operator(cs, T_eval):
    """The sampling operator with one column block per table slot, reached or not."""
    i, s = homog.hat_weights(cs.temps, T_eval)
    nn = cs.num_cell_nodes
    cols = (i[:, None, None] + np.arange(2)[None, :, None]) * nn + cs.nodes3[:, None, :]
    vals = np.stack([1.0 - s, s], axis=1)[:, :, None] * cs.bary[:, None, :]
    return sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, 6 * len(s) + 1, 6)),
                         shape=(len(s), len(cs.temps) * nn))


@pytest.mark.parametrize("T_lo, T_hi, reached", [
    (345.0, 395.0, slice(1, 3)),   # the upper interval only
    (250.0, 330.0, slice(0, 2)),   # below the grid, clamped, and the lower interval
    (300.0, 390.0, slice(0, 3)),   # both intervals
])
def test_cell_sampler_reads_only_the_reached_slots(disk_cell_mesh, small_table,
                                                   T_lo, T_hi, reached):
    """Sampling on the reached slots is bit for bit the product with every slot."""
    pts = np.random.default_rng(3).random((40, 2))
    cs = reconstruct.CellSampler(disk_cell_mesh, small_table.temps, pts, 0.25)
    T_eval = np.linspace(T_lo, T_hi, 40)
    op, slots = cs.operator(T_eval)
    assert slots == reached
    full = _full_grid_operator(cs, T_eval)
    for arrays in ([f.N for f in small_table.first],
                   [s.fields["N2"] for s in small_table.second]):
        want = cs.sample(full, arrays)
        assert cs.sample(op, arrays[slots]).tobytes() == want.tobytes()


def test_homs_equals_loms_plus_terms(macro_mesh, disk_cell_mesh, small_table,
                                     driven_run):
    eps = 0.25
    fine = dns.build_tiled_mesh(disk_cell_mesh, eps)
    rec = reconstruct.Reconstructor(macro_mesh, disk_cell_mesh, small_table,
                                    eps, fine)
    snap = driven_run.snapshots[-1]
    dt = driven_run.grid.dt
    _, h1, h2 = rec.all_orders(snap, dt)
    terms = h2["terms"]
    for f, keys in (("T", "T:"), ("Phi", "Phi:"), ("U", "U:")):
        total = sum(v for k, v in terms.items() if k.startswith(keys))
        assert np.allclose(h2[f], h1[f] + eps**2 * total, atol=1e-12, rtol=1e-12)


def test_all_sixteen_terms_present(macro_mesh, disk_cell_mesh, small_table,
                                   driven_run):
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.25)
    rec = reconstruct.Reconstructor(macro_mesh, disk_cell_mesh, small_table,
                                    0.25, fine)
    _, _, h2 = rec.all_orders(driven_run.snapshots[-1], driven_run.grid.dt)
    expected = {"T:Q", "T:M2", "T:R", "T:O", "T:G", "T:J",
                "Phi:H2", "Phi:Z", "Phi:W",
                "U:N2", "U:F", "U:X", "U:A", "U:B", "U:C", "U:D"}
    assert set(h2["terms"]) == expected


def test_degenerate_correctors_leave_fields_unchanged(macro_mesh, disk_cell_mesh,
                                                      uniform_table):
    data = constant_problem_data(value_T=300.0, f_T=2000.0, f_Phi=20.0, f_U=500.0)
    grid = macro.TimeGrid(dt=1e-3, n_steps=5)
    space = fem.FemSpace(macro_mesh)
    traj = macro.Stepper(space, macro.TableProvider(space, uniform_table),
                         data, grid, snapshot_stride=5).run()
    fine = dns.build_tiled_mesh(disk_cell_mesh, 0.25)
    rec = reconstruct.Reconstructor(macro_mesh, disk_cell_mesh, uniform_table,
                                    0.25, fine)
    h0, h1, h2 = rec.all_orders(traj.snapshots[-1], grid.dt)
    for f in ("T", "Phi", "U"):
        scale = max(np.abs(h0[f]).max(), 1e-12)
        assert np.abs(h1[f] - h0[f]).max() < 1e-10 * scale
        assert np.abs(h2[f] - h0[f]).max() < 1e-10 * scale


def test_macro_evaluator_interpolates_fields(macro_mesh):
    pts = np.random.default_rng(5).random((40, 2))
    ev = reconstruct.MacroEvaluator(macro_mesh, pts)
    nodal = macro_mesh.nodes[:, 0] ** 2  # P1-representable only approximately
    lin = 2.0 + macro_mesh.nodes @ np.array([1.0, -3.0])
    assert np.allclose(ev.scalar(lin), 2.0 + pts @ np.array([1.0, -3.0]), atol=1e-12)
    g = ev.gradient(lin)
    assert np.allclose(g, np.array([1.0, -3.0]), atol=1e-10)
    h = ev.hessian(nodal)
    assert h.shape == (40, 2, 2)


def test_macro_evaluator_scalar_keeps_the_einsum_rounding(macro_mesh):
    """scalar() gives, bit for bit, the barycentric einsum over the vertices
    of each point's triangle that it replaced, for one field (also a strided
    one, as a gradient component) and for stacks of fields."""
    rng = np.random.default_rng(6)
    pts = rng.random((300, 2))
    ev = reconstruct.MacroEvaluator(macro_mesh, pts)
    tri, bary = macro_mesh.locate_points(pts)
    nn = macro_mesh.num_nodes
    fields = [rng.standard_normal(nn), rng.standard_normal((nn, 2))[:, 0],
              rng.standard_normal((2, nn)), rng.standard_normal((2, nn, 2))[..., 1],
              rng.standard_normal((2, 2, nn))]
    for nodal in fields:
        ref = np.einsum("...pa,pa->...p", nodal[..., macro_mesh.triangles[tri]], bary)
        got = ev.scalar(nodal)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), nodal.shape


def test_bad_epsilon_rejected(macro_mesh, disk_cell_mesh, small_table):
    with pytest.raises(ValueError):
        reconstruct.Reconstructor(macro_mesh, disk_cell_mesh, small_table,
                                  0.3, build_macro_mesh(0.3))


def test_all_orders_recovers_each_gradient_once(monkeypatch, macro_mesh, disk_cell_mesh,
                                                small_table, driven_run):
    rec = reconstruct.Reconstructor(macro_mesh, disk_cell_mesh, small_table, 0.25,
                                    dns.build_tiled_mesh(disk_cell_mesh, 0.25))
    snap = driven_run.snapshots[-1]
    calls = []
    recover = reconstruct.recover_nodal_gradient

    def counted(space, nodal):
        calls.append(np.shape(nodal))
        return recover(space, nodal)

    monkeypatch.setattr(reconstruct, "recover_nodal_gradient", counted)
    rec.all_orders(snap, driven_run.grid.dt)
    # T, Phi, U: the gradient and its two components again; the velocity once
    assert len(calls) == 10
    for nodal in (snap.T, snap.U):
        g, h = rec.ev.derivatives(nodal)
        assert np.array_equal(g, rec.ev.gradient(nodal))
        assert np.array_equal(h, rec.ev.hessian(nodal))
