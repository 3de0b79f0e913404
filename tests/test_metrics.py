"""Discrete norms and the evolutive error table."""

import numpy as np
import pytest

from homsim import fem, macro, metrics
from homsim.mesh import build_macro_mesh


@pytest.fixture(scope="module")
def space():
    return fem.FemSpace(build_macro_mesh(0.1))


@pytest.fixture(scope="module")
def mesh(space):
    return space.mesh


def test_l2_norm_of_constant(space, mesh):
    v = np.full(mesh.num_nodes, 3.0)
    assert metrics.l2_norm(space, v) == pytest.approx(3.0, rel=1e-12)


def test_l2_norm_of_linear(space, mesh):
    v = mesh.nodes[:, 0]
    assert metrics.l2_norm(space, v) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)


def test_h1_seminorm_of_linear(space, mesh):
    v = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1]
    assert metrics.h1_seminorm(space, v) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_vector_norms_sum_components(space, mesh):
    U = np.stack([np.full(mesh.num_nodes, 3.0), np.full(mesh.num_nodes, 4.0)])
    assert metrics.l2_norm(space, U) == pytest.approx(5.0, rel=1e-12)


def test_relative_error_constant_offset(space, mesh):
    """Reference (1,1) against approximation (1.1, 0.9) -> 10% in L2."""
    ref = np.ones((2, mesh.num_nodes))
    approx = np.stack([np.full(mesh.num_nodes, 1.1), np.full(mesh.num_nodes, 0.9)])
    err = metrics.relative_error(space, approx, ref, "L2", metrics.norm(space, ref, "L2"))
    assert err == pytest.approx(0.1, rel=1e-12)


def test_relative_error_zero_reference_raises(space, mesh):
    with pytest.raises(ValueError):
        metrics.relative_error(space, np.ones(mesh.num_nodes), np.zeros(mesh.num_nodes), "L2",
                               metrics.norm(space, np.zeros(mesh.num_nodes), "L2"))


def test_relative_error_takes_a_precomputed_reference_norm(space, mesh):
    ref = np.ones((2, mesh.num_nodes))
    approx = np.stack([np.full(mesh.num_nodes, 1.1), np.full(mesh.num_nodes, 0.9)])
    denom = metrics.norm(space, ref, "H1")
    diff = metrics.norm(space, approx - ref, "L2")
    assert metrics.relative_error(space, approx, ref, "L2", 4.0) == diff / 4.0
    with pytest.raises(metrics.ZeroReferenceError):
        metrics.relative_error(space, approx, ref, "H1", denom)


def test_unknown_norm_rejected(space, mesh):
    with pytest.raises(ValueError):
        metrics.norm(space, np.ones(mesh.num_nodes), "Linf")


def test_error_series_columns_and_csv(tmp_path):
    assert len(metrics.COLUMNS) == 18
    row = [float(j) for j in range(len(metrics.COLUMNS))]
    series = metrics.ErrorSeries([0.5, 1.0], [row, [2.0 * v for v in row]], set())
    assert series.final("T", "order0", "L2") == 0.0
    assert series.final("U", "order2", "H1") == 2.0 * 17.0
    p = tmp_path / "err.csv"
    series.to_csv(p)
    header = open(p).readline().strip().split(",")
    assert header == ["t"] + metrics.COLUMNS
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert data.shape == (2, 19)
    assert data[0, 0] == 0.5
    assert np.array_equal(data[:, 1:], series.rows)


#: the relative error of each reconstruction order in _FieldsOfStep
_ORDER_ERRORS = (0.1, 0.2, 0.3)


def _run(mesh, grid, stride):
    """A trajectory on grid storing step 0, every stride-th step and the last;
    the fields of step m are 1 + m times fixed non-constant fields."""
    x, y = mesh.nodes.T
    steps = sorted({0, grid.n_steps} | set(range(0, grid.n_steps, stride)))
    snaps = []
    for m in steps:
        T, Phi, U = ((1 + m) * f for f in (1.0 + x, 1.0 + y, np.stack([x, x * y])))
        snaps.append(macro.Snapshot(m, grid.time(m), T, T, Phi, U, U, U))
    return macro.Trajectory(mesh, grid, snaps, {})


class _FieldsOfStep:
    """A reconstructor whose order k returns the macro snapshot's fields
    times 1 + _ORDER_ERRORS[k], and which records the steps it was given."""

    def __init__(self):
        self.steps = []

    def all_orders(self, snap, dt):
        self.steps.append(snap.m)
        return tuple({"T": (1 + e) * snap.T, "Phi": (1 + e) * snap.Phi, "U": (1 + e) * snap.U}
                     for e in _ORDER_ERRORS)


def test_evolutive_errors_pair_snapshots_by_step(mesh):
    """Strides 2 and 3 over 6 steps share steps 0 and 6; step 0 is skipped,
    and step 6 of the one run is compared with step 6 of the other."""
    grid = macro.TimeGrid(dt=0.1, n_steps=6)
    for ref_stride, macro_stride in [(2, 3), (3, 2)]:
        recon = _FieldsOfStep()
        series = metrics.evolutive_errors(_run(mesh, grid, ref_stride),
                                          _run(mesh, grid, macro_stride), recon)
        assert recon.steps == [6]
        assert series.times == [grid.time(6)] and series.undefined == set()
        for f in metrics.FIELDS:
            for o, e in zip(metrics.ORDERS, _ORDER_ERRORS):
                for n in metrics.NORMS:
                    assert series.final(f, o, n) == pytest.approx(e, rel=1e-12), (f, o, n)


@pytest.mark.parametrize("other", [macro.TimeGrid(dt=0.1, n_steps=3),
                                   macro.TimeGrid(dt=0.05, n_steps=6)])
def test_evolutive_errors_refuse_runs_on_different_grids(mesh, other):
    grid = macro.TimeGrid(dt=0.1, n_steps=6)
    with pytest.raises(ValueError, match="TimeGrid"):
        metrics.evolutive_errors(_run(mesh, grid, 2), _run(mesh, other, 2), _FieldsOfStep())
