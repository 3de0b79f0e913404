"""Discrete norms and the evolutive error table."""

import numpy as np
import pytest

from homsim import fem, metrics
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
    err = metrics.relative_error(space, approx, ref, "L2")
    assert err == pytest.approx(0.1, rel=1e-12)


def test_relative_error_zero_reference_raises(space, mesh):
    with pytest.raises(ValueError):
        metrics.relative_error(space, np.ones(mesh.num_nodes),
                               np.zeros(mesh.num_nodes), "L2")


def test_relative_error_takes_a_precomputed_reference_norm(space, mesh):
    ref = np.ones((2, mesh.num_nodes))
    approx = np.stack([np.full(mesh.num_nodes, 1.1), np.full(mesh.num_nodes, 0.9)])
    denom = metrics.norm(space, ref, "H1")
    assert metrics.relative_error(space, approx, ref, "L2", ref_norm=metrics.norm(space, ref, "L2")) \
        == metrics.relative_error(space, approx, ref, "L2")
    with pytest.raises(metrics.ZeroReferenceError):
        metrics.relative_error(space, approx, ref, "H1", ref_norm=denom)


def test_unknown_norm_rejected(space, mesh):
    with pytest.raises(ValueError):
        metrics.norm(space, np.ones(mesh.num_nodes), "Linf")


def test_error_series_columns_and_csv(tmp_path):
    series = metrics.ErrorSeries()
    assert len(metrics.COLUMNS) == 18
    row = {c: float(i) for i, c in enumerate(metrics.COLUMNS)}
    series.append(0.5, row)
    series.append(1.0, {c: 2.0 * v for c, v in row.items()})
    assert series.final("T", "order0", "L2") == 0.0
    assert series.final("U", "order2", "H1") == 2.0 * 17.0
    p = tmp_path / "err.csv"
    series.to_csv(p)
    header = open(p).readline().strip().split(",")
    assert header == ["t"] + metrics.COLUMNS
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert data.shape == (2, 19)
    assert data[0, 0] == 0.5
