"""Effective coefficients: identities, bounds, laminate limits, table queries."""

import warnings

import numpy as np
import pytest

from homsim import cell, homog
from homsim.mesh import PhaseGeometry, build_unit_cell_mesh


def test_dual_form_identities(small_table):
    for co in small_table.coeffs:
        rep = homog.verify_identities(co)
        assert rep["checks"]["lam_eq_lam_star"]["deviation"] < 1e-12
        assert rep["checks"]["beta_eq_beta_star"]["deviation"] < 1e-12


def test_eigenvalue_bounds_with_law(small_table, example_law):
    for co in small_table.coeffs:
        rep = homog.verify_identities(co, law=example_law)
        assert rep["pass"], rep


def test_coefficient_symmetry(small_table):
    for co in small_table.coeffs:
        assert np.allclose(co.k_hat, co.k_hat.T, atol=1e-12 * np.abs(co.k_hat).max())
        assert np.allclose(co.c_hat, np.transpose(co.c_hat, (2, 3, 0, 1)),
                           atol=1e-9 * np.abs(co.c_hat).max())


def test_uniform_material_recovers_plain_coefficients(uniform_table, uniform_law):
    from homsim.mesh import MATRIX

    for T, co in zip(uniform_table.temps, uniform_table.coeffs):
        k = uniform_law.eval(MATRIX, "k", T)
        assert np.allclose(co.k_hat, k * np.eye(2), rtol=1e-12)
        rho = uniform_law.eval(MATRIX, "rho", T)
        cap = uniform_law.eval(MATRIX, "c", T)
        assert co.S_hat == pytest.approx(rho * cap, rel=1e-12)
        c_exact = uniform_law.elasticity(MATRIX, T)
        assert np.allclose(co.c_hat, c_exact, rtol=1e-12)


def test_laminate_limits_periodic(example_law):
    """Stripe laminate: series (harmonic) across, parallel (arithmetic) along."""
    mesh = build_unit_cell_mesh(PhaseGeometry("stripe", band=(0.25, 0.75)), 0.1)
    first = cell.solve_first_order(mesh, example_law, 300.0, bc="periodic")
    co = homog.compute_coefficients(mesh, example_law, 300.0, first)
    k1 = example_law.eval(0, "k", 300.0)
    k2 = example_law.eval(1, "k", 300.0)
    harm = 1.0 / (0.5 / k1 + 0.5 / k2)
    arit = 0.5 * k1 + 0.5 * k2
    assert co.k_hat[0, 0] == pytest.approx(harm, rel=1e-10)
    assert co.k_hat[1, 1] == pytest.approx(arit, rel=1e-10)
    assert abs(co.k_hat[0, 1]) < 1e-10 * arit


def test_table_requires_equidistant_temps():
    with pytest.raises(homog.HomogError):
        homog.TemperatureTable(temps=np.array([1.0, 2.0, 4.0]), first=[],
                               second=[], coeffs=[], Ttilde=300.0)


def test_table_interpolation_exact_at_slots(small_table):
    for i, T in enumerate(small_table.temps):
        co = small_table.coeffs_at(float(T))
        assert np.allclose(co.k_hat, small_table.coeffs[i].k_hat, rtol=1e-12)


def test_table_interpolation_linear_between_slots(small_table):
    Ta, Tb = small_table.temps[0], small_table.temps[1]
    mid = 0.5 * (Ta + Tb)
    co = small_table.coeffs_at(mid)
    expect = 0.5 * (small_table.coeffs[0].k_hat + small_table.coeffs[1].k_hat)
    assert np.allclose(co.k_hat, expect, rtol=1e-12)


def test_table_clamps_and_warns(small_table):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        co = small_table.coeffs_at(small_table.temps[0] - 50.0)
    assert any("clamped" in str(x.message) for x in w)
    assert np.allclose(co.k_hat, small_table.coeffs[0].k_hat, rtol=1e-12)


def test_coeff_fields_matches_pointwise(small_table):
    # interior points, a table slot and a clamped out-of-range temperature
    T_nodes = np.array([290.0, 333.0, 395.0, small_table.temps[1],
                        small_table.temps[-1] + 40.0])
    fields = small_table.coeff_fields(T_nodes)
    for j, T in enumerate(T_nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            co = small_table.coeffs_at(float(T))
        assert np.allclose(fields["k_hat"][:, :, j], co.k_hat, rtol=1e-12)
        assert fields["S_hat"][j] == pytest.approx(co.S_hat, rel=1e-12)


def test_cells_at_interpolates_correctors(small_table):
    Ta, Tb = small_table.temps[0], small_table.temps[1]
    first, second = small_table.cells_at(0.5 * (Ta + Tb))
    expect = 0.5 * (small_table.first[0].M + small_table.first[1].M)
    assert np.allclose(first.M, expect, atol=1e-14)
    for k in second.fields:
        e = 0.5 * (small_table.second[0].fields[k] + small_table.second[1].fields[k])
        assert np.allclose(second.fields[k], e, atol=1e-12)


def test_csv_export_roundtrip(tmp_path, small_table):
    p = tmp_path / "coeffs.csv"
    homog.export_csv(small_table, p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert data.shape == (len(small_table.temps), len(homog.CSV_HEADER))
    assert np.allclose(data[:, 0], small_table.temps)
