"""Effective coefficients: identities, bounds, laminate limits, table queries."""

import dataclasses

import numpy as np
import pytest

from homsim import cell, fem, homog
from homsim.mesh import PhaseGeometry, build_unit_cell_mesh


def test_dual_form_identities(small_table, example_law):
    for co in small_table.coeffs:
        rep = homog.verify_identities(co, example_law)
        assert rep["checks"]["lam_eq_lam_star"]["deviation"] < 1e-12
        assert rep["checks"]["beta_eq_beta_star"]["deviation"] < 1e-12


def test_eigenvalue_bounds_with_law(small_table, example_law):
    for co in small_table.coeffs:
        rep = homog.verify_identities(co, law=example_law)
        assert rep["pass"], rep
    # k_hat lies between the phase conductivities of its own law, not above them
    stiffer = dataclasses.replace(example_law, coeffs={ph: dict(q, k=(40.0, 0.0))
                                                       for ph, q in example_law.coeffs.items()})
    checks = homog.verify_identities(small_table.coeffs[0], stiffer)["checks"]
    assert not checks["k_hat"]["pass"] and checks["lam_hat"]["pass"]


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
    mesh = build_unit_cell_mesh(PhaseGeometry("stripe", radius=0.25, fraction=0.5), 0.1)
    ops = cell.CellOperators(fem.FemSpace(mesh), example_law, 300.0, bc="periodic")
    first = cell.solve_first_order(ops)
    co = homog.compute_coefficients(ops, first)
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
                               second=[], coeffs=[], Ttilde=300.0, bc="dirichlet")


def test_table_interpolation_exact_at_slots(small_table):
    fields = small_table.coeff_fields(small_table.temps, homog.COEFF_NAMES)
    for i in range(len(small_table.temps)):
        assert np.allclose(fields["k_hat"][:, :, i], small_table.coeffs[i].k_hat, rtol=1e-12)


def test_table_interpolation_linear_between_slots(small_table):
    Ta, Tb = small_table.temps[0], small_table.temps[1]
    mid = 0.5 * (Ta + Tb)
    k = small_table.coeff_fields(np.array([mid]), ["k_hat"])["k_hat"][:, :, 0]
    expect = 0.5 * (small_table.coeffs[0].k_hat + small_table.coeffs[1].k_hat)
    assert np.allclose(k, expect, rtol=1e-12)


def _pointwise(table, name, T):
    """The coefficient at T by linear interpolation between its two slots,
    clamped to the end slots outside the table."""
    t = table.temps
    if T <= t[0]:
        return getattr(table.coeffs[0], name)
    if T >= t[-1]:
        return getattr(table.coeffs[-1], name)
    j = int(np.nonzero(t <= T)[0][-1])
    w = (T - t[j]) / (t[j + 1] - t[j])
    return (1 - w) * getattr(table.coeffs[j], name) + w * getattr(table.coeffs[j + 1], name)


def test_coeff_fields_matches_pointwise(small_table):
    # interior points, a table slot and clamped out-of-range temperatures
    # on both sides
    T_nodes = np.array([290.0, 333.0, 395.0, small_table.temps[1],
                        small_table.temps[-1] + 40.0, small_table.temps[0] - 50.0])
    fields = small_table.coeff_fields(T_nodes, homog.COEFF_NAMES)
    for j, T in enumerate(T_nodes):
        assert np.allclose(fields["k_hat"][:, :, j], _pointwise(small_table, "k_hat", T),
                           rtol=1e-12)
        assert fields["S_hat"][j] == pytest.approx(_pointwise(small_table, "S_hat", T), rel=1e-12)
    assert np.allclose(fields["k_hat"][:, :, -2], small_table.coeffs[-1].k_hat, rtol=1e-12)
    assert np.allclose(fields["k_hat"][:, :, -1], small_table.coeffs[0].k_hat, rtol=1e-12)


def test_coeff_fields_builds_only_the_named_coefficients(small_table):
    T_nodes = np.array([290.0, 333.0])
    some = small_table.coeff_fields(T_nodes, ["beta_hat_star", "S_hat"])
    assert set(some) == {"beta_hat_star", "S_hat"}
    every = small_table.coeff_fields(T_nodes, homog.COEFF_NAMES)
    assert set(every) == set(homog.COEFF_NAMES)
    for name, arr in some.items():
        assert np.array_equal(arr, every[name])


def test_csv_export_roundtrip(tmp_path, small_table):
    p = tmp_path / "coeffs.csv"
    homog.export_csv(small_table, p)
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    assert data.shape == (len(small_table.temps), len(homog.CSV_HEADER))
    assert np.allclose(data[:, 0], small_table.temps)
