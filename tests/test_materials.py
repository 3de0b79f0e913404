"""Material laws, derived tensors and ellipticity auditing."""

import numpy as np
import pytest

from homsim import cell, fem
from homsim.materials import (
    QUANTITIES,
    MaterialError,
    MaterialLaw,
    elasticity_tensor,
    lame_parameters,
)
from homsim.mesh import INCLUSION, MATRIX

from conftest import EXAMPLE_LAWS


def test_affine_evaluation(example_law):
    a, b = EXAMPLE_LAWS[MATRIX]["k"]
    assert example_law.eval(MATRIX, "k", 300.0) == pytest.approx(a + 300.0 * b)


def test_per_element_gives_the_law_of_each_elements_phase(example_law):
    tags = np.array([INCLUSION, MATRIX, MATRIX, INCLUSION, MATRIX])
    laws = example_law.per_element(tags)
    assert sorted(laws) == sorted(QUANTITIES)
    for q, (a, b) in laws.items():
        assert a.shape == b.shape == tags.shape
        assert a.tolist() == [EXAMPLE_LAWS[ph][q][0] for ph in tags.tolist()]
        # the T-derivative of each element's property is the slope of its law
        assert b.tolist() == [EXAMPLE_LAWS[ph][q][1] for ph in tags.tolist()]


def test_eval_vectorized(example_law):
    T = np.array([280.0, 300.0, 350.0])
    vals = example_law.eval(INCLUSION, "lam", T)
    a, b = EXAMPLE_LAWS[INCLUSION]["lam"]
    assert np.allclose(vals, a + b * T)


def test_unknown_quantity_raises(example_law):
    with pytest.raises(MaterialError):
        example_law.eval(MATRIX, "viscosity", 300.0)
    with pytest.raises(MaterialError):
        example_law.eval(7, "k", 300.0)


def test_elasticity_tensor_symmetries():
    c = elasticity_tensor(2.0e6, 0.3, "strain")
    assert np.allclose(c, np.transpose(c, (1, 0, 2, 3)))
    assert np.allclose(c, np.transpose(c, (0, 1, 3, 2)))
    assert np.allclose(c, np.transpose(c, (2, 3, 0, 1)))


def test_elasticity_plane_strain_values():
    E, nu = 1.0, 0.25
    c = elasticity_tensor(E, nu, "strain")
    lame = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    assert c[0, 0, 0, 0] == pytest.approx(lame + 2 * mu)
    assert c[0, 0, 1, 1] == pytest.approx(lame)
    assert c[0, 1, 0, 1] == pytest.approx(mu)


def test_plane_stress_differs_from_strain():
    cs = elasticity_tensor(1.0, 0.3, "stress")
    ct = elasticity_tensor(1.0, 0.3, "strain")
    assert not np.allclose(cs, ct)
    assert cs[0, 1, 0, 1] == pytest.approx(ct[0, 1, 0, 1])  # shear unchanged


def test_elasticity_positive_definite(example_law):
    for ph in example_law.phases:
        c = example_law.elasticity(ph, 300.0)
        # act on the symmetric strain basis
        strains = [np.array([[1.0, 0], [0, 0]]), np.array([[0, 0], [0, 1.0]]),
                   np.array([[0, 1.0], [1.0, 0]]) / np.sqrt(2)]
        G = np.array([[np.einsum("ijkl,ij,kl->", c, e1, e2) for e2 in strains]
                      for e1 in strains])
        assert np.linalg.eigvalsh(G).min() > 0


def test_invalid_engineering_constants():
    with pytest.raises(MaterialError):
        elasticity_tensor(-1.0, 0.3, "strain")
    with pytest.raises(MaterialError):
        elasticity_tensor(1.0, 0.6, "strain")


@pytest.mark.parametrize("plane", ["strain", "stress"])
def test_elasticity_tensor_is_bit_for_bit_the_lame_form(plane):
    """elasticity_tensor, built from lame_parameters, rounds as the formula it replaced."""
    rng = np.random.default_rng(8)
    E = 10.0 ** rng.uniform(0.0, 7.0, (5, 3))
    nu = rng.uniform(0.0, 0.49, (5, 3))
    e, n = E[..., None, None, None, None], nu[..., None, None, None, None]
    mu = e / (2.0 * (1.0 + n))
    lame = e * n / ((1.0 + n) * (1.0 - 2.0 * n)) if plane == "strain" else e * n / (1.0 - n**2)
    d = np.eye(2)
    ref = (lame * np.einsum("ij,kl->ijkl", d, d)
           + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)))
    assert elasticity_tensor(E, nu, plane).tobytes() == ref.tobytes()
    got_lame, got_mu = lame_parameters(E, nu, plane)
    assert got_lame.shape == got_mu.shape == E.shape
    assert got_lame.tobytes() == lame[..., 0, 0, 0, 0].tobytes()
    assert got_mu.tobytes() == mu[..., 0, 0, 0, 0].tobytes()


def test_lame_parameters_validate_the_moduli():
    for E, nu in ((-1.0, 0.3), (0.0, 0.3), (1.0, 0.5), (1.0, -0.1), ([1.0, -2.0], 0.3)):
        with pytest.raises(MaterialError):
            lame_parameters(E, nu, "strain")
    with pytest.raises(MaterialError):
        lame_parameters(1.0, 0.3, "shell")


def test_audit_ellipticity_passes(example_law):
    assert example_law.audit_ellipticity() > 0


def test_audit_catches_vanishing_modulus():
    # matrix E law hits zero at T=1000; widening the range must fail the audit
    law = MaterialLaw(coeffs=EXAMPLE_LAWS, T_range=(250.0, 1000.0))
    with pytest.raises(MaterialError):
        law.audit_ellipticity()


def test_missing_quantity_rejected():
    bad = {MATRIX: {"rho": (1.0, 0.0)}, INCLUSION: dict(EXAMPLE_LAWS[INCLUSION])}
    with pytest.raises(MaterialError):
        MaterialLaw(coeffs=bad)


def test_uniform_law_phases_identical(uniform_law):
    for q in ("k", "lam", "beta", "E"):
        assert uniform_law.eval(MATRIX, q, 311.0) == uniform_law.eval(INCLUSION, q, 311.0)


def test_temperature_dependent_nu_rejected_for_derivative(disk_cell_mesh):
    """The cell stage's dc/dT (CellOperators.elasticity_slope) needs a constant nu."""
    coeffs = {ph: dict(EXAMPLE_LAWS[ph]) for ph in (MATRIX, INCLUSION)}
    coeffs[MATRIX]["nu"] = (0.25, 1e-5)
    ops = cell.CellOperators(fem.FemSpace(disk_cell_mesh), MaterialLaw(coeffs=coeffs), 300.0,
                             "dirichlet")
    with pytest.raises(MaterialError, match="Poisson ratio"):
        ops.elasticity_slope()
