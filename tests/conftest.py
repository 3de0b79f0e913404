"""Shared fixtures: small meshes, laws and corrector tables reused across tests."""

import dataclasses
import pathlib

import numpy as np
import pytest

from homsim import fem, homog
from homsim.config import SimulationConfig
from homsim.mesh import INCLUSION, MATRIX, PhaseGeometry, build_macro_mesh, build_unit_cell_mesh

#: the shipped example configuration; its material law is the tests' two-phase law
EXAMPLE_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "example1.json"


def shipped_law():
    """The material law of EXAMPLE_CONFIG, read through SimulationConfig."""
    return SimulationConfig.from_file(EXAMPLE_CONFIG).law


#: the per-phase affine laws of EXAMPLE_CONFIG, {phase: {quantity: (a, b)}}
EXAMPLE_LAWS = shipped_law().coeffs


@pytest.fixture(scope="session")
def disk_cell_mesh():
    return build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.2)


@pytest.fixture(scope="session")
def fine_disk_cell_mesh():
    return build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.12)


@pytest.fixture(scope="session")
def stripe_cell_mesh():
    return build_unit_cell_mesh(PhaseGeometry("stripe", radius=0.25, fraction=0.5), 0.1)


@pytest.fixture(scope="session")
def macro_mesh():
    return build_macro_mesh(0.1)


@pytest.fixture(scope="session")
def example_law():
    return shipped_law()


def single_material_law(values):
    """The law of one material, values {quantity: (a, b)}, applied to both phases,
    on the range and plane mode of the shipped law."""
    return dataclasses.replace(shipped_law(),
                               coeffs={MATRIX: dict(values), INCLUSION: dict(values)})


@pytest.fixture(scope="session")
def uniform_law():
    """The matrix material in both phases (degeneracy testing)."""
    return single_material_law(EXAMPLE_LAWS[MATRIX])


@pytest.fixture(scope="session")
def small_table(disk_cell_mesh, example_law):
    """Composite corrector table on the coarse disk cell (3 temperatures)."""
    return homog.build_table(disk_cell_mesh, example_law, np.linspace(280.0, 400.0, 3),
                             Ttilde=300.0, bc="dirichlet")


@pytest.fixture(scope="session")
def uniform_table(disk_cell_mesh, uniform_law):
    """Degenerate (single-material) table on the coarse disk cell."""
    return homog.build_table(disk_cell_mesh, uniform_law, np.linspace(280.0, 400.0, 3),
                             Ttilde=300.0, bc="dirichlet")


def isotropic_elasticity(lame, mu):
    """c_ijkl = lame d_ij d_kl + mu (d_ik d_jl + d_il d_jk), tensor axes after those of lame, mu."""
    d = np.eye(2)
    lame, mu = np.asarray(lame)[..., None, None, None, None], np.asarray(mu)[..., None, None, None, None]
    return (lame * np.einsum("ij,kl->ijkl", d, d)
            + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)))


def constant_problem_data(value_T=300.0, f_T=0.0, f_Phi=0.0, f_U=0.0):
    """ProblemData with constant sources and boundary values."""
    from homsim.macro import ProblemData

    zvec = lambda pts, t: np.zeros((len(pts), 2))
    return ProblemData(
        f_T=lambda pts, t: np.full(len(pts), float(f_T)),
        f_Phi=lambda pts, t: np.full(len(pts), float(f_Phi)),
        f_U=lambda pts, t: np.full((len(pts), 2), float(f_U)),
        bc_T=lambda pts, t: np.full(len(pts), float(value_T)),
        bc_Phi=lambda pts, t: np.zeros(len(pts)),
        bc_U=zvec,
        T_init=float(value_T),
        U_init=zvec,
        V_init=zvec,
    )


def count_patterns(monkeypatch):
    """Record the element dof count of every fem.CsrPattern built from now on."""
    built = []

    class Counted(fem.CsrPattern):
        def __init__(self, dofs, n):
            built.append(dofs.shape[1])
            super().__init__(dofs, n)

    monkeypatch.setattr(fem, "CsrPattern", Counted)
    return built


def scipy_csr(A):
    """A fem.CsrMatrix as SciPy's csr_matrix, on copies of its arrays, for the
    tests that read fem matrices with SciPy (toarray, sums, products)."""
    import scipy.sparse as sp

    return sp.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)


def fem_csr(S):
    """A SciPy sparse matrix, or a dense array, as the canonical fem.CsrMatrix
    the fem kernels take."""
    import scipy.sparse as sp

    S = sp.csr_matrix(S, copy=True)
    S.sum_duplicates()
    return fem.CsrMatrix(S.data, S.indices, S.indptr, S.shape)


def periodic_R(pm):
    """The SciPy CSR matrix R of a fem.PeriodicMap, built from its rep: full
    dof f has a 1 in column rep[f], so that x_full = R x_red."""
    import scipy.sparse as sp

    n = len(pm.rep)
    return sp.csr_matrix((np.ones(n), pm.rep, np.arange(n + 1)), shape=(n, pm.A.shape[0]))


def superlu():
    """SuperLU's compiled module, as fem loads it; SciPy's splu calls the same object."""
    return fem._scipy_kernel("sparse.linalg._dsolve._superlu")


def splu_options(**kwargs):
    """The options scipy.sparse.linalg.splu(A, **kwargs) passes to SuperLU's gstrf.

    splu runs on a 1 x 1 matrix and is stopped at its gstrf call, so no
    factorization happens and no recorder of gstrf sees it.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    class Seen(Exception):
        pass

    def stop(*args, options, **kw):
        raise Seen(options)

    module, gstrf = superlu(), superlu().gstrf
    module.gstrf = stop
    try:
        spla.splu(sp.csc_matrix(np.eye(1)), **kwargs)
    except Seen as seen:
        return seen.args[0]
    finally:
        module.gstrf = gstrf
    raise AssertionError("splu did not call gstrf")


@pytest.fixture
def gstrf_options(monkeypatch):
    """The options of every SuperLU factorization from here on, in call order."""
    seen, gstrf = [], superlu().gstrf

    def recorded(*args, options, **kwargs):
        seen.append(options)
        return gstrf(*args, options=options, **kwargs)

    monkeypatch.setattr(superlu(), "gstrf", recorded)
    return seen
