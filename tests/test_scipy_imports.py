"""SciPy in the package: every site that reaches it, and the kernels fem loads from it.

homsim reaches SciPy in one place only (README, the fem docstring):
fem._scipy_kernel loads SciPy's two compiled kernels by file.  So import
homsim.cli and verify, which builds no matrix, load no SciPy, and no stage
loads a scipy package.  A new site must be added to SCIPY_SITES, and a
deleted one removed.  A site is an import statement of scipy or an
importlib lookup of a "scipy..." name, so a load by file is a site too; one
at module level is listed under the module's name, and fails.

The kernels compute what SciPy does with them: SpdSolver solves bit for bit
as splu, and CsrMatrix multiplies bit for bit as csr_matrix, whether the
kernels were loaded before the scipy packages or after.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import homsim

SRC = pathlib.Path(homsim.__file__).resolve().parent

SCIPY_SITES = {
    "fem._scipy_kernel": "SciPy's CSR kernels and SuperLU's gstrf, loaded by file",
}

#: importlib's functions that look a module up by its name
LOOKUPS = {"__import__", "import_module", "find_spec", "spec_from_file_location", "find_loader"}


def _scipy_name(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.split(".")[0] == "scipy")


class _ScipyImports(ast.NodeVisitor):
    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Import(self, node):
        if any(alias.name.split(".")[0] == "scipy" for alias in node.names):
            self.found.append(".".join(self.scope))

    def visit_ImportFrom(self, node):
        if node.level == 0 and node.module.split(".")[0] == "scipy":
            self.found.append(".".join(self.scope))

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        args = node.args + [k.value for k in node.keywords]
        if name in LOOKUPS and any(_scipy_name(a) for a in args):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def _sites(module, text):
    visitor = _ScipyImports(module)
    visitor.visit(ast.parse(text))
    return visitor.found


def _scipy_sites():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _sites(path.stem, path.read_text())
    return found


def test_every_scipy_import_site_is_listed():
    found = _scipy_sites()
    assert sorted(set(found) - set(SCIPY_SITES)) == [], "new SciPy imports: list them in SCIPY_SITES"
    assert sorted(set(SCIPY_SITES) - set(found)) == [], "removed SciPy imports: delete them"
    assert len(found) == len(set(found)), "a function imports SciPy twice"


def test_by_name_lookups_of_scipy_are_sites():
    text = '''
import importlib
from importlib.machinery import PathFinder
def by_file():
    return PathFinder.find_spec("scipy.sparse._sparsetools", ["/somewhere"])
def by_name():
    return importlib.import_module(name="scipy.sparse")
def builtin():
    return __import__("scipy")
def other():
    return importlib.import_module("numpy"), PathFinder.find_spec("scipyx")
spec = importlib.util.find_spec("scipy")
'''
    assert _sites("m", text) == ["m.by_file", "m.by_name", "m.builtin", "m"]


# Run in a fresh process, with SciPy's kernels loaded by fem before the
# scipy packages are imported, or after.
_EQUIVALENCE = """
import sys
import numpy as np
from homsim import cell, fem
from homsim.config import SimulationConfig
from homsim.mesh import PhaseGeometry, build_macro_mesh, build_unit_cell_mesh

kernels = ("sparse._sparsetools", "sparse.linalg._dsolve._superlu")
if sys.argv[1] == "first":
    loaded = [fem._scipy_kernel(k) for k in kernels]
    assert sorted(m for m in sys.modules if m.startswith("scipy")) == ["scipy." + k for k in kernels]
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.sparse.linalg._dsolve import _superlu
if sys.argv[1] == "after":
    loaded = [fem._scipy_kernel(k) for k in kernels]
assert loaded == [sys.modules["scipy.sparse._sparsetools"], _superlu]

rng = np.random.default_rng(7)
law = SimulationConfig.from_file(sys.argv[2]).law
space = fem.FemSpace(build_macro_mesh(0.1))
mesh, nt = space.mesh, space.mesh.num_triangles
bn = mesh.boundary_nodes
heat = fem.assemble_grad_grad(space, rng.random((nt, 2, 2)))
heat.data += fem.assemble_mass(space, rng.random(space.wq.shape)).data
stiff = fem.assemble_elasticity(space, (rng.random(nt), rng.random(nt)))
operators = {
    "macro heat": fem.apply_dirichlet(heat, np.zeros(heat.shape[0]), bn, 0.0)[0],
    "macro elasticity": fem.DirichletPlan(space.vector_pattern, np.concatenate([2 * bn, 2 * bn + 1]))
    .apply(stiff, np.zeros(stiff.shape[0]), 0.0)[0],
}
cell_space = fem.FemSpace(build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.15))
for bc in ("dirichlet", "periodic"):
    ops = cell.CellOperators(cell_space, law, 300.0, bc)
    for name, m in ops._maps.items():
        operators[f"{bc} cell {name}"] = m.A
symmetric = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
for name, A in operators.items():
    S = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    n = A.shape[0]
    b = rng.standard_normal((n, 3))
    for default, kwargs in ((False, symmetric), (True, {})):
        solver, lu = fem.SpdSolver(A, default_ordering=default), splu(S.tocsc(), **kwargs)
        assert solver.fill == lu.nnz, (name, default)
        for rhs in (b[:, 0], b):
            x = solver.solve(rhs)
            assert x.tobytes() == lu.solve(rhs).tobytes(), (name, default)
            # SpdSolver checks its residual by the CSR product, as it did by the CSC one
            assert (A @ x).tobytes() == (S.tocsc() @ x).tobytes(), name
    for x in (b[:, 0], b[:, :1], b, rng.standard_normal((n, 6))[:, ::2], b.T.copy().T):
        assert (A @ x).tobytes() == (S @ x).tobytes(), (name, x.shape, x.strides)
    assert A.diagonal().tobytes() == S.diagonal().tobytes(), name

# the pattern's sum and load operators, and the element-integral operator
# on the non-contiguous block element_integrals gives it
ops = [space.scalar_pattern.sum, space.vector_pattern.load, space._p1_integral]
for op, x in zip(ops, (rng.standard_normal(op.shape[1]) for op in ops)):
    S = sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)
    X = rng.standard_normal((3, op.shape[1])).T
    for v in (x, X):
        assert (op @ v).tobytes() == (S @ v).tobytes()
print("same bits")
"""


@pytest.mark.parametrize("order", ["first", "after"])
def test_kernels_compute_what_scipy_computes(order):
    from conftest import EXAMPLE_CONFIG

    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", _EQUIVALENCE, order, str(EXAMPLE_CONFIG)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "same bits"
