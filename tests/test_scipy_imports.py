"""Every function of the package that imports SciPy is listed here.

homsim imports scipy.sparse only in the functions that build a matrix and
SuperLU (scipy.sparse.linalg) only at a factorization, so that import
homsim.cli and the stages that build no matrix load no SciPy (README, the fem
docstring).  A new import site must be added to SCIPY_SITES with the matrix
it builds, and a deleted one removed; an import at module level is listed
under the module's name, and fails.
"""

import ast
import pathlib

import homsim

SRC = pathlib.Path(homsim.__file__).resolve().parent

SCIPY_SITES = {
    "fem._canonical_csr": "the CSR matrix of an assembled operator on its pattern",
    "fem.CsrPattern.__init__": "the pattern's sorted CSR and its sum and load operators",
    "fem.FemSpace._p1_integral": "the (nt, nn) element-integral operator of P1 fields",
    "fem.SpdSolver.__init__": "the SuperLU factorization",
    "fem.PeriodicMap.__init__": "the periodic reduction operator and the reduced matrix",
}


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


def _scipy_sites():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _ScipyImports(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return found


def test_every_scipy_import_site_is_listed():
    found = _scipy_sites()
    assert sorted(set(found) - set(SCIPY_SITES)) == [], "new SciPy imports: list them in SCIPY_SITES"
    assert sorted(set(SCIPY_SITES) - set(found)) == [], "removed SciPy imports: delete them"
    assert len(found) == len(set(found)), "a function imports SciPy twice"
